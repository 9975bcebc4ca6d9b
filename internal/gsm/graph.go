// Package gsm implements GCA, the GSM-based place discovery algorithm PMWare
// bootstraps with (paper Section 2.2.2, originally from PlaceMap [26]).
//
// GCA's core difficulty is the "oscillating effect": the serving Cell-ID
// changes even while the user is stationary, due to network load, short-time
// signal fading, and 2G/3G inter-network handoff. GCA models oscillation
// among Cell-IDs as an undirected weighted graph (the movement graph) and
// clusters with heuristics over edge weights and node degrees.
package gsm

import (
	"slices"
	"time"

	"repro/internal/trace"
	"repro/internal/world"
)

// Params tunes GCA. Zero value is not useful; start from DefaultParams.
type Params struct {
	// Window is the look-back horizon for cell-diversity stationarity
	// detection.
	Window time.Duration
	// MaxCellsInWindow is the stationarity criterion: at most this many
	// distinct cells inside Window.
	MaxCellsInWindow int
	// MinStay is the minimum dwell for a segment to count as a place visit
	// (the paper cites 10 minutes, after [19]).
	MinStay time.Duration
	// BounceWindow bounds the u->v->u round-trip time that counts as an
	// oscillation bounce rather than genuine movement.
	BounceWindow time.Duration
	// MinBounceWeight is the edge weight at which two cells are considered
	// oscillation partners (same physical place).
	MinBounceWeight int
	// MergeOverlap is the cosine similarity (over oscillation-expanded,
	// dwell-weighted cell vectors) above which two stay segments are the
	// same place.
	MergeOverlap float64
	// SignatureSize caps the place signature at the top-N cells by dwell
	// (the paper writes signatures as ~5 cells).
	SignatureSize int
}

// DefaultParams returns the GCA parameters used by the deployment study.
func DefaultParams() Params {
	return Params{
		Window:           10 * time.Minute,
		MaxCellsInWindow: 4,
		MinStay:          10 * time.Minute,
		BounceWindow:     10 * time.Minute,
		MinBounceWeight:  3,
		MergeOverlap:     0.45,
		SignatureSize:    5,
	}
}

// Graph is the movement graph: nodes are Cell-IDs, edge weights count
// transitions, and bounce weights count rapid u->v->u round trips (the
// oscillation evidence).
type Graph struct {
	nodes  map[world.CellID]*node
	totalE int
}

type node struct {
	id      world.CellID
	dwell   int // observation count while serving
	edges   map[world.CellID]int
	bounces map[world.CellID]int
}

// BuildGraph constructs the movement graph from a time-ordered observation
// trace.
func BuildGraph(obs []trace.GSMObservation, p Params) *Graph {
	g := &Graph{nodes: make(map[world.CellID]*node)}
	for i, o := range obs {
		var prev, prev2 *trace.GSMObservation
		if i >= 1 {
			prev = &obs[i-1]
		}
		if i >= 2 {
			prev2 = &obs[i-2]
		}
		g.observe(prev2, prev, o, p)
	}
	return g
}

// observe folds one observation into the graph given its up-to-two
// predecessors (nil when the trace is shorter). It is the single fold step
// shared by BuildGraph and the incremental Pipeline, so both construct
// identical graphs by definition.
func (g *Graph) observe(prev2, prev *trace.GSMObservation, o trace.GSMObservation, p Params) {
	n := g.ensure(o.Cell)
	n.dwell++
	if prev == nil {
		return
	}
	if prev.Cell != o.Cell {
		g.addEdge(prev.Cell, o.Cell)
	}
	// Bounce: obs[i-2] == obs[i] != obs[i-1], within the bounce window.
	if prev2 != nil && prev2.Cell == o.Cell && prev.Cell != o.Cell &&
		o.At.Sub(prev2.At) <= p.BounceWindow {
		g.addBounce(o.Cell, prev.Cell)
	}
}

func (g *Graph) ensure(id world.CellID) *node {
	n, ok := g.nodes[id]
	if !ok {
		n = &node{id: id, edges: make(map[world.CellID]int), bounces: make(map[world.CellID]int)}
		g.nodes[id] = n
	}
	return n
}

func (g *Graph) addEdge(a, b world.CellID) {
	g.ensure(a).edges[b]++
	g.ensure(b).edges[a]++
	g.totalE++
}

func (g *Graph) addBounce(a, b world.CellID) {
	g.ensure(a).bounces[b]++
	g.ensure(b).bounces[a]++
}

// NumNodes returns the number of distinct cells seen.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumTransitions returns the total number of cell transitions observed.
func (g *Graph) NumTransitions() int { return g.totalE }

// EdgeWeight returns the transition count between two cells.
func (g *Graph) EdgeWeight(a, b world.CellID) int {
	if n, ok := g.nodes[a]; ok {
		return n.edges[b]
	}
	return 0
}

// BounceWeight returns the oscillation bounce count between two cells.
func (g *Graph) BounceWeight(a, b world.CellID) int {
	if n, ok := g.nodes[a]; ok {
		return n.bounces[b]
	}
	return 0
}

// Degree returns the number of distinct neighbours of the cell.
func (g *Graph) Degree(id world.CellID) int {
	if n, ok := g.nodes[id]; ok {
		return len(n.edges)
	}
	return 0
}

// Dwell returns the number of observations the cell served.
func (g *Graph) Dwell(id world.CellID) int {
	if n, ok := g.nodes[id]; ok {
		return n.dwell
	}
	return 0
}

// OscillationPartners returns cells whose bounce weight with id meets the
// threshold, sorted for determinism.
func (g *Graph) OscillationPartners(id world.CellID, minWeight int) []world.CellID {
	n, ok := g.nodes[id]
	if !ok {
		return nil
	}
	var out []world.CellID
	for other, w := range n.bounces {
		if w >= minWeight {
			out = append(out, other)
		}
	}
	slices.SortFunc(out, world.CompareCellStrings)
	return out
}

// Cells returns every cell in the graph, sorted for determinism.
func (g *Graph) Cells() []world.CellID {
	out := make([]world.CellID, 0, len(g.nodes))
	for id := range g.nodes {
		out = append(out, id)
	}
	slices.SortFunc(out, world.CompareCellStrings)
	return out
}

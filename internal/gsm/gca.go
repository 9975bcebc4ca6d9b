package gsm

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
	"repro/internal/world"
)

// Visit is one arrival/departure interval at a discovered place.
type Visit struct {
	Arrive time.Time
	Depart time.Time
}

// Duration returns the visit length.
func (v Visit) Duration() time.Duration { return v.Depart.Sub(v.Arrive) }

// Place is a discovered place: a Cell-ID signature plus the visits observed.
type Place struct {
	ID int
	// Signature is the top cells (by dwell) identifying the place, the
	// P_i = {c1..c5} of paper Section 2.1.1.
	Signature []world.CellID
	// AllCells is the full cell set observed across visits.
	AllCells map[world.CellID]struct{}
	Visits   []Visit
}

// TotalDwell sums all visit durations.
func (p *Place) TotalDwell() time.Duration {
	var d time.Duration
	for _, v := range p.Visits {
		d += v.Duration()
	}
	return d
}

// HasCell reports whether the cell belongs to the place's observed set.
func (p *Place) HasCell(c world.CellID) bool {
	_, ok := p.AllCells[c]
	return ok
}

// Segment is a maximal stationary run in the trace: one candidate place
// visit before merging.
type Segment struct {
	Start, End time.Time
	Cells      map[world.CellID]struct{}
	dwellBy    map[world.CellID]int
}

// Result is the output of GCA discovery.
type Result struct {
	Places   []*Place
	Segments []Segment
	Graph    *Graph
}

// Discover runs GCA offline over a time-ordered GSM trace: stationarity
// segmentation by cell diversity, then segment merging via oscillation-
// expanded signature overlap. This is the computation the mobile service
// offloads to the cloud instance (paper Section 2.3.1).
func Discover(obs []trace.GSMObservation, p Params) *Result {
	g := BuildGraph(obs, p)
	segs := segmentStays(obs, p)
	places := mergeSegments(segs, g, p)
	return &Result{Places: places, Segments: segs, Graph: g}
}

// segmentStays finds maximal runs where the user's cell diversity within the
// look-back window stays at or below the stationarity bound, and keeps those
// lasting at least MinStay.
func segmentStays(obs []trace.GSMObservation, p Params) []Segment {
	if len(obs) == 0 {
		return nil
	}
	stationary := make([]bool, len(obs))
	j := 0
	counts := map[world.CellID]int{}
	for i, o := range obs {
		counts[o.Cell]++
		for obs[j].At.Before(o.At.Add(-p.Window)) {
			counts[obs[j].Cell]--
			if counts[obs[j].Cell] == 0 {
				delete(counts, obs[j].Cell)
			}
			j++
		}
		stationary[i] = len(counts) <= p.MaxCellsInWindow
	}

	var segs []Segment
	i := 0
	for i < len(obs) {
		if !stationary[i] {
			i++
			continue
		}
		k := i
		for k+1 < len(obs) && stationary[k+1] {
			k++
		}
		// The window lags the true arrival: by the time diversity drops, the
		// user has already dwelt ~Window at the place. Pull the start back.
		start := obs[i].At.Add(-p.Window / 2)
		if start.Before(obs[0].At) {
			start = obs[0].At
		}
		end := obs[k].At
		if end.Sub(start) >= p.MinStay {
			seg := Segment{
				Start: start, End: end,
				Cells:   map[world.CellID]struct{}{},
				dwellBy: map[world.CellID]int{},
			}
			for m := i; m <= k; m++ {
				seg.Cells[obs[m].Cell] = struct{}{}
				seg.dwellBy[obs[m].Cell]++
			}
			segs = append(segs, seg)
		}
		i = k + 1
	}
	return segs
}

// expandedWeights returns the segment's dwell-weighted cell vector grown by
// oscillation partners at a discounted weight. The expansion canonicalizes
// signatures across visits that happened to camp on different layer/operator
// cells of the same place; the dwell weighting keeps the comparison anchored
// on each place's dominant serving cells.
func expandedWeights(seg Segment, g *Graph, p Params) map[world.CellID]float64 {
	out := make(map[world.CellID]float64, len(seg.dwellBy)*2)
	for c, d := range seg.dwellBy {
		out[c] += float64(d)
		for _, partner := range g.OscillationPartners(c, p.MinBounceWeight) {
			out[partner] += float64(d) * 0.6
		}
	}
	return out
}

// cosine returns the cosine similarity of two weighted cell vectors.
func cosine(a, b map[world.CellID]float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var dot, na, nb float64
	for _, w := range a {
		na += w * w
	}
	for _, w := range b {
		nb += w * w
	}
	for c, wa := range a {
		if wb, ok := b[c]; ok {
			dot += wa * wb
		}
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// mergeSegments unions stay segments whose oscillation-expanded dwell
// vectors are similar, producing one Place per union class.
//
// The pair comparison is pruned with an inverted cell→segment index: cosine
// is nonzero only when two vectors share at least one expanded cell, so for
// a positive MergeOverlap only the pairs the index yields need scoring. The
// surviving comparisons fan out across a goroutine pool. The resulting
// partition — and therefore the output — is identical to the quadratic
// reference in gca_quadratic_test.go (pinned by
// TestMergePrunedMatchesQuadratic): places
// depend only on which segments end up in the same union class, never on
// the order unions happen.
func mergeSegments(segs []Segment, g *Graph, p Params) []*Place {
	n := len(segs)
	if n == 0 {
		return nil
	}
	expanded := make([]map[world.CellID]float64, n)
	for i, s := range segs {
		expanded[i] = expandedWeights(s, g, p)
	}

	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	if p.MergeOverlap <= 0 {
		// cosine is never negative, so a non-positive threshold merges every
		// pair; the candidate index (which only yields pairs sharing a cell)
		// would wrongly keep disjoint segments apart.
		for i := 1; i < n; i++ {
			union(0, i)
		}
	} else {
		for _, pr := range similarPairs(expanded, p.MergeOverlap) {
			union(pr[0], pr[1])
		}
	}

	return groupPlaces(segs, find, p)
}

// similarPairs returns every index pair whose cosine similarity meets the
// threshold (which must be positive). Candidates come from an inverted
// expanded-cell → segment index; the cosine evaluations are spread over a
// goroutine fan-out in deterministic chunks.
func similarPairs(expanded []map[world.CellID]float64, threshold float64) [][2]int {
	byCell := map[world.CellID][]int{}
	for i, vec := range expanded {
		for c := range vec {
			byCell[c] = append(byCell[c], i)
		}
	}
	// Collect candidate pairs, deduped across cells. Index lists are in
	// ascending order by construction, so i < k in every pair.
	seen := map[[2]int]struct{}{}
	var pairs [][2]int
	for _, ids := range byCell {
		for a := 0; a < len(ids); a++ {
			for b := a + 1; b < len(ids); b++ {
				key := [2]int{ids[a], ids[b]}
				if _, dup := seen[key]; dup {
					continue
				}
				seen[key] = struct{}{}
				pairs = append(pairs, key)
			}
		}
	}
	if len(pairs) == 0 {
		return nil
	}

	keep := make([]bool, len(pairs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pairs) {
		workers = len(pairs)
	}
	const chunk = 64
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				end := int(cursor.Add(chunk))
				start := end - chunk
				if start >= len(pairs) {
					return
				}
				if end > len(pairs) {
					end = len(pairs)
				}
				for idx := start; idx < end; idx++ {
					pr := pairs[idx]
					keep[idx] = cosine(expanded[pr[0]], expanded[pr[1]]) >= threshold
				}
			}
		}()
	}
	wg.Wait()

	out := pairs[:0]
	for idx, ok := range keep {
		if ok {
			out = append(out, pairs[idx])
		}
	}
	return out
}

// groupPlaces materializes one Place per union class, ordered by first
// visit. The output depends only on the partition find induces.
func groupPlaces(segs []Segment, find func(int) int, p Params) []*Place {
	groups := map[int][]int{}
	for i := range segs {
		root := find(i)
		groups[root] = append(groups[root], i)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	// Order places by first visit for stable IDs.
	sort.Slice(roots, func(a, b int) bool {
		return segs[groups[roots[a]][0]].Start.Before(segs[groups[roots[b]][0]].Start)
	})

	var places []*Place
	for id, root := range roots {
		members := groups[root]
		pl := &Place{ID: id, AllCells: map[world.CellID]struct{}{}}
		dwell := map[world.CellID]int{}
		for _, m := range members {
			seg := segs[m]
			pl.Visits = append(pl.Visits, Visit{Arrive: seg.Start, Depart: seg.End})
			for c := range seg.Cells {
				pl.AllCells[c] = struct{}{}
			}
			for c, d := range seg.dwellBy {
				dwell[c] += d
			}
		}
		sort.Slice(pl.Visits, func(a, b int) bool { return pl.Visits[a].Arrive.Before(pl.Visits[b].Arrive) })
		pl.Signature = topCells(dwell, p.SignatureSize)
		places = append(places, pl)
	}
	return places
}

func topCells(dwell map[world.CellID]int, k int) []world.CellID {
	type cd struct {
		c world.CellID
		d int
	}
	all := make([]cd, 0, len(dwell))
	for c, d := range dwell {
		all = append(all, cd{c, d})
	}
	slices.SortFunc(all, func(a, b cd) int {
		if a.d != b.d {
			return b.d - a.d
		}
		return world.CompareCellStrings(a.c, b.c)
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]world.CellID, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].c
	}
	return out
}

// Package cluster is the horizontal-scaling layer of the PCI: a
// consistent-hash ring that partitions the user keyspace across N nodes,
// and WAL-shipping replication that keeps one follower per primary in
// byte-identical sync (see ship.go). The package is deliberately below
// internal/cloud in the import graph — it moves opaque record bytes and
// node metadata, never decoded store state.
package cluster

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
)

// Node is one PCI process in the ring.
type Node struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Ring is a versioned consistent-hash ring with virtual nodes. Placement is
// deterministic in (Nodes, VNodes): every participant — client, server,
// coordinator — that holds the same ring computes the same owner for every
// key, with no coordination. Version totally orders ring generations; nodes
// and clients accept only pushes with a higher version than they hold.
//
// Takeover maps a failed node's ID to its heir: the heir answers for every
// vnode the failed node owned. It is how promotion works without moving the
// failed node's ranges to arbitrary survivors (only the heir has the
// replicated data).
type Ring struct {
	Version  uint64            `json:"version"`
	VNodes   int               `json:"vnodes"`
	Nodes    []Node            `json:"nodes"`
	Takeover map[string]string `json:"takeover,omitempty"`

	points []point // lazily built, sorted by hash
}

type point struct {
	hash uint64
	node int // index into Nodes
}

// DefaultVNodes is the virtual-node count per physical node. 128 keeps the
// ±20% balance bound of the property tests with room to spare.
const DefaultVNodes = 128

// NewRing builds a ring over the given nodes. Nodes are sorted by ID so the
// same member set always yields the same ring regardless of argument order.
func NewRing(version uint64, nodes []Node, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	ns := make([]Node, len(nodes))
	copy(ns, nodes)
	sort.Slice(ns, func(i, j int) bool { return ns[i].ID < ns[j].ID })
	r := &Ring{Version: version, VNodes: vnodes, Nodes: ns}
	r.build()
	return r
}

// mix64 is the splitmix64 finalizer. FNV alone distributes short labels with
// shared prefixes ("a#0", "a#1", ...) unevenly; the finalizer's avalanche
// restores uniformity without giving up determinism.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

func (r *Ring) build() {
	r.points = make([]point, 0, len(r.Nodes)*r.VNodes)
	for ni, n := range r.Nodes {
		for v := 0; v < r.VNodes; v++ {
			r.points = append(r.points, point{hash: hash64(fmt.Sprintf("%s#%d", n.ID, v)), node: ni})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by node index so placement
		// stays deterministic.
		return r.points[i].node < r.points[j].node
	})
}

// ensure rebuilds the point table after JSON decoding.
func (r *Ring) ensure() {
	if len(r.points) != len(r.Nodes)*r.VNodes {
		r.build()
	}
}

// ownerID resolves a node index through the takeover table.
func (r *Ring) ownerID(ni int) string {
	id := r.Nodes[ni].ID
	for i := 0; i < len(r.Takeover); i++ { // follow (compressed) chains defensively
		heir, ok := r.Takeover[id]
		if !ok {
			return id
		}
		id = heir
	}
	return id
}

// PrimaryID reports which node ID owns the key. Placement: hash the key,
// binary-search the first vnode point at or after it (wrapping), resolve the
// point's node through the takeover table.
func (r *Ring) PrimaryID(key string) string {
	r.ensure()
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.ownerID(r.points[i].node)
}

// Primary reports the node that owns the key.
func (r *Ring) Primary(key string) (Node, bool) {
	return r.NodeByID(r.PrimaryID(key))
}

// NodeByID looks a member up by ID.
func (r *Ring) NodeByID(id string) (Node, bool) {
	for _, n := range r.Nodes {
		if n.ID == id {
			return n, true
		}
	}
	return Node{}, false
}

// alive reports whether a node currently answers for its own ranges (it has
// not been taken over).
func (r *Ring) alive(id string) bool {
	_, dead := r.Takeover[id]
	return !dead
}

// Alive reports whether a node answers for its own ranges under this ring —
// false for a member that has been failed over to its heir. Receivers use
// it for stream admission: a taken-over node is not a legitimate primary
// for anything, so nothing it ships may replace data.
func (r *Ring) Alive(id string) bool { return r.alive(id) }

// FollowerID reports the designated follower for a primary: the next alive
// node in sorted-ID order. Follower assignment is per NODE, not per range —
// a primary ships its entire WAL to exactly one follower, which is what
// makes the follower's store a byte-identical replica of the stream.
func (r *Ring) FollowerID(primaryID string) (string, bool) {
	r.ensure()
	n := len(r.Nodes)
	start := -1
	for i, node := range r.Nodes {
		if node.ID == primaryID {
			start = i
			break
		}
	}
	if start < 0 || n < 2 {
		return "", false
	}
	for d := 1; d < n; d++ {
		cand := r.Nodes[(start+d)%n]
		if cand.ID != primaryID && r.alive(cand.ID) {
			return cand.ID, true
		}
	}
	return "", false
}

// Follower reports the follower node for a primary.
func (r *Ring) Follower(primaryID string) (Node, bool) {
	id, ok := r.FollowerID(primaryID)
	if !ok {
		return Node{}, false
	}
	return r.NodeByID(id)
}

// WithTakeover returns a version+1 copy where heir answers for dead's
// ranges. Existing chains pointing at dead are re-pointed at heir so lookup
// never walks more than one hop.
func (r *Ring) WithTakeover(dead, heir string) *Ring {
	next := NewRing(r.Version+1, r.Nodes, r.VNodes)
	next.Takeover = map[string]string{}
	for d, h := range r.Takeover {
		if h == dead {
			h = heir
		}
		next.Takeover[d] = h
	}
	next.Takeover[dead] = heir
	return next
}

// WithJoin returns a version+1 copy with the node added (or its URL
// updated). A rejoining node clears its own takeover entry: it owns its
// ranges again once the coordinator has completed handoff.
func (r *Ring) WithJoin(n Node) *Ring {
	nodes := make([]Node, 0, len(r.Nodes)+1)
	for _, m := range r.Nodes {
		if m.ID != n.ID {
			nodes = append(nodes, m)
		}
	}
	nodes = append(nodes, n)
	next := NewRing(r.Version+1, nodes, r.VNodes)
	if len(r.Takeover) > 0 {
		next.Takeover = map[string]string{}
		for d, h := range r.Takeover {
			if d != n.ID {
				next.Takeover[d] = h
			}
		}
		if len(next.Takeover) == 0 {
			next.Takeover = nil
		}
	}
	return next
}

// WithLeave returns a version+1 copy with the node removed. Its vnodes
// disappear from the ring, so its ranges redistribute to the survivors —
// the caller must have handed the data off first.
func (r *Ring) WithLeave(id string) *Ring {
	nodes := make([]Node, 0, len(r.Nodes))
	for _, m := range r.Nodes {
		if m.ID != id {
			nodes = append(nodes, m)
		}
	}
	next := NewRing(r.Version+1, nodes, r.VNodes)
	if len(r.Takeover) > 0 {
		next.Takeover = map[string]string{}
		for d, h := range r.Takeover {
			if d != id && h != id {
				next.Takeover[d] = h
			}
		}
		if len(next.Takeover) == 0 {
			next.Takeover = nil
		}
	}
	return next
}

// Encode serializes the ring for a version push or a client fetch.
func (r *Ring) Encode() []byte {
	b, _ := json.Marshal(r)
	return b
}

// DecodeRing parses a ring and rebuilds its point table.
func DecodeRing(b []byte) (*Ring, error) {
	var r Ring
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("cluster: decode ring: %w", err)
	}
	if r.VNodes <= 0 || len(r.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring missing vnodes or nodes")
	}
	r.build()
	return &r, nil
}

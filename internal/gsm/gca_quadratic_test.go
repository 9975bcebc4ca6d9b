package gsm

import "repro/internal/world"

// mergeSegmentsQuadratic is the original all-pairs merge pass, kept as the
// correctness reference for the pruned+parallel mergeSegments.
func mergeSegmentsQuadratic(segs []Segment, g *Graph, p Params) []*Place {
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

	for i := 0; i < n; i++ {
		for k := i + 1; k < n; k++ {
			if find(i) == find(k) {
				continue
			}
			if cosine(expanded[i], expanded[k]) >= p.MergeOverlap {
				union(i, k)
			}
		}
	}

	return groupPlaces(segs, find, p)
}

package cloud

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/geo"
	"repro/internal/obs"
)

// This file implements the cross-user "popular places" aggregate — an
// implementation of the paper's future-work direction of offering mobility
// data to third parties "while ensuring greater privacy guarantees": the
// cloud reveals only place clusters visited by at least k distinct users
// (k-anonymity at the place level), with counts and an optional consensus
// label, never user identities or visit times.
//
// Two entry points share the pipeline (sitePlaces → clusterPopular):
// PopularPlaces recomputes from a full store scan, and PopularIndex — the
// serving path — caches each user's geolocated points keyed by that user's
// places generation and memoizes the whole clustering keyed by the store's
// places version, so an unchanged store answers repeat queries without
// touching a single place.

// PopularPlace is one k-anonymous aggregate cluster.
type PopularPlace struct {
	Center geo.LatLng `json:"center"`
	// Users is how many distinct users have a discovered place here.
	Users int `json:"users"`
	// Label is the most common user label in the cluster, or "" when fewer
	// than k users agree on one (so a unique label cannot identify anyone).
	Label string `json:"label,omitempty"`
}

// PopularPlacesResponse is the endpoint payload.
type PopularPlacesResponse struct {
	K      int            `json:"k"`
	Places []PopularPlace `json:"places"`
}

// PathPlacesPopular is the aggregate endpoint.
const PathPlacesPopular = "/api/v1/places/popular"

// sited is one user's place resolved to a map position.
type sited struct {
	user   string
	center geo.LatLng
	label  string
}

// sitePlaces geolocates one user's places through the cell database. Places
// whose cells cannot be geolocated are skipped.
func sitePlaces(user string, places []PlaceWire, cells *CellDatabase) []sited {
	var out []sited
	for _, p := range places {
		var pts []geo.LatLng
		for _, c := range p.Cells {
			if e, ok := cells.Lookup(c); ok {
				pts = append(pts, geo.LatLng{Lat: e.Lat, Lng: e.Lng})
			}
		}
		if len(pts) == 0 {
			continue
		}
		out = append(out, sited{user: user, center: geo.Centroid(pts), label: p.Label})
	}
	return out
}

// clusterPopular greedily clusters sited places within radiusM and keeps the
// k-anonymous clusters. The input is sorted first so the result is a pure
// function of the set, not of shard iteration order.
func clusterPopular(all []sited, k int, radiusM float64) []PopularPlace {
	sort.Slice(all, func(i, j int) bool {
		if all[i].center.Lat != all[j].center.Lat {
			return all[i].center.Lat < all[j].center.Lat
		}
		if all[i].center.Lng != all[j].center.Lng {
			return all[i].center.Lng < all[j].center.Lng
		}
		return all[i].user < all[j].user
	})

	type cluster struct {
		members []sited
		center  geo.LatLng
	}
	var clusters []*cluster
	for _, s := range all {
		var best *cluster
		bestD := radiusM
		for _, c := range clusters {
			if d := geo.Distance(c.center, s.center); d <= bestD {
				best, bestD = c, d
			}
		}
		if best == nil {
			clusters = append(clusters, &cluster{members: []sited{s}, center: s.center})
			continue
		}
		best.members = append(best.members, s)
		// Recompute the running centroid.
		pts := make([]geo.LatLng, len(best.members))
		for i, m := range best.members {
			pts[i] = m.center
		}
		best.center = geo.Centroid(pts)
	}

	var out []PopularPlace
	for _, c := range clusters {
		users := map[string]bool{}
		voted := map[[2]string]bool{} // (label, user) pairs already counted
		labelVotes := map[string]int{}
		for _, m := range c.members {
			users[m.user] = true
			if vote := [2]string{m.label, m.user}; m.label != "" && !voted[vote] {
				voted[vote] = true
				labelVotes[m.label]++
			}
		}
		if len(users) < k {
			continue
		}
		pp := PopularPlace{Center: c.center, Users: len(users)}
		// Reveal a label only when at least k distinct users carry it: one
		// user's k same-labelled places are one vote, not k.
		bestLabel, bestVotes := "", 0
		for l, v := range labelVotes {
			if v > bestVotes || (v == bestVotes && l < bestLabel) {
				bestLabel, bestVotes = l, v
			}
		}
		if bestVotes >= k {
			pp.Label = bestLabel
		}
		out = append(out, pp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Users != out[j].Users {
			return out[i].Users > out[j].Users
		}
		if out[i].Center.Lat != out[j].Center.Lat {
			return out[i].Center.Lat < out[j].Center.Lat
		}
		return out[i].Center.Lng < out[j].Center.Lng
	})
	return out
}

// PopularPlaces clusters every user's stored places by geolocated centroid
// (cells resolved through the cell database, clusters within radiusM merge)
// and returns clusters with at least k distinct users — the from-scratch
// recompute; the serving path is PopularIndex.
func PopularPlaces(store *Store, cells *CellDatabase, k int, radiusM float64) []PopularPlace {
	if k < 2 {
		k = 2 // never allow a singleton reveal
	}
	var all []sited
	store.forEachPlaces(func(user string, places []PlaceWire) {
		all = append(all, sitePlaces(user, places, cells)...)
	})
	return clusterPopular(all, k, radiusM)
}

// cachedSited is one user's geolocated places, valid while the user's places
// generation is unchanged.
type cachedSited struct {
	gen uint64
	pts []sited
}

// PopularIndex serves popular-places queries from caches instead of
// re-geolocating every user's places per request. Two layers, both
// invalidated by version counters the store bumps on places mutations (never
// by time, so results are always exact, never stale):
//
//   - per-user: sitePlaces output keyed by the user's places generation —
//     only users whose places actually changed are re-geolocated;
//   - whole-result: the clustered answer keyed by (store places version, k,
//     radius) — an unchanged store serves repeats from the memo.
type PopularIndex struct {
	store *Store
	cells *CellDatabase

	memoHits   *obs.Counter // popular_memo_hits_total
	recomputes *obs.Counter // popular_recomputes_total

	mu     sync.Mutex
	byUser map[string]cachedSited
	memo   struct {
		valid  bool
		ver    uint64
		k      int
		radius float64
		places []PopularPlace
	}
}

// NewPopularIndex returns an empty cache over the store; the first query
// populates it.
func NewPopularIndex(store *Store, cells *CellDatabase) *PopularIndex {
	return &PopularIndex{
		store:      store,
		cells:      cells,
		memoHits:   store.obsReg.Counter("popular_memo_hits_total"),
		recomputes: store.obsReg.Counter("popular_recomputes_total"),
		byUser:     map[string]cachedSited{},
	}
}

// Places answers exactly like PopularPlaces(store, cells, k, radiusM) — the
// equivalence property test holds the two identical — reusing every cache
// layer the version counters allow. The returned slice is the caller's.
func (px *PopularIndex) Places(k int, radiusM float64) []PopularPlace {
	if k < 2 {
		k = 2 // never allow a singleton reveal
	}
	px.mu.Lock()
	defer px.mu.Unlock()

	// Read the version BEFORE gathering: a mutation racing the gather can
	// only make the memo key stale-low (over-invalidating next call), never
	// let newer state hide behind an old key.
	ver := px.store.placesVersion()
	if px.memo.valid && px.memo.ver == ver && px.memo.k == k && px.memo.radius == radiusM {
		px.memoHits.Inc()
		return slices.Clone(px.memo.places)
	}
	px.recomputes.Inc()

	seen := map[string]bool{}
	var all []sited
	px.store.forEachPlacesGen(func(user string, gen uint64, places []PlaceWire) {
		seen[user] = true
		c, ok := px.byUser[user]
		if !ok || c.gen != gen {
			c = cachedSited{gen: gen, pts: sitePlaces(user, places, px.cells)}
			px.byUser[user] = c
		}
		all = append(all, c.pts...)
	})
	// Drop cache entries for users no longer in the store (a cluster handoff
	// drops the users it moved away).
	for u := range px.byUser {
		if !seen[u] {
			delete(px.byUser, u)
		}
	}

	out := clusterPopular(all, k, radiusM)
	px.memo.valid = true
	px.memo.ver, px.memo.k, px.memo.radius = ver, k, radiusM
	px.memo.places = out
	return slices.Clone(out)
}

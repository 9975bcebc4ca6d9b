package world

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/geo"
)

// scanTowers is TowersInRange for every operator at once, without the
// coverage index or the cached cosines: the exact test against every tower,
// then the (distance, cell) order.
func scanTowers(w *World, p geo.LatLng) []TowerHit {
	var hits []TowerHit
	for k, t := range w.Towers {
		if d := geo.Distance(t.Pos, p); d <= t.RangeMeters {
			hits = append(hits, TowerHit{t, k, d})
		}
	}
	sort.SliceStable(hits, func(i, j int) bool {
		if hits[i].Dist != hits[j].Dist {
			return hits[i].Dist < hits[j].Dist
		}
		return CompareCellStrings(hits[i].Tower.ID, hits[j].Tower.ID) < 0
	})
	return hits
}

// scanAPs is APsInRange without the coverage index or the cached cosines.
func scanAPs(w *World, p geo.LatLng) []APHit {
	var hits []APHit
	for _, ap := range w.APs {
		if d := geo.Distance(ap.Pos, p); d <= ap.RangeMeters {
			hits = append(hits, APHit{ap, d})
		}
	}
	sort.SliceStable(hits, func(i, j int) bool {
		if hits[i].Dist != hits[j].Dist {
			return hits[i].Dist < hits[j].Dist
		}
		return hits[i].AP.BSSID < hits[j].AP.BSSID
	})
	return hits
}

// coverProbes returns the points the differential test checks on w: 5000
// random points over the bounds grown by a third on every side (so about half
// fall off the grid), 1000 grid corners and 1000 points on cell edges with a
// hair below-left of each, each tower's and AP's position and points just
// inside, on and just outside its range, the bounds' corners and a NaN.
func coverProbes(w *World, r *rand.Rand) []geo.LatLng {
	b := w.Bounds
	padLat, padLng := (b.MaxLat-b.MinLat)/3, (b.MaxLng-b.MinLng)/3
	var ps []geo.LatLng
	for i := 0; i < 5000; i++ {
		ps = append(ps, geo.LatLng{
			Lat: b.MinLat - padLat + r.Float64()*(b.MaxLat-b.MinLat+2*padLat),
			Lng: b.MinLng - padLng + r.Float64()*(b.MaxLng-b.MinLng+2*padLng),
		})
	}
	// Both grids lie over the same bounds, so they share their edges.
	ix := w.towerCover
	for k := 0; k < 2000; k++ {
		i, j := float64(r.Intn(ix.rows+1)), float64(r.Intn(ix.cols+1))
		if k%2 == 1 {
			// Along a row edge, at a random point between two corners.
			j = math.Min(j+r.Float64(), float64(ix.cols))
		}
		lat, lng := ix.minLat+i*ix.dLat, ix.minLng+j*ix.dLng
		ps = append(ps,
			geo.LatLng{Lat: lat, Lng: lng},
			geo.LatLng{Lat: math.Nextafter(lat, -90), Lng: math.Nextafter(lng, -180)},
		)
	}
	edge := func(pos geo.LatLng, rangeM float64) {
		ps = append(ps, pos)
		for k := 0; k < 2; k++ {
			brg := r.Float64() * 360
			ps = append(ps, geo.Offset(pos, brg, rangeM-0.01), geo.Offset(pos, brg, rangeM), geo.Offset(pos, brg, rangeM+0.01))
		}
	}
	for _, t := range w.Towers {
		edge(t.Pos, t.RangeMeters)
	}
	for _, ap := range w.APs {
		edge(ap.Pos, ap.RangeMeters)
	}
	ps = append(ps,
		geo.LatLng{Lat: b.MinLat, Lng: b.MinLng}, geo.LatLng{Lat: b.MaxLat, Lng: b.MaxLng},
		geo.LatLng{Lat: b.MinLat, Lng: b.MaxLng}, geo.LatLng{Lat: b.MaxLat, Lng: b.MinLng},
		geo.LatLng{Lat: math.NaN(), Lng: math.NaN()},
	)
	return ps
}

// operators returns the MNCs of w's towers in first-seen order, then one
// that has no tower.
func operators(w *World) []int {
	var mncs []int
	for _, t := range w.Towers {
		if !slices.Contains(mncs, t.ID.MNC) {
			mncs = append(mncs, t.ID.MNC)
		}
	}
	return append(mncs, slices.Max(mncs)+1)
}

func checkCoverAgainstScan(t *testing.T, name string, w *World, r *rand.Rand) {
	t.Helper()
	var covered int
	mncs := operators(w)
	for _, p := range coverProbes(w, r) {
		all := scanTowers(w, p)
		for _, mnc := range mncs {
			want := slices.DeleteFunc(slices.Clone(all), func(h TowerHit) bool { return h.Tower.ID.MNC != mnc })
			if got := w.TowersInRange(p, mnc); !slices.Equal(got, want) {
				t.Fatalf("%s: TowersInRange(%v, %d) returns %d towers, the scan %d (or another order, index or distance)", name, p, mnc, len(got), len(want))
			}
		}
		got, want := w.APsInRange(p), scanAPs(w, p)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: APsInRange(%v) returns %d APs, the scan %d (or another order or distance)", name, p, len(got), len(want))
		}
		if len(want) > 0 {
			covered++
		}
	}
	// The probes must reach real coverage, or the AP half checks nothing.
	if covered < len(w.APs) {
		t.Fatalf("%s: only %d probes hear an AP", name, covered)
	}
}

// TestCoverIndexMatchesScan: with the coverage index and the cached
// cosines, TowersInRange for each operator and APsInRange return exactly
// what the full scan (filtered to that operator) returns — the same towers
// and APs in the same order, each with the bit-identical distance — on the
// default city, the load harness's city
// (load.DefaultSpec: extent 2600 m, seed 2014) and the study's denser city
// (study.DefaultConfig), before and after AddVenue installs venue APs the
// way the study adds participants' homes and offices. Each city gets 10 000
// random probes over the two rounds.
func TestCoverIndexMatchesScan(t *testing.T) {
	loadCfg := DefaultConfig()
	loadCfg.ExtentMeters = 2600
	studyCfg := DefaultConfig()
	studyCfg.ExtentMeters = 3200
	studyCfg.PublicVenues = 34
	studyCfg.TowerGridMeters = 500
	studyCfg.TowerRangeMeters = 800
	for _, tc := range []struct {
		name string
		cfg  Config
		seed int64
	}{
		{"default", DefaultConfig(), 1},
		{"load", loadCfg, 2014},
		{"study", studyCfg, 2014},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(tc.seed))
			w := Generate(tc.cfg, r)
			checkCoverAgainstScan(t, "before AddVenue", w, r)

			// Homes and offices across the city and a little beyond it,
			// half with WiFi.
			for i := 0; i < 32; i++ {
				ext := tc.cfg.ExtentMeters * 1.1
				pos := geo.Offset(geo.Offset(tc.cfg.Origin, 0, (r.Float64()*2-1)*ext), 90, (r.Float64()*2-1)*ext)
				kind := KindHome
				if i%2 == 1 {
					kind = KindWorkplace
				}
				w.AddVenue(fmt.Sprintf("added-%02d", i), "added", kind, pos, i%4 < 2, tc.cfg, r)
			}
			checkCoverAgainstScan(t, "after AddVenue", w, r)
		})
	}
}

// TestCoverIndexWithoutBounds: a world assembled by hand has no bounds and
// so no grid; every lookup scans the full lists.
func TestCoverIndexWithoutBounds(t *testing.T) {
	tower := &CellTower{ID: CellID{MCC: 1, MNC: 2, LAC: 3, CID: 4}, Pos: geo.LatLng{Lat: 28.6, Lng: 77.2}, RangeMeters: 500}
	w := &World{Towers: []*CellTower{tower}}
	w.Finalize()
	if got := w.TowersInRange(geo.Offset(tower.Pos, 45, 400), 2); len(got) != 1 || got[0].Tower != tower {
		t.Fatalf("TowersInRange on a world without bounds = %v", got)
	}
	if got := w.TowersInRange(geo.Offset(tower.Pos, 45, 400), 3); len(got) != 0 {
		t.Fatalf("TowersInRange for another operator = %v", got)
	}
	if got := w.TowersInRange(geo.Offset(tower.Pos, 45, 600), 2); len(got) != 0 {
		t.Fatalf("TowersInRange out of range = %v", got)
	}
}

// BenchmarkBuildIndexes times index() on the load harness's city: the maps
// and both coverage grids, which Generate and Finalize build once per world.
func BenchmarkBuildIndexes(b *testing.B) {
	cfg := DefaultConfig()
	cfg.ExtentMeters = 2600
	w := Generate(cfg, rand.New(rand.NewSource(2014)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.index()
	}
}

// BenchmarkTowersInRange times one GSM sample's query on the load harness's
// city: operator 10's towers around 1024 random points, in turn.
func BenchmarkTowersInRange(b *testing.B) {
	cfg := DefaultConfig()
	cfg.ExtentMeters = 2600
	r := rand.New(rand.NewSource(2014))
	w := Generate(cfg, r)
	ps := make([]geo.LatLng, 1024)
	for i := range ps {
		ps[i] = randomPointIn(cfg, r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		towerHitsSink = w.TowersInRange(ps[i%len(ps)], 10)
	}
}

var towerHitsSink []TowerHit

// TestCoverIndexListsReachingCells checks add's row-run arithmetic against a
// per-cell test: a tower is listed in every cell whose centre lies within its
// range plus the cell's reach, and in no cell a metre beyond that.
func TestCoverIndexListsReachingCells(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExtentMeters = 2600
	w := Generate(cfg, rand.New(rand.NewSource(2014)))
	ix := w.towerCover
	for _, tw := range w.Towers {
		for i := 0; i < ix.rows; i++ {
			for j := 0; j < ix.cols; j++ {
				d := geo.Distance(tw.Pos, ix.centre(i, j))
				listed := false
				for _, k := range ix.cells[i*ix.cols+j] {
					listed = listed || w.Towers[k] == tw
				}
				if d <= tw.RangeMeters+ix.reach[i] && !listed {
					t.Fatalf("tower %v reaches cell (%d,%d) at %.3f m but is not listed", tw.ID, i, j, d)
				}
				if d > tw.RangeMeters+ix.reach[i]+coverMarginMeters+1 && listed {
					t.Fatalf("tower %v listed in cell (%d,%d) %.3f m away", tw.ID, i, j, d)
				}
			}
		}
	}
}

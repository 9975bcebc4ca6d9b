package world

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geo"
)

func testWorld(t *testing.T, seed int64) (*World, Config) {
	t.Helper()
	cfg := DefaultConfig()
	return Generate(cfg, rand.New(rand.NewSource(seed))), cfg
}

func TestGenerateDeterministic(t *testing.T) {
	w1, _ := testWorld(t, 1)
	w2, _ := testWorld(t, 1)
	if len(w1.Venues) != len(w2.Venues) || len(w1.Towers) != len(w2.Towers) || len(w1.APs) != len(w2.APs) {
		t.Fatal("same seed produced different worlds")
	}
	for i := range w1.Towers {
		if w1.Towers[i].ID != w2.Towers[i].ID || w1.Towers[i].Pos != w2.Towers[i].Pos {
			t.Fatalf("tower %d differs between identical seeds", i)
		}
	}
	for i := range w1.Venues {
		if w1.Venues[i].Center != w2.Venues[i].Center {
			t.Fatalf("venue %d differs between identical seeds", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	w1, _ := testWorld(t, 1)
	w2, _ := testWorld(t, 2)
	same := 0
	for i := range w1.Venues {
		if w1.Venues[i].Center == w2.Venues[i].Center {
			same++
		}
	}
	if same == len(w1.Venues) {
		t.Error("different seeds produced identical venue layouts")
	}
}

func TestGenerateCounts(t *testing.T) {
	w, cfg := testWorld(t, 3)
	if len(w.Venues) != cfg.PublicVenues {
		t.Errorf("venues = %d, want %d", len(w.Venues), cfg.PublicVenues)
	}
	if len(w.Towers) == 0 {
		t.Fatal("no towers generated")
	}
	// Two operators: MNC values 10 and 20 must both appear.
	mncs := map[int]int{}
	layers := map[RadioLayer]int{}
	for _, tw := range w.Towers {
		mncs[tw.ID.MNC]++
		layers[tw.Layer]++
	}
	if len(mncs) != cfg.Operators {
		t.Errorf("operators seen = %d, want %d", len(mncs), cfg.Operators)
	}
	if layers[Layer2G] == 0 || layers[Layer3G] == 0 {
		t.Errorf("expected both radio layers, got %v", layers)
	}
	if layers[Layer3G] >= layers[Layer2G] {
		t.Errorf("3G layer should be sparser than 2G: %v", layers)
	}
}

func TestTowerIDsUnique(t *testing.T) {
	w, _ := testWorld(t, 4)
	seen := map[CellID]bool{}
	for _, tw := range w.Towers {
		if seen[tw.ID] {
			t.Fatalf("duplicate cell id %v", tw.ID)
		}
		seen[tw.ID] = true
	}
}

func TestAPBSSIDsUnique(t *testing.T) {
	w, _ := testWorld(t, 5)
	seen := map[string]bool{}
	for _, ap := range w.APs {
		if seen[ap.BSSID] {
			t.Fatalf("duplicate BSSID %s", ap.BSSID)
		}
		seen[ap.BSSID] = true
	}
}

func TestFullCellCoverage(t *testing.T) {
	// Every point in the extent must be covered by at least one tower of
	// every operator — phones are "anyway connected to the cellular network"
	// (Section 2.2.2).
	w, cfg := testWorld(t, 6)
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		p := randomPointIn(cfg, r)
		for op := 1; op <= cfg.Operators; op++ {
			if len(w.TowersInRange(p, op*10)) == 0 {
				t.Fatalf("no cell coverage of operator %d at %v", op*10, p)
			}
		}
	}
}

func TestOverlappingCellsExist(t *testing.T) {
	// The oscillating effect requires multiple candidate cells of the SIM's
	// operator at most locations.
	w, cfg := testWorld(t, 7)
	r := rand.New(rand.NewSource(100))
	multi := 0
	const samples = 200
	for i := 0; i < samples; i++ {
		p := randomPointIn(cfg, r)
		if len(w.TowersInRange(p, 10)) >= 3 {
			multi++
		}
	}
	if multi < samples*3/4 {
		t.Errorf("only %d/%d sample points see >=3 cells; oscillation model needs overlap", multi, samples)
	}
}

func TestTowersInRangeSortedByDistance(t *testing.T) {
	w, cfg := testWorld(t, 8)
	p := cfg.Origin
	for op := 1; op <= cfg.Operators; op++ {
		hits := w.TowersInRange(p, op*10)
		if len(hits) == 0 {
			t.Fatalf("operator %d has no tower in range of the origin", op*10)
		}
		for i, h := range hits {
			if d := geo.Distance(h.Tower.Pos, p); h.Dist != d {
				t.Fatalf("TowersInRange reports tower %v at %v m, geo.Distance gives %v", h.Tower.ID, h.Dist, d)
			}
			if h.Tower.ID.MNC != op*10 || w.Towers[h.Index] != h.Tower {
				t.Fatalf("TowersInRange(p, %d) reports tower %v at index %d", op*10, h.Tower.ID, h.Index)
			}
			if i > 0 && hits[i-1].Dist > h.Dist {
				t.Fatal("TowersInRange not sorted by distance")
			}
		}
	}
}

func TestVenueLookupAndContains(t *testing.T) {
	w, _ := testWorld(t, 9)
	v := w.Venues[0]
	if got := w.VenueByID(v.ID); got != v {
		t.Errorf("VenueByID(%q) = %v", v.ID, got)
	}
	if w.VenueByID("nope") != nil {
		t.Error("VenueByID on unknown id should be nil")
	}
	if !v.Contains(v.Center) {
		t.Error("venue must contain its own center")
	}
	outside := geo.Offset(v.Center, 0, v.RadiusMeters+10)
	if v.Contains(outside) {
		t.Error("venue should not contain point outside radius")
	}
	if got := w.VenueAt(v.Center); got == nil {
		t.Error("VenueAt(center) returned nil")
	}
}

func TestVenueAtInTransit(t *testing.T) {
	w, cfg := testWorld(t, 10)
	// A point far outside the extent is in no venue.
	far := geo.Offset(cfg.Origin, 0, cfg.ExtentMeters*3)
	if v := w.VenueAt(far); v != nil {
		t.Errorf("VenueAt(far) = %v, want nil", v.ID)
	}
}

func TestVenueAPsBelongToVenue(t *testing.T) {
	w, _ := testWorld(t, 11)
	withWiFi := 0
	for _, v := range w.Venues {
		if !v.HasWiFi {
			if len(v.APs) != 0 {
				t.Errorf("venue %s has no WiFi but %d APs", v.ID, len(v.APs))
			}
			continue
		}
		withWiFi++
		if len(v.APs) == 0 {
			t.Errorf("WiFi venue %s has no APs", v.ID)
		}
		for _, b := range v.APs {
			ap := w.APByBSSID(b)
			if ap == nil {
				t.Fatalf("venue %s references unknown AP %s", v.ID, b)
			}
			if ap.VenueID != v.ID {
				t.Errorf("AP %s owned by %q, referenced by %q", b, ap.VenueID, v.ID)
			}
			// AP must cover the venue center so dwelling agents see it.
			if geo.Distance(ap.Pos, v.Center) > v.RadiusMeters+ap.RangeMeters {
				t.Errorf("AP %s cannot be heard from venue %s center", b, v.ID)
			}
		}
	}
	if withWiFi == 0 {
		t.Error("no WiFi venues generated at 60% fraction")
	}
}

func TestWiFiFractionRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PublicVenues = 200
	cfg.WiFiVenueFraction = 0.6
	w := Generate(cfg, rand.New(rand.NewSource(12)))
	wifi := 0
	eligible := 0
	for _, v := range w.Venues {
		if v.Kind == KindPark {
			continue
		}
		eligible++
		if v.HasWiFi {
			wifi++
		}
	}
	frac := float64(wifi) / float64(eligible)
	if frac < 0.45 || frac > 0.75 {
		t.Errorf("WiFi fraction = %.2f, want ~0.6", frac)
	}
}

func TestAddVenue(t *testing.T) {
	w, cfg := testWorld(t, 13)
	r := rand.New(rand.NewSource(77))
	pos := geo.Offset(cfg.Origin, 45, 500)
	before := len(w.APs)
	v := w.AddVenue("home-u1", "Home of u1", KindHome, pos, true, cfg, r)
	if w.VenueByID("home-u1") != v {
		t.Fatal("AddVenue did not index the venue")
	}
	if len(v.APs) == 0 || len(w.APs) == before {
		t.Error("AddVenue with WiFi installed no APs")
	}
	if w.VenueAt(pos) != v && !v.Contains(pos) {
		t.Error("added venue not found at its position")
	}
}

func TestPathDeterministicAndConnected(t *testing.T) {
	w, cfg := testWorld(t, 14)
	a := cfg.Origin
	b := geo.Offset(a, 60, 2500)
	p1 := w.Path(a, b)
	p2 := w.Path(a, b)
	if len(p1) != len(p2) {
		t.Fatal("same trip produced different paths")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same trip produced different paths")
		}
	}
	if p1[0] != a || p1[len(p1)-1] != b {
		t.Error("path endpoints wrong")
	}
	// Manhattan path should be at least as long as the crow-flies distance
	// and not absurdly longer.
	direct := geo.Distance(a, b)
	if l := p1.Length(); l < direct || l > direct*2 {
		t.Errorf("path length %.0f vs direct %.0f out of expected band", l, direct)
	}
}

func TestPathReverseSharesStreets(t *testing.T) {
	w, cfg := testWorld(t, 15)
	a := cfg.Origin
	b := geo.Offset(a, 120, 1800)
	fwd := w.Path(a, b)
	rev := w.Path(b, a)
	if len(fwd) != len(rev) {
		t.Fatalf("reverse path length differs: %d vs %d", len(fwd), len(rev))
	}
	for i := range fwd {
		if fwd[i] != rev[len(rev)-1-i] {
			t.Fatal("reverse path is not the forward path reversed")
		}
	}
}

func TestVenueKindString(t *testing.T) {
	if KindHome.String() != "home" || KindAcademic.String() != "academic" {
		t.Error("kind names wrong")
	}
	if VenueKind(999).String() != "unknown" {
		t.Error("unknown kind should stringify to unknown")
	}
	if len(AllVenueKinds()) != 12 {
		t.Errorf("AllVenueKinds = %d entries", len(AllVenueKinds()))
	}
}

func TestRadioLayerString(t *testing.T) {
	if Layer2G.String() != "2G" || Layer3G.String() != "3G" || RadioLayer(0).String() != "unknown" {
		t.Error("radio layer names wrong")
	}
}

func TestCellIDString(t *testing.T) {
	id := CellID{MCC: 404, MNC: 10, LAC: 101, CID: 12345}
	if got := id.String(); got != "404-10-101-12345" {
		t.Errorf("CellID.String() = %q", got)
	}
}

func TestBoundsCoverVenues(t *testing.T) {
	w, _ := testWorld(t, 16)
	for _, v := range w.Venues {
		if !w.Bounds.Contains(v.Center) {
			t.Errorf("venue %s at %v outside world bounds", v.ID, v.Center)
		}
	}
}

func TestVenueAtPrefersClosestCenter(t *testing.T) {
	// Two overlapping venues: the one whose center is nearer wins.
	w := &World{}
	a := &Venue{ID: "a", Kind: KindMall, Center: geo.LatLng{Lat: 28.6, Lng: 77.2}, RadiusMeters: 200}
	b := &Venue{ID: "b", Kind: KindCafe, Center: geo.Offset(a.Center, 90, 150), RadiusMeters: 200}
	w.Venues = []*Venue{a, b}
	w.Finalize()

	nearA := geo.Offset(a.Center, 90, 10)
	if got := w.VenueAt(nearA); got == nil || got.ID != "a" {
		t.Errorf("VenueAt near a = %v", got)
	}
	nearB := geo.Offset(b.Center, 90, 10)
	if got := w.VenueAt(nearB); got == nil || got.ID != "b" {
		t.Errorf("VenueAt near b = %v", got)
	}
}

func TestFinalizeIndexesManualWorld(t *testing.T) {
	w := &World{
		Venues: []*Venue{{ID: "v1", Kind: KindPark, Center: geo.LatLng{Lat: 28.6, Lng: 77.2}, RadiusMeters: 50}},
		Towers: []*CellTower{{ID: CellID{MCC: 1, MNC: 2, LAC: 3, CID: 4}, Pos: geo.LatLng{Lat: 28.6, Lng: 77.2}, RangeMeters: 500, Layer: Layer2G}},
		APs:    []*AccessPoint{{BSSID: "aa", Pos: geo.LatLng{Lat: 28.6, Lng: 77.2}, RangeMeters: 50}},
	}
	w.Finalize()
	if w.VenueByID("v1") == nil || w.TowerByID(CellID{MCC: 1, MNC: 2, LAC: 3, CID: 4}) == nil || w.APByBSSID("aa") == nil {
		t.Error("Finalize did not index")
	}
	// Path works on a manual world too.
	p := w.Path(geo.LatLng{Lat: 28.6, Lng: 77.2}, geo.LatLng{Lat: 28.61, Lng: 77.21})
	if len(p) < 2 {
		t.Error("Path on manual world failed")
	}
}

// TestCompareCellStringsMatchesString pins the allocation-free comparator to
// the order of the rendered strings, over random cells whose fields mix
// signs and digit counts (so "10-…" against "9-…" and "-1-…" against "1-…"
// all occur).
func TestCompareCellStringsMatchesString(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	field := func() int {
		switch r.Intn(4) {
		case 0:
			return r.Intn(10)
		case 1:
			return r.Intn(100000)
		case 2:
			return -r.Intn(1000)
		default:
			return int(r.Int63()) - int(r.Int63())
		}
	}
	cell := func() CellID { return CellID{MCC: field(), MNC: field(), LAC: field(), CID: field()} }
	sign := func(x int) int { return min(max(x, -1), 1) }
	for i := 0; i < 20000; i++ {
		a, b := cell(), cell()
		if i%5 == 0 {
			b = a
			b.CID = field()
		}
		want := strings.Compare(a.String(), b.String())
		if got := sign(CompareCellStrings(a, b)); got != want {
			t.Fatalf("CompareCellStrings(%v, %v) = %d, want %d", a, b, got, want)
		}
	}
	// The widest rendering fills the comparator's stack arrays exactly.
	extreme := CellID{MCC: math.MinInt, MNC: math.MinInt, LAC: math.MinInt, CID: math.MinInt}
	for _, b := range []CellID{extreme, {MCC: math.MinInt, MNC: math.MinInt, LAC: math.MinInt, CID: math.MaxInt}} {
		if got, want := sign(CompareCellStrings(extreme, b)), strings.Compare(extreme.String(), b.String()); got != want {
			t.Fatalf("CompareCellStrings(%v, %v) = %d, want %d", extreme, b, got, want)
		}
	}
	a, b := cell(), cell()
	if n := testing.AllocsPerRun(100, func() { CompareCellStrings(a, b) }); n != 0 {
		t.Fatalf("CompareCellStrings allocates %.1f times per call", n)
	}
}

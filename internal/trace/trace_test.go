package trace

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/simclock"
	"repro/internal/world"
)

type fixture struct {
	w  *world.World
	a  *mobility.Agent
	it *mobility.Itinerary
}

func newFixture(t *testing.T, seed int64, days int) *fixture {
	t.Helper()
	cfg := world.DefaultConfig()
	r := rand.New(rand.NewSource(seed))
	w := world.Generate(cfg, r)
	home := w.AddVenue("home", "Home", world.KindHome, geo.Offset(cfg.Origin, 200, 1800), true, cfg, r)
	work := w.AddVenue("work", "Office", world.KindWorkplace, geo.Offset(cfg.Origin, 45, 2600), true, cfg, r)
	a := &mobility.Agent{ID: "u1", Home: home, Work: work, SpeedMPS: 7}
	for _, v := range w.Venues {
		if v.Kind != world.KindHome && v.Kind != world.KindWorkplace {
			a.Haunts = append(a.Haunts, v)
		}
	}
	it, err := mobility.BuildItinerary(a, w, simclock.Epoch, days, mobility.DefaultScheduleConfig(), rand.New(rand.NewSource(seed+1)))
	if err != nil {
		t.Fatalf("BuildItinerary: %v", err)
	}
	return &fixture{w: w, a: a, it: it}
}

func newSensors(f *fixture, seed int64) *Sensors {
	return NewSensors(f.w, f.it, DefaultConfig(), rand.New(rand.NewSource(seed)))
}

func TestGSMAlwaysServed(t *testing.T) {
	f := newFixture(t, 1, 2)
	s := newSensors(f, 2)
	obs := s.CollectGSM(f.it.Start, f.it.End, time.Minute)
	if len(obs) == 0 {
		t.Fatal("no observations")
	}
	for _, o := range obs {
		if o.Cell == (world.CellID{}) {
			t.Fatalf("unserved observation at %v", o.At)
		}
		if o.Cell.MNC != DefaultConfig().MNC {
			t.Fatalf("served by foreign operator MNC %d", o.Cell.MNC)
		}
	}
}

func TestGSMOscillationWhileStationary(t *testing.T) {
	// A stationary night at home must still show cell transitions — the
	// oscillating effect GCA exists to absorb.
	f := newFixture(t, 3, 1)
	s := newSensors(f, 4)
	night0 := simclock.Epoch
	night1 := simclock.Epoch.Add(6 * time.Hour)
	obs := s.CollectGSM(night0, night1, time.Minute)

	transitions := 0
	distinct := map[world.CellID]bool{}
	for i, o := range obs {
		distinct[o.Cell] = true
		if i > 0 && obs[i-1].Cell != o.Cell {
			transitions++
		}
	}
	if len(distinct) < 2 {
		t.Error("no oscillation: a single cell served the whole night")
	}
	if transitions == 0 {
		t.Error("no cell transitions while stationary")
	}
	// But oscillation must be bounded: the phone should not visit dozens of
	// cells from one spot.
	if len(distinct) > 12 {
		t.Errorf("stationary night saw %d distinct cells; oscillation too wild", len(distinct))
	}
}

func TestGSMHysteresisLimitsChurn(t *testing.T) {
	f := newFixture(t, 5, 1)
	cfg := DefaultConfig()

	churn := func(hysteresis float64) int {
		cfg.HysteresisDB = hysteresis
		s := NewSensors(f.w, f.it, cfg, rand.New(rand.NewSource(6)))
		obs := s.CollectGSM(simclock.Epoch, simclock.Epoch.Add(4*time.Hour), time.Minute)
		n := 0
		for i := 1; i < len(obs); i++ {
			if obs[i].Cell != obs[i-1].Cell {
				n++
			}
		}
		return n
	}
	if noHyst, withHyst := churn(0), churn(8); withHyst >= noHyst {
		t.Errorf("hysteresis did not reduce churn: %d vs %d", withHyst, noHyst)
	}
}

func TestGSMMovingChangesCells(t *testing.T) {
	f := newFixture(t, 7, 2)
	s := newSensors(f, 8)
	// Sample across the first full day: commuting must traverse cells that
	// the home location never sees.
	obs := s.CollectGSM(simclock.Epoch, simclock.Epoch.Add(24*time.Hour), time.Minute)
	cells := map[world.CellID]bool{}
	for _, o := range obs {
		cells[o.Cell] = true
	}
	if len(cells) < 4 {
		t.Errorf("a commuting day saw only %d distinct cells", len(cells))
	}
}

func TestWiFiScanAtWiFiVenue(t *testing.T) {
	f := newFixture(t, 9, 1)
	s := newSensors(f, 10)
	// 3 AM: at home, which has WiFi.
	at := simclock.Epoch.Add(3 * time.Hour)
	heardHome := false
	for i := 0; i < 10; i++ {
		scan := s.SampleWiFi(at.Add(time.Duration(i) * time.Minute))
		for _, ap := range scan.APs {
			if got := f.w.APByBSSID(ap.BSSID); got != nil && got.VenueID == "home" {
				heardHome = true
			}
			if ap.RSSIDBM > -20 || ap.RSSIDBM < -95 {
				t.Errorf("implausible RSSI %.1f", ap.RSSIDBM)
			}
		}
	}
	if !heardHome {
		t.Error("ten scans at home never heard the home AP")
	}
}

func TestWiFiScansVary(t *testing.T) {
	f := newFixture(t, 11, 1)
	s := newSensors(f, 12)
	at := simclock.Epoch.Add(2 * time.Hour)
	sizes := map[int]bool{}
	for i := 0; i < 30; i++ {
		scan := s.SampleWiFi(at)
		sizes[len(scan.APs)] = true
	}
	if len(sizes) < 2 {
		t.Error("30 scans at the same spot returned identical AP counts; dropout model inert")
	}
}

func TestGPSOutdoorAccuracy(t *testing.T) {
	f := newFixture(t, 13, 2)
	s := newSensors(f, 14)
	// Find a trip and sample mid-trip (outdoors).
	if len(f.it.Trips) == 0 {
		t.Fatal("no trips")
	}
	tr := f.it.Trips[0]
	mid := tr.Start.Add(tr.Duration() / 2)
	truth := f.it.PositionAt(mid)
	var errs []float64
	for i := 0; i < 100; i++ {
		fix := s.SampleGPS(mid)
		if !fix.Valid {
			t.Fatal("outdoor fix failed")
		}
		errs = append(errs, geo.Distance(fix.Pos, truth))
	}
	mean := 0.0
	for _, e := range errs {
		mean += e
	}
	mean /= float64(len(errs))
	if mean > 3*DefaultConfig().GPSOutdoorAccuracyM {
		t.Errorf("mean outdoor GPS error %.1f m too large", mean)
	}
}

func TestGPSIndoorDegraded(t *testing.T) {
	f := newFixture(t, 15, 1)
	s := newSensors(f, 16)
	at := simclock.Epoch.Add(3 * time.Hour) // home, indoors
	denied := 0
	var worst float64
	for i := 0; i < 200; i++ {
		fix := s.SampleGPS(at)
		if !fix.Valid {
			denied++
			continue
		}
		if fix.AccuracyMeters != DefaultConfig().GPSIndoorAccuracyM {
			t.Fatalf("indoor accuracy = %v", fix.AccuracyMeters)
		}
		if e := geo.Distance(fix.Pos, f.it.PositionAt(at)); e > worst {
			worst = e
		}
	}
	if denied == 0 {
		t.Error("no indoor GPS denials in 200 samples at 25% denial prob")
	}
	if denied == 200 {
		t.Error("all indoor fixes denied")
	}
	if worst < DefaultConfig().GPSOutdoorAccuracyM {
		t.Error("indoor fixes suspiciously precise")
	}
}

func TestActivityTracksMotionWithBoundedError(t *testing.T) {
	f := newFixture(t, 17, 2)
	s := newSensors(f, 18)
	total, wrong := 0, 0
	for ts := f.it.Start; ts.Before(f.it.End); ts = ts.Add(time.Minute) {
		got := s.SampleActivity(ts)
		if got.Moving != f.it.Moving(ts) {
			wrong++
		}
		total++
	}
	rate := float64(wrong) / float64(total)
	if rate < 0.01 || rate > 0.10 {
		t.Errorf("activity error rate %.3f outside [0.01, 0.10]", rate)
	}
}

func TestBluetoothProximity(t *testing.T) {
	f := newFixture(t, 19, 1)
	s := newSensors(f, 20)
	at := simclock.Epoch.Add(3 * time.Hour)
	myPos := f.it.PositionAt(at)

	near := func(time.Time) geo.LatLng { return geo.Offset(myPos, 90, 5) }
	far := func(time.Time) geo.LatLng { return geo.Offset(myPos, 90, 500) }
	got := s.SampleBluetooth(at, map[string]PositionFunc{"near": near, "far": far})
	if len(got) != 1 || got[0] != "near" {
		t.Errorf("SampleBluetooth = %v, want [near]", got)
	}
}

func TestCollectGPSFiltersInvalid(t *testing.T) {
	f := newFixture(t, 21, 1)
	s := newSensors(f, 22)
	fixes := s.CollectGPS(simclock.Epoch, simclock.Epoch.Add(4*time.Hour), time.Minute)
	for _, fx := range fixes {
		if !fx.Valid {
			t.Fatal("CollectGPS returned invalid fix")
		}
	}
	if len(fixes) == 240 {
		t.Error("expected some denied indoor fixes to be dropped")
	}
}

func TestTraceDeterminism(t *testing.T) {
	f := newFixture(t, 23, 1)
	s1 := newSensors(f, 24)
	s2 := newSensors(f, 24)
	o1 := s1.CollectGSM(f.it.Start, f.it.Start.Add(2*time.Hour), time.Minute)
	o2 := s2.CollectGSM(f.it.Start, f.it.Start.Add(2*time.Hour), time.Minute)
	for i := range o1 {
		if o1[i].Cell != o2[i].Cell {
			t.Fatal("same seed produced different GSM traces")
		}
	}
}

func TestWiFiScanBSSIDs(t *testing.T) {
	scan := WiFiScan{APs: []WiFiReading{{BSSID: "a"}, {BSSID: "b"}}}
	got := scan.BSSIDs()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("BSSIDs = %v", got)
	}
}

func TestPathLossMonotone(t *testing.T) {
	prev := math.Inf(1)
	for _, d := range []float64{1, 10, 50, 100, 500, 1000} {
		v := pathLossDBM(d)
		if v >= prev {
			t.Fatalf("path loss not decreasing at %.0f m", d)
		}
		prev = v
	}
	if pathLossDBM(0.5) != pathLossDBM(1) {
		t.Error("sub-meter distances should clamp")
	}
}

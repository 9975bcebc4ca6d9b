package mobility

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/simclock"
	"repro/internal/world"
)

// fixture builds a world with one agent having a home, work, and a set of
// haunts of every weekend/errand kind.
func fixture(t *testing.T, seed int64) (*world.World, *Agent) {
	t.Helper()
	cfg := world.DefaultConfig()
	r := rand.New(rand.NewSource(seed))
	w := world.Generate(cfg, r)

	home := w.AddVenue("home-a", "Home", world.KindHome,
		geo.Offset(cfg.Origin, 200, 2000), true, cfg, r)
	work := w.AddVenue("work-a", "Office", world.KindWorkplace,
		geo.Offset(cfg.Origin, 40, 2500), true, cfg, r)

	a := &Agent{ID: "agent-a", Home: home, Work: work, SpeedMPS: 7}
	for _, v := range w.Venues {
		switch v.Kind {
		case world.KindHome, world.KindWorkplace:
		default:
			a.Haunts = append(a.Haunts, v)
		}
	}
	return w, a
}

func buildIt(t *testing.T, seed int64, days int) (*world.World, *Agent, *Itinerary) {
	t.Helper()
	w, a := fixture(t, seed)
	it, err := BuildItinerary(a, w, simclock.Epoch, days, DefaultScheduleConfig(), rand.New(rand.NewSource(seed+1000)))
	if err != nil {
		t.Fatalf("BuildItinerary: %v", err)
	}
	return w, a, it
}

func TestBuildItineraryRequiresHome(t *testing.T) {
	w, _ := fixture(t, 1)
	_, err := BuildItinerary(&Agent{ID: "x"}, w, simclock.Epoch, 1, DefaultScheduleConfig(), rand.New(rand.NewSource(1)))
	if err == nil {
		t.Fatal("expected error for agent without home")
	}
}

func TestItineraryContinuity(t *testing.T) {
	_, _, it := buildIt(t, 2, 14)
	if len(it.segments) == 0 {
		t.Fatal("no segments")
	}
	if !it.segments[0].start.Equal(it.Start) {
		t.Errorf("first segment starts at %v, want %v", it.segments[0].start, it.Start)
	}
	for i := 1; i < len(it.segments); i++ {
		if !it.segments[i].start.Equal(it.segments[i-1].end) {
			t.Fatalf("segment %d gap: prev ends %v, next starts %v",
				i, it.segments[i-1].end, it.segments[i].start)
		}
	}
	last := it.segments[len(it.segments)-1]
	if !last.end.Equal(it.End) {
		t.Errorf("last segment ends at %v, want %v", last.end, it.End)
	}
}

func TestSegmentsWellFormed(t *testing.T) {
	_, _, it := buildIt(t, 3, 14)
	for i, s := range it.segments {
		if !s.end.After(s.start) {
			t.Fatalf("segment %d has non-positive duration", i)
		}
		if (s.venue == nil) == (s.path == nil) {
			t.Fatalf("segment %d must be exactly one of dwell or move", i)
		}
	}
}

func TestWorkdayRoutine(t *testing.T) {
	_, a, it := buildIt(t, 4, 5) // Mon-Fri
	// The agent must visit work every weekday.
	workDays := map[string]bool{}
	for _, v := range it.Visits {
		if v.VenueID == a.Work.ID && v.Duration() > 2*time.Hour {
			workDays[v.Arrive.Format("2006-01-02")] = true
		}
	}
	if len(workDays) != 5 {
		t.Errorf("agent worked %d days, want 5", len(workDays))
	}
	// Overnight at home: position at 3 AM each day is home.
	for d := 0; d < 5; d++ {
		at3am := simclock.Epoch.AddDate(0, 0, d).Add(3 * time.Hour)
		if v := it.VenueAt(at3am); v == nil || v.ID != a.Home.ID {
			t.Errorf("day %d 3AM: agent not at home (at %v)", d, v)
		}
	}
}

func TestWeekendDiffersFromWorkday(t *testing.T) {
	_, a, it := buildIt(t, 5, 14)
	for _, v := range it.Visits {
		if v.VenueID == a.Work.ID && isWeekend(v.Arrive) && v.Duration() > time.Hour {
			t.Errorf("long work visit on weekend at %v", v.Arrive)
		}
	}
	// Weekends must include at least one non-home outing across two weeks.
	outings := 0
	for _, v := range it.Visits {
		if isWeekend(v.Arrive) && v.VenueID != a.Home.ID && v.Duration() >= 30*time.Minute {
			outings++
		}
	}
	if outings == 0 {
		t.Error("no weekend outings in two weeks")
	}
}

func TestPositionDuringDwellInsideVenue(t *testing.T) {
	w, _, it := buildIt(t, 6, 3)
	probe := simclock.Epoch
	for probe.Before(it.End) {
		if v := it.VenueAt(probe); v != nil {
			p := it.PositionAt(probe)
			if d := geo.Distance(v.Center, p); d > v.RadiusMeters {
				t.Fatalf("at %v agent is %.1f m from %s center (radius %.1f)", probe, d, v.ID, v.RadiusMeters)
			}
			if got := w.VenueAt(p); got == nil {
				t.Fatalf("dwelling position %v resolves to no venue", p)
			}
		}
		probe = probe.Add(17 * time.Minute)
	}
}

func TestPositionDuringTripOnPath(t *testing.T) {
	_, _, it := buildIt(t, 7, 3)
	if len(it.Trips) == 0 {
		t.Fatal("no trips")
	}
	tr := it.Trips[0]
	mid := tr.Start.Add(tr.Duration() / 2)
	p := it.PositionAt(mid)
	if d := tr.Path.DistanceToPoint(p); d > 50 {
		t.Errorf("mid-trip position %.1f m off path", d)
	}
	if !it.Moving(mid) {
		t.Error("Moving false mid-trip")
	}
	if it.Moving(tr.Start.Add(-time.Minute)) && it.VenueAt(tr.Start.Add(-time.Minute)) == nil {
		t.Error("expected dwell just before trip")
	}
}

func TestPositionClampsOutsideItinerary(t *testing.T) {
	_, a, it := buildIt(t, 8, 2)
	before := it.PositionAt(it.Start.Add(-time.Hour))
	after := it.PositionAt(it.End.Add(time.Hour))
	if d := geo.Distance(before, a.Home.Center); d > a.Home.RadiusMeters {
		t.Errorf("pre-start position %.1f m from home", d)
	}
	if d := geo.Distance(after, a.Home.Center); d > a.Home.RadiusMeters {
		t.Errorf("post-end position %.1f m from home", d)
	}
}

func TestDeterminism(t *testing.T) {
	_, _, it1 := buildIt(t, 9, 7)
	_, _, it2 := buildIt(t, 9, 7)
	if len(it1.Visits) != len(it2.Visits) {
		t.Fatalf("visit counts differ: %d vs %d", len(it1.Visits), len(it2.Visits))
	}
	for i := range it1.Visits {
		if it1.Visits[i] != it2.Visits[i] {
			t.Fatalf("visit %d differs", i)
		}
	}
	probe := simclock.Epoch.Add(13 * time.Hour)
	if it1.PositionAt(probe) != it2.PositionAt(probe) {
		t.Error("positions differ between identical builds")
	}
}

func TestSignificantVisitsFilter(t *testing.T) {
	_, _, it := buildIt(t, 10, 14)
	all := len(it.Visits)
	sig := len(it.SignificantVisits(10 * time.Minute))
	if sig == 0 {
		t.Fatal("no significant visits in two weeks")
	}
	if sig > all {
		t.Fatal("filter grew the set")
	}
	for _, v := range it.SignificantVisits(10 * time.Minute) {
		if v.Duration() < 10*time.Minute {
			t.Fatalf("visit %v shorter than threshold", v)
		}
	}
}

func TestVisitedVenueIDsDistinct(t *testing.T) {
	_, _, it := buildIt(t, 11, 14)
	ids := it.VisitedVenueIDs(10 * time.Minute)
	if len(ids) < 3 {
		t.Errorf("agent visited only %d distinct venues in 2 weeks", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

func TestTripsConnectVisits(t *testing.T) {
	_, _, it := buildIt(t, 12, 7)
	for i, tr := range it.Trips {
		if tr.Path.Length() == 0 {
			t.Fatalf("trip %d has empty path", i)
		}
		if !tr.End.After(tr.Start) {
			t.Fatalf("trip %d non-positive duration", i)
		}
		if tr.FromVenueID == tr.ToVenueID {
			t.Fatalf("trip %d is a self-loop (%s)", i, tr.FromVenueID)
		}
	}
}

func TestDwellJitterIsDeterministicAndSlow(t *testing.T) {
	w, _ := fixture(t, 13)
	v := w.Venues[0]
	t0 := simclock.Epoch.Add(10 * time.Hour)
	p1 := dwellJitter(v, "x", jitterBucket(t0))
	p2 := dwellJitter(v, "x", jitterBucket(t0))
	if p1 != p2 {
		t.Error("dwell jitter not deterministic")
	}
	// Within the same 5-minute bucket the position is stable.
	p3 := dwellJitter(v, "x", jitterBucket(t0.Add(time.Minute)))
	if p1 != p3 {
		t.Error("dwell position changed within a 5-minute bucket")
	}
	// Different agents occupy different spots.
	if dwellJitter(v, "y", jitterBucket(t0)) == p1 {
		t.Error("different agents share identical jitter")
	}
}

// TestPositionAtMatchesUntabulatedJitter: the per-segment jitter tables are
// a cache only. Every dwell position PositionAt returns, at each 37 s step
// from an hour before the itinerary to an hour after it (so steps land at
// every offset within a bucket, and on the clamped ends), equals a fresh
// dwellJitter for that venue, agent and bucket. Four goroutines read the one
// itinerary at once, as other participants' Bluetooth sensors do.
func TestPositionAtMatchesUntabulatedJitter(t *testing.T) {
	_, a, it := buildIt(t, 15, 5)
	const readers = 4
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for at := it.Start.Add(-time.Hour + time.Duration(r)*37*time.Second); at.Before(it.End.Add(time.Hour)); at = at.Add(readers * 37 * time.Second) {
				v := it.VenueAt(at)
				if v == nil {
					continue
				}
				if got, want := it.PositionAt(at), dwellJitter(v, a.ID, jitterBucket(at)); got != want {
					t.Errorf("PositionAt(%v) at %s = %v, dwellJitter gives %v", at, v.ID, got, want)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestNoWorkAgent(t *testing.T) {
	w, a := fixture(t, 14)
	a.Work = nil
	it, err := BuildItinerary(a, w, simclock.Epoch, 7, DefaultScheduleConfig(), rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatalf("BuildItinerary: %v", err)
	}
	// Still continuous and ends at home.
	if v := it.VenueAt(it.End.Add(-time.Minute)); v == nil || v.ID != a.Home.ID {
		t.Error("workless agent should still sleep at home")
	}
}

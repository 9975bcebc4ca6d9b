package cloud

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/profile"
	"repro/internal/simclock"
	"repro/internal/world"
)

// The serving micro-benchmarks (DESIGN.md §9): each pair
// measures one analytics hot path as the pre-index baseline (the scan*
// reference: deep-copy the history, rescan it) against the serving path (the
// incremental index read under the shard lock). Same store, same 365-day
// user, same answers — the property test holds them byte-identical. Run with:
//
//	go test ./internal/cloud -run '^$' -bench Serving -benchmem

// servingStore seeds one user with a year of daily routine: home overnight
// (split at midnight), work on weekdays, mall on Saturdays.
func servingStore(b *testing.B) *Store {
	b.Helper()
	s := NewStore(fixedNow(simclock.Epoch))
	u := "u-serving"
	for d := 0; d < 365; d++ {
		day := simclock.Epoch.AddDate(0, 0, d)
		p := &profile.DayProfile{UserID: u, Date: day.Format(profile.DateFormat)}
		switch day.Weekday() {
		case time.Saturday:
			p.Places = append(p.Places,
				profile.PlaceVisit{PlaceID: "home", Label: "home", Arrive: day, Depart: day.Add(13 * time.Hour)},
				profile.PlaceVisit{PlaceID: "mall", Label: "mall", Arrive: day.Add(14 * time.Hour), Depart: day.Add(17 * time.Hour)},
				profile.PlaceVisit{PlaceID: "home", Label: "home", Arrive: day.Add(18 * time.Hour), Depart: day.Add(24 * time.Hour)},
			)
		case time.Sunday:
			p.Places = append(p.Places,
				profile.PlaceVisit{PlaceID: "home", Label: "home", Arrive: day, Depart: day.Add(24 * time.Hour)},
			)
		default:
			arrive := day.Add(9*time.Hour + time.Duration(d%20)*time.Minute)
			p.Places = append(p.Places,
				profile.PlaceVisit{PlaceID: "home", Label: "home", Arrive: day, Depart: arrive.Add(-30 * time.Minute)},
				profile.PlaceVisit{PlaceID: "work", Label: "work", Arrive: arrive, Depart: day.Add(18 * time.Hour)},
				profile.PlaceVisit{PlaceID: "home", Label: "home", Arrive: day.Add(19 * time.Hour), Depart: day.Add(24 * time.Hour)},
			)
		}
		if err := s.PutProfile(u, p); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func BenchmarkServingTypicalArrivalScan(b *testing.B) {
	a := NewAnalytics(servingStore(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, n := a.scanTypicalArrival("u-serving", "work"); n == 0 {
			b.Fatal("no arrivals")
		}
	}
}

func BenchmarkServingTypicalArrivalIndexed(b *testing.B) {
	a := NewAnalytics(servingStore(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, n := a.TypicalArrival("u-serving", "work"); n == 0 {
			b.Fatal("no arrivals")
		}
	}
}

func BenchmarkServingDwellStatsScan(b *testing.B) {
	a := NewAnalytics(servingStore(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := a.scanDwellStats("u-serving", "home"); r.Visits == 0 {
			b.Fatal("no stays")
		}
	}
}

func BenchmarkServingDwellStatsIndexed(b *testing.B) {
	a := NewAnalytics(servingStore(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := a.DwellStats("u-serving", "home"); r.Visits == 0 {
			b.Fatal("no stays")
		}
	}
}

// popularStore populates 200 users with geolocated places for the cross-user
// aggregate.
func popularStore(b *testing.B) (*Store, *CellDatabase) {
	b.Helper()
	w := world.Generate(world.DefaultConfig(), rand.New(rand.NewSource(91)))
	cells := NewCellDatabase(w, 100)
	s := NewStore(fixedNow(simclock.Epoch))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		ps := make([]PlaceWire, 3)
		for j := range ps {
			ps[j] = placeAtTower(w, rng.Intn(len(w.Towers)), "spot")
			ps[j].ID = j
		}
		if err := s.SetPlaces(fmt.Sprintf("u%03d", i), ps); err != nil {
			b.Fatal(err)
		}
	}
	return s, cells
}

func BenchmarkServingPopularPlacesScan(b *testing.B) {
	s, cells := popularStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := PopularPlaces(s, cells, 3, 400); len(out) == 0 {
			b.Fatal("no clusters")
		}
	}
}

func BenchmarkServingPopularPlacesIndexed(b *testing.B) {
	s, cells := popularStore(b)
	px := NewPopularIndex(s, cells)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := px.Places(3, 400); len(out) == 0 {
			b.Fatal("no clusters")
		}
	}
}

// BenchmarkServingProfileRangeWindow reads a one-week window out of the
// 365-day history — the binary-searched date index should make this cost the
// window, not the year.
func BenchmarkServingProfileRangeWindow(b *testing.B) {
	s := servingStore(b)
	from := simclock.Epoch.AddDate(0, 0, 100).Format(profile.DateFormat)
	to := simclock.Epoch.AddDate(0, 0, 106).Format(profile.DateFormat)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.ProfileRange("u-serving", from, to); len(got) != 7 {
			b.Fatalf("window = %d days", len(got))
		}
	}
}

package mobility

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/world"
)

// ScheduleConfig tunes the daily-routine generator. Zero value is not useful;
// start from DefaultScheduleConfig.
type ScheduleConfig struct {
	// WorkStartHour / WorkEndHour bound the nominal office day; actual times
	// jitter around them.
	WorkStartHour float64
	WorkEndHour   float64
	// LunchOutProb is the chance of a lunch trip to a nearby restaurant/cafe
	// on a workday.
	LunchOutProb float64
	// EveningErrandProb is the chance of a stop (market/gym/…) on the way
	// home.
	EveningErrandProb float64
	// WeekendOutings is the maximum number of weekend outings per day
	// (uniform 1..WeekendOutings).
	WeekendOutings int
	// ShortStopProb is the chance a trip includes a brief (<10 min) stop
	// that should NOT count as a place.
	ShortStopProb float64
	// SpeedMPS is the agent's travel speed.
	SpeedMPS float64
}

// DefaultScheduleConfig returns the routine used by the deployment study.
func DefaultScheduleConfig() ScheduleConfig {
	return ScheduleConfig{
		WorkStartHour:     9.0,
		WorkEndHour:       18.0,
		LunchOutProb:      0.35,
		EveningErrandProb: 0.45,
		WeekendOutings:    3,
		ShortStopProb:     0.15,
		SpeedMPS:          7.0, // ~25 km/h urban traffic
	}
}

// BuildItinerary simulates the agent's life for `days` days starting at
// `start` (which should be midnight) and returns the ground-truth itinerary.
// Determinism: same agent, world, start, days, config, and RNG state produce
// the identical itinerary.
func BuildItinerary(a *Agent, w *world.World, start time.Time, days int, cfg ScheduleConfig, r *rand.Rand) (*Itinerary, error) {
	if a.Home == nil {
		return nil, fmt.Errorf("mobility: agent %s has no home venue", a.ID)
	}
	if a.SpeedMPS <= 0 {
		a.SpeedMPS = cfg.SpeedMPS
	}
	b := &builder{
		it:    &Itinerary{AgentID: a.ID, Start: start, End: start.AddDate(0, 0, days)},
		agent: a,
		world: w,
		cfg:   cfg,
		r:     r,
		now:   start,
		at:    a.Home,
	}

	for d := 0; d < days; d++ {
		day := start.AddDate(0, 0, d)
		if isWeekend(day) {
			b.weekend(day)
		} else {
			b.workday(day)
		}
	}
	b.closeDwell(b.it.End)
	b.it.fillJitter()
	return b.it, nil
}

func isWeekend(t time.Time) bool {
	wd := t.Weekday()
	return wd == time.Saturday || wd == time.Sunday
}

// builder walks forward in time emitting dwell and move segments.
type builder struct {
	it    *Itinerary
	agent *Agent
	world *world.World
	cfg   ScheduleConfig
	r     *rand.Rand

	now       time.Time
	at        *world.Venue // current dwell venue
	dwellFrom time.Time    // when the current dwell began
}

// hourOf returns the absolute time for a fractional hour of the given day.
func hourOf(day time.Time, h float64) time.Time {
	return day.Add(time.Duration(h * float64(time.Hour)))
}

// jitterH returns h +/- spread hours.
func (b *builder) jitterH(h, spread float64) float64 {
	return h + (b.r.Float64()*2-1)*spread
}

func (b *builder) workday(day time.Time) {
	if b.agent.Work == nil {
		b.weekend(day) // agents without a workplace treat every day as free
		return
	}
	leaveHome := hourOf(day, b.jitterH(b.cfg.WorkStartHour-0.75, 0.4))
	b.travelTo(b.agent.Work, leaveHome)

	// Lunch outing.
	if b.r.Float64() < b.cfg.LunchOutProb {
		if spot := b.pickHaunt(world.KindRestaurant, world.KindCafe); spot != nil {
			lunchAt := hourOf(day, b.jitterH(13.0, 0.5))
			if lunchAt.After(b.now) {
				b.travelTo(spot, lunchAt)
				b.stayFor(time.Duration(30+b.r.Intn(30)) * time.Minute)
				b.travelTo(b.agent.Work, b.now)
			}
		}
	}

	leaveWork := hourOf(day, b.jitterH(b.cfg.WorkEndHour, 0.75))
	if leaveWork.Before(b.now.Add(30 * time.Minute)) {
		leaveWork = b.now.Add(30 * time.Minute)
	}

	// Evening errand on the way home.
	if b.r.Float64() < b.cfg.EveningErrandProb {
		if stop := b.pickHaunt(world.KindMarket, world.KindGym, world.KindClinic, world.KindMall); stop != nil {
			b.travelTo(stop, leaveWork)
			b.stayFor(time.Duration(20+b.r.Intn(60)) * time.Minute)
			b.travelTo(b.agent.Home, b.now)
			return
		}
	}
	b.travelTo(b.agent.Home, leaveWork)
}

func (b *builder) weekend(day time.Time) {
	outings := 1 + b.r.Intn(maxInt(1, b.cfg.WeekendOutings))
	depart := hourOf(day, b.jitterH(10.5, 1.0))
	for i := 0; i < outings; i++ {
		dest := b.pickHaunt(
			world.KindMall, world.KindPark, world.KindCinema,
			world.KindRestaurant, world.KindMarket, world.KindCafe,
			world.KindLibrary, world.KindAcademic,
		)
		if dest == nil || dest == b.at {
			continue
		}
		if depart.Before(b.now) {
			depart = b.now.Add(time.Duration(15+b.r.Intn(45)) * time.Minute)
		}
		b.travelTo(dest, depart)
		b.stayFor(time.Duration(40+b.r.Intn(100)) * time.Minute)
		depart = b.now.Add(time.Duration(10+b.r.Intn(30)) * time.Minute)
	}
	// Home by evening.
	home := hourOf(day, b.jitterH(19.5, 1.0))
	if home.Before(b.now) {
		home = b.now
	}
	if b.at != b.agent.Home {
		b.travelTo(b.agent.Home, home)
	}
}

// pickHaunt returns a random haunt matching one of the kinds, or nil.
func (b *builder) pickHaunt(kinds ...world.VenueKind) *world.Venue {
	var matches []*world.Venue
	for _, v := range b.agent.Haunts {
		for _, k := range kinds {
			if v.Kind == k {
				matches = append(matches, v)
				break
			}
		}
	}
	if len(matches) == 0 {
		return nil
	}
	return matches[b.r.Intn(len(matches))]
}

// travelTo closes the current dwell at departAt (clamped to now) and moves
// the agent to dest, possibly inserting a short non-place stop en route.
func (b *builder) travelTo(dest *world.Venue, departAt time.Time) {
	if dest == b.at {
		return
	}
	if departAt.Before(b.now) {
		departAt = b.now
	}
	b.closeDwell(departAt)

	from := b.at
	// Optional short stop that must NOT become a place (exercises min-stay
	// thresholds in the discovery algorithms).
	if b.r.Float64() < b.cfg.ShortStopProb {
		if mid := b.pickHaunt(world.KindCafe, world.KindMarket); mid != nil && mid != from && mid != dest {
			b.moveSegment(from, mid)
			stop := time.Duration(2+b.r.Intn(6)) * time.Minute
			b.dwellSegment(mid, b.now.Add(stop))
			from = mid
		}
	}
	b.moveSegment(from, dest)
	b.at = dest
	b.dwellFrom = b.now
}

// stayFor extends the current dwell by d (the dwell is closed by the next
// travelTo).
func (b *builder) stayFor(d time.Duration) { b.now = b.now.Add(d) }

// closeDwell ends the open dwell segment at `until` and records the visit.
func (b *builder) closeDwell(until time.Time) {
	if until.Before(b.now) {
		until = b.now
	}
	start := b.dwellFrom
	if start.IsZero() {
		start = b.it.Start
	}
	if !until.After(start) {
		b.now = until
		return
	}
	b.it.segments = append(b.it.segments, segment{
		start: start, end: until, venue: b.at,
	})
	b.it.Visits = append(b.it.Visits, Visit{VenueID: b.at.ID, Arrive: start, Depart: until})
	b.now = until
}

// dwellSegment records a stay at v from b.now until `until`.
func (b *builder) dwellSegment(v *world.Venue, until time.Time) {
	if !until.After(b.now) {
		return
	}
	b.it.segments = append(b.it.segments, segment{start: b.now, end: until, venue: v})
	b.it.Visits = append(b.it.Visits, Visit{VenueID: v.ID, Arrive: b.now, Depart: until})
	b.now = until
	b.dwellFrom = until
}

// moveSegment emits a trip from a to bVenue starting at b.now.
func (b *builder) moveSegment(a, dest *world.Venue) {
	path := b.world.Path(a.Center, dest.Center)
	dur := time.Duration(path.Length() / b.agent.SpeedMPS * float64(time.Second))
	if dur < time.Minute {
		dur = time.Minute
	}
	end := b.now.Add(dur)
	b.it.segments = append(b.it.segments, segment{
		start: b.now, end: end, path: path, pathLen: path.Length(),
	})
	b.it.Trips = append(b.it.Trips, Trip{
		FromVenueID: a.ID, ToVenueID: dest.ID,
		Start: b.now, End: end, Path: path,
	})
	b.now = end
	b.dwellFrom = end
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

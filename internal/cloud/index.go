package cloud

import (
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/profile"
)

// Incremental analytics index (DESIGN.md §9). Every analytics query used to
// deep-copy the user's entire profile history and rescan it; this file is the
// materialized alternative: a per-user index over the stored day profiles,
// maintained inside dataState.apply so live mutations, WAL replay, and
// snapshot restore all rebuild it through the one mutation path — a recovered
// store's index is the recovered profiles' index by construction.
//
// Layout: visits are pre-bucketed per place (and per label) into date-ordered
// day segments, with time-of-day and weekday precomputed, so a query walks
// exactly the visits that match it — no per-day map lookups, no rescans of
// other places. The answers must be byte-identical to a from-scratch rescan
// (the equivalence property test enforces this), so the index stores ordered
// visit lists, never running float aggregates: queries fold the same visits
// in the same order as a scan would — dates ascending, within-day profile
// order — and therefore accumulate floating point in the same order.

// visitRef is one indexed visit with the derived values the analytics fold
// needs precomputed. cosTh/sinTh are the arrival's unit-circle coordinates on
// the 24 h cycle: the circular-mean queries sum them in visit order, and
// because cos/sin of identical input bits yield identical output bits,
// precomputing them preserves byte-identity with a scan that computes them
// inline.
type visitRef struct {
	placeID        string
	secOfDay       int // Arrive's time of day; 0 marks a possible midnight split
	weekday        time.Weekday
	arrive, depart time.Time
	dur            time.Duration
	cosTh, sinTh   float64
}

// daySeg is one day's visits at one place (or carrying one label), in
// profile order. prevDate names the calendar day before it — the only day
// whose final visit can continue across midnight into this one, since the
// continuation test is instant equality at this day's 00:00.
type daySeg struct {
	date     string
	prevDate string
	visits   []visitRef
}

// dayIndex is the per-day bookkeeping: the day's final visit (what the NEXT
// day's continuation checks consult), which segment keys the day
// contributed, so an upsert can retract them, and the day's prevDate, which
// an upsert reuses.
type dayIndex struct {
	last     *visitRef
	places   []string
	labels   []string
	prevDate string
}

// userIndex is one user's materialized analytics state.
type userIndex struct {
	dates   []string // sorted ascending; also serves ProfileRange
	days    map[string]*dayIndex
	byPlace map[string][]daySeg // place id -> date-ordered segments
	byLabel map[string][]daySeg // label -> date-ordered segments
}

func newUserIndex() *userIndex {
	return &userIndex{
		days:    map[string]*dayIndex{},
		byPlace: map[string][]daySeg{},
		byLabel: map[string][]daySeg{},
	}
}

// putDay upserts one day — the incremental step for opPutProfile, and in date
// order (each an append) how opSyncUser rebuilds a user from scratch. A day's
// contributions depend only on that day's profile (cross-day state is read
// at query time through prevDate), so an upsert replaces one day's segments
// in place, retracts those of keys the day no longer has, and never touches
// a neighbor.
func (ux *userIndex) putDay(p *profile.DayProfile) {
	old := ux.days[p.Date]
	di := &dayIndex{}
	if old != nil {
		di.prevDate = old.prevDate
	} else {
		at, _ := slices.BinarySearch(ux.dates, p.Date)
		ux.dates = slices.Insert(ux.dates, at, p.Date)
		day, _ := time.Parse(profile.DateFormat, p.Date)
		di.prevDate = day.AddDate(0, 0, -1).Format(profile.DateFormat)
	}
	byPlace := map[string][]visitRef{}
	byLabel := map[string][]visitRef{}
	for _, v := range p.Places {
		ref := visitRef{
			placeID:  v.PlaceID,
			secOfDay: v.Arrive.Hour()*3600 + v.Arrive.Minute()*60 + v.Arrive.Second(),
			weekday:  v.Arrive.Weekday(),
			arrive:   v.Arrive,
			depart:   v.Depart,
			dur:      v.Duration(),
		}
		th := float64(ref.secOfDay) / 86400 * 2 * math.Pi
		ref.cosTh, ref.sinTh = math.Cos(th), math.Sin(th)
		byPlace[v.PlaceID] = append(byPlace[v.PlaceID], ref)
		if v.Label != "" {
			byLabel[v.Label] = append(byLabel[v.Label], ref)
		}
	}
	if n := len(p.Places); n > 0 {
		v := p.Places[n-1]
		di.last = &visitRef{placeID: v.PlaceID, arrive: v.Arrive, depart: v.Depart}
	}
	if old != nil {
		for _, pid := range old.places {
			if _, ok := byPlace[pid]; !ok {
				removeSeg(ux.byPlace, pid, p.Date)
			}
		}
		for _, lb := range old.labels {
			if _, ok := byLabel[lb]; !ok {
				removeSeg(ux.byLabel, lb, p.Date)
			}
		}
	}
	for pid, vs := range byPlace {
		di.places = append(di.places, pid)
		insertSeg(ux.byPlace, pid, daySeg{date: p.Date, prevDate: di.prevDate, visits: vs})
	}
	for lb, vs := range byLabel {
		di.labels = append(di.labels, lb)
		insertSeg(ux.byLabel, lb, daySeg{date: p.Date, prevDate: di.prevDate, visits: vs})
	}
	ux.days[p.Date] = di
}

func segIdx(segs []daySeg, date string) (int, bool) {
	return slices.BinarySearchFunc(segs, date, func(s daySeg, d string) int {
		return strings.Compare(s.date, d)
	})
}

func removeSeg(m map[string][]daySeg, key, date string) {
	segs := m[key]
	if i, ok := segIdx(segs, date); ok {
		segs = slices.Delete(segs, i, i+1)
		if len(segs) == 0 {
			delete(m, key)
		} else {
			m[key] = segs
		}
	}
}

func insertSeg(m map[string][]daySeg, key string, seg daySeg) {
	segs := m[key]
	i, ok := segIdx(segs, seg.date)
	if ok {
		segs[i] = seg
	} else {
		segs = slices.Insert(segs, i, seg)
	}
	m[key] = segs
}

// continuedFrom reports whether a visit arriving at this instant (already
// known to be 00:00:00) is the second half of a stay split at midnight: the
// previous calendar day is indexed and ends at the same place at the same
// instant. Equality at an instant forces calendar adjacency, which is why
// only prevDate needs checking — a scan's "previous profile in sorted order"
// test agrees on every input.
func (ux *userIndex) continuedFrom(prevDate, placeID string, arrive time.Time) bool {
	prev := ux.days[prevDate]
	if prev == nil || prev.last == nil {
		return false
	}
	return prev.last.placeID == placeID && prev.last.depart.Equal(arrive)
}

// continuesPrevDay is the same predicate on raw profile visits — shared with
// the scan reference implementation in analytics.go.
func continuesPrevDay(v, prevLast *profile.PlaceVisit, placeID string) bool {
	if v.Arrive.Hour() != 0 || v.Arrive.Minute() != 0 || v.Arrive.Second() != 0 {
		return false
	}
	return prevLast != nil && prevLast.PlaceID == placeID && prevLast.Depart.Equal(v.Arrive)
}

// foldArrivalsAt streams every true arrival at the place to fn — date order,
// then within-day order, midnight continuations skipped — the indexed
// counterpart of Analytics.scanArrivalsAt, without materializing the
// intermediate slice the old indexed path allocated per query. fn may be nil
// to just count. Returns the arrival count.
func foldArrivalsAt(ux *userIndex, placeID string, fn func(v *visitRef)) int {
	if ux == nil {
		return 0
	}
	n := 0
	for _, seg := range ux.byPlace[placeID] {
		for i := range seg.visits {
			v := &seg.visits[i]
			if v.secOfDay == 0 && ux.continuedFrom(seg.prevDate, placeID, v.arrive) {
				continue
			}
			n++
			if fn != nil {
				fn(v)
			}
		}
	}
	return n
}

// indexDwells is the indexed counterpart of the DwellStats scan fold: stay
// durations at the place with midnight-split visits re-joined, in visit
// order.
func indexDwells(ux *userIndex, placeID string) []time.Duration {
	if ux == nil {
		return nil
	}
	segs := ux.byPlace[placeID]
	n := 0
	for _, seg := range segs {
		n += len(seg.visits)
	}
	if n == 0 {
		return nil
	}
	// A run's end instant always equals the last joined visit's departure
	// (each join extends the run by exactly that visit's span), so tracking
	// the precomputed depart gives the same join decisions as recomputing
	// arrive+duration the way the scan does.
	stays := make([]time.Duration, 0, n)
	var openEnd time.Time
	var openDur time.Duration
	open := false
	for _, seg := range segs {
		for i := range seg.visits {
			v := &seg.visits[i]
			if open && v.arrive.Equal(openEnd) {
				openDur += v.dur
				openEnd = v.depart
				continue
			}
			if open {
				stays = append(stays, openDur)
			}
			openEnd, openDur, open = v.depart, v.dur, true
		}
	}
	if open {
		stays = append(stays, openDur)
	}
	return stays
}

// indexCountByLabel counts true arrivals at places carrying the label, the
// indexed counterpart of the FrequencyByLabel scan.
func indexCountByLabel(ux *userIndex, label string) int {
	total := 0
	for _, seg := range ux.byLabel[label] {
		for i := range seg.visits {
			v := &seg.visits[i]
			if v.secOfDay == 0 && ux.continuedFrom(seg.prevDate, v.placeID, v.arrive) {
				continue
			}
			total++
		}
	}
	return total
}

package cloud

import (
	"math"
	"time"

	"repro/internal/profile"
)

// The scan* twins of the Analytics queries: each recomputes its answer from
// scratch over a deep copy of the history (ProfileRange). They are the
// reference the index equivalence property (index_property_test.go) compares
// against and the baseline the serving benchmarks measure speedups from.

// arrival carries one true arrival plus its unit-circle coordinates on the
// 24 h cycle (the circular-mean folds sum cosTh/sinTh in arrival order).
type arrival struct {
	secOfDay     int
	weekday      time.Weekday
	at           time.Time
	cosTh, sinTh float64
}

func newArrival(v *profile.PlaceVisit) arrival {
	sec := v.Arrive.Hour()*3600 + v.Arrive.Minute()*60 + v.Arrive.Second()
	th := float64(sec) / 86400 * 2 * math.Pi
	return arrival{
		secOfDay: sec, weekday: v.Arrive.Weekday(), at: v.Arrive,
		cosTh: math.Cos(th), sinTh: math.Sin(th),
	}
}

// scanArrivalsAt is the from-scratch reference: deep-copy the history and
// rescan it.
func (a *Analytics) scanArrivalsAt(userID, placeID string) []arrival {
	profiles := a.store.ProfileRange(userID, "", "")
	var out []arrival
	var prevDay *profile.DayProfile
	for _, day := range profiles {
		for _, v := range day.Places {
			if v.PlaceID != placeID {
				continue
			}
			if isMidnightContinuation(v, prevDay, placeID) {
				continue
			}
			out = append(out, newArrival(&v))
		}
		prevDay = day
	}
	return out
}

// isMidnightContinuation detects the second half of a visit split at the day
// boundary: arrival exactly at 00:00 while the previous day's profile ends
// with the same place at 24:00.
func isMidnightContinuation(v profile.PlaceVisit, prevDay *profile.DayProfile, placeID string) bool {
	if prevDay == nil || len(prevDay.Places) == 0 {
		return false
	}
	last := prevDay.Places[len(prevDay.Places)-1]
	return continuesPrevDay(&v, &last, placeID)
}

func (a *Analytics) scanTypicalArrival(userID, placeID string) (secOfDay int, n int) {
	return typicalFromArrivals(a.scanArrivalsAt(userID, placeID))
}

func typicalFromArrivals(arrivals []arrival) (secOfDay int, n int) {
	if len(arrivals) == 0 {
		return 0, 0
	}
	var sx, sy float64
	for _, ar := range arrivals {
		sx += ar.cosTh
		sy += ar.sinTh
	}
	return circularMeanSec(sx, sy), len(arrivals)
}

func (a *Analytics) scanPredictNextVisit(userID, placeID string, after time.Time) (time.Time, bool) {
	return predictFromArrivals(a.scanArrivalsAt(userID, placeID), after)
}

func predictFromArrivals(arrivals []arrival, after time.Time) (time.Time, bool) {
	if len(arrivals) < 2 {
		return time.Time{}, false
	}
	var byWD [7]weekdayAcc
	for _, ar := range arrivals {
		acc := &byWD[ar.weekday]
		acc.sx += ar.cosTh
		acc.sy += ar.sinTh
		acc.n++
	}
	return predictFromWeekdays(&byWD, len(arrivals), after)
}

func (a *Analytics) scanVisitFrequency(userID, placeID string) (perWeek float64, total int) {
	profiles := a.store.ProfileRange(userID, "", "")
	if len(profiles) == 0 {
		return 0, 0
	}
	total = len(a.scanArrivalsAt(userID, placeID))
	return perWeekOver(profiles[0].Date, profiles[len(profiles)-1].Date, total), total
}

func (a *Analytics) scanDwellStats(userID, placeID string) DwellStatsResponse {
	profiles := a.store.ProfileRange(userID, "", "")
	var stays []time.Duration
	var open *profile.PlaceVisit
	var openDur time.Duration
	flush := func() {
		if open != nil {
			stays = append(stays, openDur)
			open = nil
			openDur = 0
		}
	}
	for _, day := range profiles {
		for i := range day.Places {
			v := day.Places[i]
			if v.PlaceID != placeID {
				continue
			}
			if open != nil && v.Arrive.Equal(open.Arrive.Add(openDur)) {
				openDur += v.Duration()
				continue
			}
			flush()
			vv := v
			open = &vv
			openDur = v.Duration()
		}
	}
	flush()
	return dwellSummary(placeID, stays)
}

func (a *Analytics) scanFrequencyByLabel(userID, label string) (perWeek float64, total int) {
	profiles := a.store.ProfileRange(userID, "", "")
	if len(profiles) == 0 {
		return 0, 0
	}
	var prevDay *profile.DayProfile
	for _, day := range profiles {
		for _, v := range day.Places {
			if v.Label != label {
				continue
			}
			if isMidnightContinuation(v, prevDay, v.PlaceID) {
				continue
			}
			total++
		}
		prevDay = day
	}
	return perWeekOver(profiles[0].Date, profiles[len(profiles)-1].Date, total), total
}

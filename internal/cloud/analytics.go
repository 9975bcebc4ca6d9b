package cloud

import (
	"math"
	"slices"
	"time"

	"repro/internal/profile"
)

// Analytics is the prediction engine over stored mobility profiles (paper
// Section 2.3.2). It answers the three query families the paper lists:
// typical arrival time at a place, next expected visit, and visit frequency.
//
// Queries answer from the store's incremental per-user index (index.go) under
// the shard read lock — no per-query deep copy of the history. Each exported
// method has an unexported scan* twin in analytics_scan_test.go that
// recomputes from scratch via ProfileRange; the twins are the reference
// implementation the equivalence property test pins the index against, and
// the pre-index baseline the serving benchmarks measure speedups from. Both
// sides fold visits in the same order (dates ascending, within-day profile
// order), so floating-point results agree byte-for-byte, not just
// approximately.
type Analytics struct {
	store *Store
}

// NewAnalytics returns an engine over the store.
func NewAnalytics(store *Store) *Analytics { return &Analytics{store: store} }

// TypicalArrival answers "at what time does the user typically reach this
// place?" — e.g. the likely time the user reaches home in the evening. It
// returns the circular mean of arrival times-of-day and the sample count
// (zero when the place was never visited). The indexed path folds the sums
// straight off the index under the read lock — no arrival slice exists.
func (a *Analytics) TypicalArrival(userID, placeID string) (secOfDay int, n int) {
	a.store.viewIndex(userID, func(ux *userIndex) {
		// Circular mean over the 24 h cycle, so 23:30 and 00:30 average to
		// midnight rather than noon. Identical fold order to the scan twin,
		// so the floats agree byte-for-byte.
		var sx, sy float64
		n = foldArrivalsAt(ux, placeID, func(v *visitRef) {
			sx += v.cosTh
			sy += v.sinTh
		})
		if n > 0 {
			secOfDay = circularMeanSec(sx, sy)
		}
	})
	return secOfDay, n
}

// circularMeanSec maps summed unit-circle coordinates back to the mean
// second of day.
func circularMeanSec(sx, sy float64) int {
	th := math.Atan2(sy, sx)
	if th < 0 {
		th += 2 * math.Pi
	}
	return int(th / (2 * math.Pi) * 86400)
}

// PredictNextVisit answers "when will the user next visit this place?" after
// the given instant. The model is the day-of-week visiting pattern: for each
// of the next 14 days, if the user has historically visited the place on
// that weekday, predict the typical arrival time on the first such day.
// Confident is false when history is too thin (fewer than 2 visits).
func (a *Analytics) PredictNextVisit(userID, placeID string, after time.Time) (next time.Time, confident bool) {
	a.store.viewIndex(userID, func(ux *userIndex) {
		// Per-weekday typical arrival, folded into a stack array — the
		// per-weekday adds happen in the same (arrival) order as the scan
		// twin's map accumulation, so each weekday's sums are bit-identical.
		var byWD [7]weekdayAcc
		total := foldArrivalsAt(ux, placeID, func(v *visitRef) {
			acc := &byWD[v.weekday]
			acc.sx += v.cosTh
			acc.sy += v.sinTh
			acc.n++
		})
		next, confident = predictFromWeekdays(&byWD, total, after)
	})
	return next, confident
}

// weekdayAcc accumulates one weekday's circular-mean terms.
type weekdayAcc struct {
	sx, sy float64
	n      int
}

// predictFromWeekdays walks the next 14 days from after's midnight and
// predicts the typical arrival on the first weekday with history that lands
// after the given instant.
func predictFromWeekdays(byWD *[7]weekdayAcc, total int, after time.Time) (time.Time, bool) {
	if total < 2 {
		return time.Time{}, false
	}
	day := time.Date(after.Year(), after.Month(), after.Day(), 0, 0, 0, 0, after.Location())
	for i := 0; i < 14; i++ {
		d := day.AddDate(0, 0, i)
		acc := &byWD[d.Weekday()]
		if acc.n == 0 {
			continue
		}
		cand := d.Add(time.Duration(circularMeanSec(acc.sx, acc.sy)) * time.Second)
		if cand.After(after) {
			return cand, true
		}
	}
	return time.Time{}, false
}

// VisitFrequency answers "how often does the user visit this place?" as
// visits per week over the observed profile span.
func (a *Analytics) VisitFrequency(userID, placeID string) (perWeek float64, total int) {
	a.store.viewIndex(userID, func(ux *userIndex) {
		if ux == nil || len(ux.dates) == 0 {
			return
		}
		total = foldArrivalsAt(ux, placeID, nil)
		perWeek = perWeekOver(ux.dates[0], ux.dates[len(ux.dates)-1], total)
	})
	return perWeek, total
}

// perWeekOver converts a visit count over [firstDate, lastDate] (inclusive)
// into visits per week.
func perWeekOver(firstDate, lastDate string, total int) float64 {
	first, _ := time.Parse(profile.DateFormat, firstDate)
	last, _ := time.Parse(profile.DateFormat, lastDate)
	days := last.Sub(first).Hours()/24 + 1
	if days <= 0 {
		days = 1
	}
	return float64(total) / days * 7
}

// DwellStats summarizes stay durations at a place across stored profiles.
// Visits split at midnight are re-joined before measuring, so an overnight
// home stay counts once at its full length.
func (a *Analytics) DwellStats(userID, placeID string) DwellStatsResponse {
	var stays []time.Duration
	a.store.viewIndex(userID, func(ux *userIndex) {
		stays = indexDwells(ux, placeID)
	})
	return dwellSummary(placeID, stays)
}

func dwellSummary(placeID string, stays []time.Duration) DwellStatsResponse {
	resp := DwellStatsResponse{PlaceID: placeID, Visits: len(stays)}
	if len(stays) == 0 {
		return resp
	}
	slices.Sort(stays)
	var sum time.Duration
	for _, s := range stays {
		sum += s
	}
	resp.MeanStaySec = int(sum.Seconds()) / len(stays)
	resp.MedianStaySec = int(stays[len(stays)/2].Seconds())
	resp.LongestStaySec = int(stays[len(stays)-1].Seconds())
	return resp
}

// FrequencyByLabel sums visit frequency across every place carrying the
// label — e.g. "how frequently does the user visit shopping malls" when mall
// places are labelled accordingly.
func (a *Analytics) FrequencyByLabel(userID, label string) (perWeek float64, total int) {
	a.store.viewIndex(userID, func(ux *userIndex) {
		if ux == nil || len(ux.dates) == 0 {
			return
		}
		total = indexCountByLabel(ux, label)
		perWeek = perWeekOver(ux.dates[0], ux.dates[len(ux.dates)-1], total)
	})
	return perWeek, total
}

package gsm

import (
	"maps"
	"time"

	"repro/internal/trace"
	"repro/internal/world"
)

// Pipeline is the resumable form of Discover: feed it observation batches as
// they arrive and ask for the discovery Result at any point. The output is
// byte-identical to running batch Discover over the full concatenated trace
// (pinned by TestPipelineMatchesBatch), but each Extend costs O(batch), not
// O(history):
//
//   - the movement graph folds forward one observation at a time, through
//     the same observe step BuildGraph uses;
//   - a stationarity flag depends only on the look-back window, so it is
//     final the moment it is computed, and a stay run is final as soon as a
//     non-stationary observation closes it;
//   - the open stationary run is kept as its first instant and a per-cell
//     dwell tally — exactly the Start anchor and dwell vector its segment
//     needs — so no observation has to stay buffered for it;
//   - the buffer keeps just the observations still reachable by the window
//     and the two-observation graph-fold context, so resident trace state is
//     O(window), not O(history) or O(open run).
//
// The merge pass still runs per Result, but over stay segments (hundreds),
// not observations (millions), and it is pruned and parallel (see
// mergeSegments). A Pipeline is not safe for concurrent use.
type Pipeline struct {
	p Params

	n       int       // observations consumed so far
	firstAt time.Time // timestamp of the very first observation (segment clamp)

	buf  []trace.GSMObservation // retained tail of the trace
	base int                    // global index of buf[0]

	j      int                  // global index of the stationarity window's left edge
	counts map[world.CellID]int // distinct-cell counts inside the window

	g *Graph

	segs  []Segment            // finalized stay segments, in trace order
	run   map[world.CellID]int // open stationary run's per-cell dwell tally, nil when none is open
	runAt time.Time            // instant of the open run's first observation
}

// NewPipeline returns an empty pipeline; its Result equals Discover(nil, p).
func NewPipeline(p Params) *Pipeline {
	return &Pipeline{
		p:      p,
		counts: map[world.CellID]int{},
		g:      &Graph{nodes: make(map[world.CellID]*node)},
	}
}

// Len returns the number of observations consumed so far.
func (pl *Pipeline) Len() int { return pl.n }

// Extend consumes the next batch of the trace. Observations must continue
// the time order of everything consumed before.
func (pl *Pipeline) Extend(obs []trace.GSMObservation) {
	for _, o := range obs {
		pl.extendOne(o)
	}
}

func (pl *Pipeline) extendOne(o trace.GSMObservation) {
	i := pl.n
	if i == 0 {
		pl.firstAt = o.At
	}
	if len(pl.buf) == cap(pl.buf) {
		pl.prune()
	}
	pl.buf = append(pl.buf, o)
	pl.n++

	// Graph fold: the same step BuildGraph applies at index i.
	var prev, prev2 *trace.GSMObservation
	if i >= 1 {
		prev = &pl.buf[i-1-pl.base]
	}
	if i >= 2 {
		prev2 = &pl.buf[i-2-pl.base]
	}
	pl.g.observe(prev2, prev, o, pl.p)

	// Stationarity: the same sliding window as segmentStays, carried across
	// batches.
	pl.counts[o.Cell]++
	for pl.buf[pl.j-pl.base].At.Before(o.At.Add(-pl.p.Window)) {
		c := pl.buf[pl.j-pl.base].Cell
		pl.counts[c]--
		if pl.counts[c] == 0 {
			delete(pl.counts, c)
		}
		pl.j++
	}
	stationary := len(pl.counts) <= pl.p.MaxCellsInWindow

	// Run tracking: flags are final, so a run closes for good at the first
	// non-stationary observation after it, and its tally becomes the
	// segment's dwell vector.
	if stationary {
		if pl.run == nil {
			pl.run = map[world.CellID]int{}
			pl.runAt = o.At
		}
		pl.run[o.Cell]++
	} else if pl.run != nil {
		if seg, ok := pl.segment(prev.At); ok {
			pl.segs = append(pl.segs, seg)
		}
		pl.run = nil
	}
}

// segment builds the open run's stay segment ending at end, applying the same
// start pull-back, first-observation clamp, and MinStay filter as
// segmentStays. ok is false when the stay is too short. The segment's dwell
// vector is the run's tally itself, not a copy.
func (pl *Pipeline) segment(end time.Time) (Segment, bool) {
	start := pl.runStart()
	if end.Sub(start) < pl.p.MinStay {
		return Segment{}, false
	}
	seg := Segment{
		Start: start, End: end,
		Cells:   make(map[world.CellID]struct{}, len(pl.run)),
		dwellBy: pl.run,
	}
	for c := range pl.run {
		seg.Cells[c] = struct{}{}
	}
	return seg, true
}

// runStart is the open run's segment Start: its first instant pulled back by
// half the window (the window lags the true arrival), clamped to the first
// observation.
func (pl *Pipeline) runStart() time.Time {
	start := pl.runAt.Add(-pl.p.Window / 2)
	if start.Before(pl.firstAt) {
		return pl.firstAt
	}
	return start
}

// prune drops buffered observations no longer reachable by the stationarity
// window or the graph fold's two-observation context. It runs only when the
// buffer is full, and compacts in place while that frees at least half of
// it; otherwise it moves the live tail into an array twice its length. Either
// way the capacity stays about twice the window, whatever the batch size,
// and the copying is amortized O(1) per observation.
func (pl *Pipeline) prune() {
	keep := max(min(pl.j, pl.n-2), pl.base)
	live := pl.buf[keep-pl.base:]
	if 2*len(live) > cap(pl.buf) {
		pl.buf = append(make([]trace.GSMObservation, 0, 2*len(live)), live...)
	} else {
		pl.buf = append(pl.buf[:0], live...)
	}
	pl.base = keep
}

// FinalSegments returns the finalized stay segments in trace order. The
// slice is append-only: once a stationary run is closed by a non-stationary
// observation its segment is final — identical to what batch Discover would
// produce for any trace extending the consumed prefix — so callers may index
// into it across Extends to detect newly completed stays. The returned slice
// is owned by the pipeline; callers must not mutate it.
func (pl *Pipeline) FinalSegments() []Segment { return pl.segs }

// OpenStay reports the candidate stay bounds of the still-open stationary
// run, with the same start pull-back and first-observation clamp a finalized
// segment gets. ok is true only when the run already satisfies MinStay — the
// earliest moment the eventual segment's Start is guaranteed: the run's first
// instant is fixed when the run opens, so Start never changes afterwards,
// while End keeps extending until a non-stationary observation closes the
// run. O(1).
func (pl *Pipeline) OpenStay() (start, end time.Time, ok bool) {
	if pl.run == nil {
		return time.Time{}, time.Time{}, false
	}
	start, end = pl.runStart(), pl.buf[len(pl.buf)-1].At
	return start, end, end.Sub(start) >= pl.p.MinStay
}

// OpenSegment materializes the open stationary run's candidate segment —
// the same open tail Result folds into the merge pass — over a copy of the
// run's tally. ok is false when no run is open or it is still shorter than
// MinStay. Costs O(distinct cells in the open run).
func (pl *Pipeline) OpenSegment() (Segment, bool) {
	if pl.run == nil {
		return Segment{}, false
	}
	seg, ok := pl.segment(pl.buf[len(pl.buf)-1].At)
	if ok {
		seg.dwellBy = maps.Clone(pl.run)
	}
	return seg, ok
}

// Result runs the merge pass over the finalized segments plus the open tail
// run and returns what batch Discover would produce for the full consumed
// trace. The pipeline is left intact: Result can be called after every
// Extend, and the graph in the returned Result keeps growing with it.
func (pl *Pipeline) Result() *Result {
	segs := pl.segs
	if tail, ok := pl.OpenSegment(); ok {
		all := make([]Segment, len(pl.segs), len(pl.segs)+1)
		copy(all, pl.segs)
		segs = append(all, tail)
	}
	return &Result{Places: mergeSegments(segs, pl.g, pl.p), Segments: segs, Graph: pl.g}
}

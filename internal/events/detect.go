package events

import (
	"repro/internal/gsm"
	"repro/internal/trace"
	"repro/internal/world"
)

// Detector turns an observation stream into place transitions online, one
// observation at a time, emitting each transition at the earliest moment it
// is final:
//
//   - place_entry fires when the open stationary run first satisfies
//     MinStay. The pipeline fixes the run's start index the moment the run
//     opens, so the eventual segment's Start is already exact — the entry
//     can never be retracted or shifted by later observations.
//   - place_exit fires when a non-stationary observation closes the run;
//     the segment (and its cell set) is final at that instant.
//   - route_start fires together with the entry of the following stay,
//     anchored at the previous stay's end — the first moment the detector
//     knows the departure actually led somewhere new.
//
// The stream is pinned byte-identical to FromSegments over a batch
// discovery of the same trace (TestDetectorMatchesBatch), the same
// equivalence discipline the incremental pipeline itself carries.
// A Detector is not safe for concurrent use.
type Detector struct {
	pipe *gsm.Pipeline

	emitted   int  // finalized segments whose exit has been emitted
	entryOpen bool // entry already emitted for the current stay
	haveLast  bool // a previous stay exists (route_start anchor is valid)
}

// NewDetector returns a detector over a fresh incremental pipeline.
func NewDetector(p gsm.Params) *Detector {
	return &Detector{pipe: gsm.NewPipeline(p)}
}

// Len returns the number of observations consumed so far.
func (d *Detector) Len() int { return d.pipe.Len() }

// Params returns the discovery parameters the detector was built with.
func (d *Detector) Params() gsm.Params { return d.pipe.Params() }

// Pipeline returns the incremental pipeline the detector wraps, so one
// cached pipeline can serve both discovery and event detection.
// Observations folded in through it directly emit nothing then; the next
// Feed publishes the transitions they finalized before its own batch.
func (d *Detector) Pipeline() *gsm.Pipeline { return d.pipe }

// Feed consumes the next batch of the trace (which must continue the time
// order of everything consumed before) and returns the transitions that
// became final, in order — first those finalized by observations folded in
// through Pipeline since the last Feed, then the batch's own.
func (d *Detector) Feed(obs []trace.GSMObservation) []Transition {
	out := d.step(nil)
	for i := range obs {
		d.pipe.Extend(obs[i : i+1])
		out = d.step(out)
	}
	return out
}

// CatchUp replays an already-processed trace prefix, advancing detector
// state while discarding the transitions: the rebuild path after a cache
// eviction or a trace generation change, where the prefix's transitions
// were emitted by a previous detector incarnation (or are deliberately
// suppressed for a wholesale-replaced trace).
func (d *Detector) CatchUp(obs []trace.GSMObservation) {
	// Replay in one Extend: finality does not depend on batch boundaries,
	// and the per-observation bookkeeping below only matters for emission.
	d.pipe.Extend(obs)
	segs := d.pipe.FinalSegments()
	d.emitted = len(segs)
	_, _, open := d.pipe.OpenStay()
	d.entryOpen = open
	d.haveLast = len(segs) > 0
}

// step collects the transitions finalized since the last step: by the last
// fed observation, or by everything folded in through Pipeline.
func (d *Detector) step(out []Transition) []Transition {
	segs := d.pipe.FinalSegments()
	for d.emitted < len(segs) {
		s := segs[d.emitted]
		if !d.entryOpen {
			// The stay opened and closed within observations folded in
			// through Pipeline, which emitted nothing: its entry (and the
			// route into it) come first, in trace order.
			if d.haveLast {
				out = append(out, Transition{Kind: KindRouteStart, At: segs[d.emitted-1].End})
			}
			out = append(out, Transition{Kind: KindPlaceEntry, At: s.Start})
		}
		out = append(out, Transition{
			Kind:  KindPlaceExit,
			At:    s.End,
			Start: s.Start,
			Cells: SortedCells(s.Cells),
		})
		d.entryOpen = false
		d.haveLast = true
		d.emitted++
	}
	if start, _, ok := d.pipe.OpenStay(); ok && !d.entryOpen {
		if d.haveLast {
			out = append(out, Transition{Kind: KindRouteStart, At: segs[len(segs)-1].End})
		}
		out = append(out, Transition{Kind: KindPlaceEntry, At: start, Hint: d.openCells()})
		d.entryOpen = true
	}
	return out
}

// PendingExit returns the exit transition the open stay would produce if the
// trace ended now — what batch derivation reports for the open tail segment.
// ok is false when no stay is open past MinStay.
func (d *Detector) PendingExit() (Transition, bool) {
	tail, ok := d.pipe.OpenSegment()
	if !ok {
		return Transition{}, false
	}
	return Transition{
		Kind:  KindPlaceExit,
		At:    tail.End,
		Start: tail.Start,
		Cells: SortedCells(tail.Cells),
	}, true
}

// openCells snapshots the open stay's cell set so far — enrichment for the
// entry event (a prefix of the eventual final set, deliberately outside the
// canonical transition).
func (d *Detector) openCells() []world.CellID {
	tail, ok := d.pipe.OpenSegment()
	if !ok {
		return nil
	}
	return SortedCells(tail.Cells)
}

// Package events is the PCI's real-time event subsystem: it turns
// observations appended through the streaming ingest path into place-event
// transitions the moment they become decidable, and fans them out to
// subscribed applications over bounded per-subscriber queues.
//
// The package splits into three layers:
//
//   - Transition detection (detect.go): an online detector over the
//     incremental GCA pipeline. Its output is pinned byte-identical to the
//     transitions derivable from a nightly batch discovery run
//     (TestDetectorMatchesBatch), the same discipline as
//     TestPipelineMatchesBatch one level down.
//   - The fanout hub (hub.go): a single authoritative dispatch loop owning
//     every subscriber queue, with sequence-numbered events, a bounded
//     per-user replay ring for Last-Event-ID resume, and slow-consumer
//     eviction so one stalled reader never blocks the emit path.
//   - The SSE wire (sse.go): the framing shared by the server handler and
//     the client's reconnecting Subscribe loop.
package events

import (
	"slices"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/gsm"
	"repro/internal/world"
)

// Event kinds. The strings double as the SSE `event:` field.
const (
	KindPlaceEntry     = "place_entry"
	KindPlaceExit      = "place_exit"
	KindRouteStart     = "route_start"
	KindPredictedVisit = "predicted_next_visit"

	// KindReset is a control event: the server could not satisfy a
	// Last-Event-ID resume from its replay ring, so the subscriber has a
	// gap and should re-pull authoritative state (places, profiles) out of
	// band. Data is the current head sequence number.
	KindReset = "reset"
	// KindEvicted is a control event sent as the final frame before the
	// server closes a slow consumer's stream.
	KindEvicted = "evicted"
)

// Transition is the canonical, deterministic core of an event: exactly the
// part that must be byte-identical between the streaming detector and a
// batch discovery run over the same trace (the PR's equivalence pin).
// Everything enrichable only from mutable server state — matched place ID,
// label, coordinates, predictions — lives on Event instead.
type Transition struct {
	// Kind is KindPlaceEntry, KindPlaceExit, or KindRouteStart.
	Kind string `json:"kind"`
	// At is when the transition happened in trace time: stay start for an
	// entry, stay end for an exit, and previous stay end for a route start.
	At time.Time `json:"at"`
	// Start is the stay's start, set on exits only (pairs the exit with its
	// entry without requiring the consumer to track state).
	Start time.Time `json:"start,omitempty"`
	// Cells is the completed stay's full cell set in canonical order, set on
	// exits only. It is final by construction: a stay's cell set stops
	// growing when the stay closes.
	Cells []world.CellID `json:"cells,omitempty"`

	// Hint is the cell set observed so far when an entry fires. It is
	// explicitly NOT part of the canonical transition — an online entry is
	// emitted mid-stay, so its hint is a prefix of the final cell set and
	// batch derivation cannot reproduce it. Enrichment only.
	Hint []world.CellID `json:"-"`
}

// FromSegments derives the canonical transition stream a batch discovery run
// implies: entry/exit per stay segment, with a route start anchored at the
// previous stay's end between consecutive segments. This is the reference
// the online detector is pinned against.
func FromSegments(segs []gsm.Segment) []Transition {
	ts := make([]Transition, 0, 3*len(segs))
	for i, s := range segs {
		if i > 0 {
			ts = append(ts, Transition{Kind: KindRouteStart, At: segs[i-1].End})
		}
		ts = append(ts, Transition{Kind: KindPlaceEntry, At: s.Start})
		ts = append(ts, Transition{
			Kind:  KindPlaceExit,
			At:    s.End,
			Start: s.Start,
			Cells: SortedCells(s.Cells),
		})
	}
	return ts
}

// SortedCells renders a cell set in canonical (MCC, MNC, LAC, CID) order.
func SortedCells(set map[world.CellID]struct{}) []world.CellID {
	cells := make([]world.CellID, 0, len(set))
	for c := range set {
		cells = append(cells, c)
	}
	slices.SortFunc(cells, CompareCells)
	return cells
}

// CompareCells is the canonical cell ordering used everywhere a transition's
// cell set is serialized: numeric, field by field. It is not
// world.CompareCellStrings, the textual order discovery output uses ("10-…"
// sorts before "9-…" there); event payloads and the canonical transition
// bytes are pinned to this numeric order, so the two stay distinct.
func CompareCells(a, b world.CellID) int {
	switch {
	case a.MCC != b.MCC:
		return a.MCC - b.MCC
	case a.MNC != b.MNC:
		return a.MNC - b.MNC
	case a.LAC != b.LAC:
		return a.LAC - b.LAC
	default:
		return a.CID - b.CID
	}
}

// Event is the wire shape delivered to subscribers: the canonical transition
// fields plus server-side enrichment and hub bookkeeping. JSON tags are the
// SSE `data:` payload format.
type Event struct {
	// Seq is the per-user sequence number the hub assigns at publish, and
	// the SSE `id:` used for Last-Event-ID resume. 1-based, gapless.
	Seq uint64 `json:"seq"`
	// Type is the event kind.
	Type string `json:"type"`
	// UserID is the trace owner.
	UserID string `json:"user_id"`
	// At / Start mirror Transition.
	At    time.Time `json:"at"`
	Start time.Time `json:"start"`

	// PlaceID is the matching stored place (from the user's last
	// discovery), or -1 when none matches — e.g. a brand-new place before
	// any discovery has run.
	PlaceID int64  `json:"place_id"`
	Label   string `json:"label,omitempty"`
	// Center/AccuracyMeters are the disclosed position, already degraded to
	// the subscriber's clamped granularity by the time they hit the wire.
	Center         geo.LatLng `json:"center"`
	AccuracyMeters float64    `json:"accuracy_m,omitempty"`

	// PredictedAt is set on predicted_next_visit events.
	PredictedAt time.Time `json:"predicted_at"`

	// PublishedUnixNano is the hub's wall-clock publish stamp; subscribers
	// derive delivery latency from it. Excluded from any determinism
	// comparison.
	PublishedUnixNano int64 `json:"published_unix_ns,omitempty"`
}

// Degrade returns a copy of the event with its positional payload clamped to
// the granularity tier, reusing the core privacy model: coordinates snap to
// the tier's disclosure grid and the reported accuracy coarsens to the
// tier's uncertainty. Non-positional fields pass through.
func Degrade(ev Event, g core.Granularity) Event {
	if !g.Valid() || ev.Center.IsZero() {
		return ev
	}
	ev.Center = core.DegradeCoordinates(ev.Center, g)
	if acc := g.AccuracyMeters(); acc > ev.AccuracyMeters {
		ev.AccuracyMeters = acc
	}
	return ev
}

// ToIntent converts a wire event into the core bus intent PMS-side apps
// would have received had the transition been detected locally, bridging the
// cloud fanout onto the in-process Connected Applications Module.
func ToIntent(ev Event) (core.Intent, bool) {
	var action string
	switch ev.Type {
	case KindPlaceEntry:
		action = core.ActionPlaceArrival
	case KindPlaceExit:
		action = core.ActionPlaceDeparture
	case KindRouteStart:
		action = core.ActionRouteStart
	case KindPredictedVisit:
		action = core.ActionPredictedVisit
	default:
		return core.Intent{}, false
	}
	in := core.Intent{Action: action, At: ev.At}
	if ev.Type == KindRouteStart {
		in.Route = &core.RouteInfo{Start: ev.At}
		return in, true
	}
	// "p<N>" is the PMS fusion layer's place id namespace; bridged intents
	// use it so apps see one id space regardless of where detection ran.
	id := ""
	if ev.PlaceID >= 0 {
		id = "p" + strconv.FormatInt(ev.PlaceID, 10)
	}
	in.Place = &core.PlaceInfo{
		ID:             id,
		Label:          ev.Label,
		Center:         ev.Center,
		AccuracyMeters: ev.AccuracyMeters,
	}
	return in, true
}

package cloud

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/gsm"
)

// Discovery and the streaming ingest share one cached pipeline per user
// (DESIGN.md §13): these tests pin that a streamed trace is segmented once,
// and that sharing it changes no published transition.

// publishedTransitions drains n events from sub and reduces them to their
// canonical transition fields.
func publishedTransitions(t *testing.T, sub *events.Subscriber, n int) []events.Transition {
	t.Helper()
	out := make([]events.Transition, 0, n)
	timeout := time.After(5 * time.Second)
	for len(out) < n {
		select {
		case ev := <-sub.C:
			out = append(out, events.Transition{Kind: ev.Type, At: ev.At, Start: ev.Start})
		case <-timeout:
			t.Fatalf("received %d of %d published events", len(out), n)
		}
	}
	return out
}

// canonicalOnly strips what events do not carry from reference transitions.
func canonicalOnly(ts []events.Transition) []events.Transition {
	out := make([]events.Transition, len(ts))
	for i, tr := range ts {
		out[i] = events.Transition{Kind: tr.Kind, At: tr.At, Start: tr.Start}
	}
	return out
}

// sameTransitions requires got and want to agree on every canonical field.
func sameTransitions(t *testing.T, what string, got, want []events.Transition) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d transitions published, want %d:\n got %+v\nwant %+v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].Kind != want[i].Kind || !got[i].At.Equal(want[i].At) || !got[i].Start.Equal(want[i].Start) {
			t.Errorf("%s: transition %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestStreamedTraceFoldedOnce streams a user's day and then discovers over
// it: the discovery extends the pipeline the stream already built instead of
// segmenting the trace a second time.
func TestStreamedTraceFoldedOnce(t *testing.T) {
	h := newDeltaHarness(t, nil, nil)
	c := h.newClient(t, "imei-fold")
	day := synthDays(1)
	if _, err := c.StreamObservations(context.Background(), day, 16); err != nil {
		t.Fatal(err)
	}
	pm := h.server.pool.m
	full, incremental := pm.full.Value(), pm.incremental.Value()
	got, err := c.DiscoverPlaces(day)
	if err != nil {
		t.Fatal(err)
	}
	if n := pm.full.Value() - full; n != 0 {
		t.Errorf("full pipeline builds +%d, want +0 (the stream's pipeline is cached)", n)
	}
	if n := pm.incremental.Value() - incremental; n != 1 {
		t.Errorf("incremental runs +%d, want +1", n)
	}
	want := gsm.Discover(day, gsm.DefaultParams()).Places
	if g, w := canonicalWire(t, got), canonicalWire(t, want); g != w {
		t.Errorf("places after stream then discover diverge from batch GCA:\n got %s\nwant %s", g, w)
	}
}

// TestDiscoverThenStream discovers a user's first half-day and streams the
// rest: the stream publishes exactly the transitions of its own
// observations — none for the discovered prefix, none twice.
func TestDiscoverThenStream(t *testing.T) {
	h := newDeltaHarness(t, nil, nil)
	c := h.newClient(t, "imei-discover-first")
	sub := h.server.Hub().Subscribe(c.UserID(), 0)
	defer sub.Close()

	day := synthDays(1)
	half := len(day) / 2
	if _, err := c.DiscoverPlaces(day[:half]); err != nil {
		t.Fatal(err)
	}
	res, err := c.StreamObservations(context.Background(), day, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Appended != len(day)-half {
		t.Fatalf("stream appended %d, want %d", res.Appended, len(day)-half)
	}

	ref := events.NewDetector(gsm.DefaultParams())
	ref.CatchUp(day[:half])
	want := canonicalOnly(ref.Feed(day[half:]))
	if len(want) == 0 {
		t.Fatal("reference suffix emits no transition; the test trace is too small")
	}
	if res.Events != len(want) {
		t.Errorf("stream reported %d events, want %d", res.Events, len(want))
	}
	sameTransitions(t, "discover then stream", publishedTransitions(t, sub, res.Events), want)
}

// TestStreamDiscoverStream folds a discovery's delta upload into the
// pipeline between two streams: the second stream publishes the folded
// observations' transitions before its own, so over both streams the user
// sees exactly the transitions of streaming the whole trace.
func TestStreamDiscoverStream(t *testing.T) {
	h := newDeltaHarness(t, nil, nil)
	c := h.newClient(t, "imei-interleave")
	sub := h.server.Hub().Subscribe(c.UserID(), 0)
	defer sub.Close()

	days := synthDays(2)
	// The discovery's delta holds a whole stay: the second day's home stay
	// opens and closes inside it.
	a, b := 70, 200
	res1, err := c.StreamObservations(context.Background(), days[:a], 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DiscoverPlaces(days[:b]); err != nil {
		t.Fatal(err)
	}
	res2, err := c.StreamObservations(context.Background(), days, 16)
	if err != nil {
		t.Fatal(err)
	}
	if n := h.server.pool.m.full.Value(); n != 0 {
		t.Errorf("full pipeline builds = %d, want 0", n)
	}

	want := canonicalOnly(events.NewDetector(gsm.DefaultParams()).Feed(days))
	got := publishedTransitions(t, sub, res1.Events+res2.Events)
	sameTransitions(t, "stream, discover, stream", got, want)
}

// TestStreamAndDiscoverConcurrently runs one user's stream batches against
// discoveries of the same user: whichever of them folds an observation in
// (or rebuilds the cached detector), every transition is published once, in
// order, and the final places equal batch GCA.
func TestStreamAndDiscoverConcurrently(t *testing.T) {
	h := newDeltaHarness(t, nil, nil)
	c := h.newClient(t, "imei-concurrent")
	uid := c.UserID()
	days := synthDays(3)

	// The first batch lands before any discovery: a discovery asked for the
	// position of a trace that did not exist yet names generation 0, which
	// no run can ever report.
	_, published, err := h.server.appendAndDetect(uid, days[:7])
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 7; i < len(days); i += 7 {
			batch := days[i:min(i+7, len(days))]
			_, ts, err := h.server.appendAndDetect(uid, batch)
			if err != nil {
				t.Error(err)
				return
			}
			published = append(published, ts...)
		}
	}()
	ctx := context.Background()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if _, err := h.server.pool.discover(ctx, uid, h.store.TraceStatusFor(uid)); err != nil {
			t.Fatal(err)
		}
	}

	want := canonicalOnly(events.NewDetector(gsm.DefaultParams()).Feed(days))
	sameTransitions(t, "stream racing discover", canonicalOnly(published), want)
	got, err := h.server.pool.discover(ctx, uid, h.store.TraceStatusFor(uid))
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := string(gotJSON), canonicalWire(t, gsm.Discover(days, gsm.DefaultParams()).Places); g != w {
		t.Errorf("places diverge from batch GCA:\n got %s\nwant %s", g, w)
	}
}

package cloud

// Tests for the delta trace sync protocol and the bounded discovery pool:
// uploaded bytes proportional to new data, 409 conflict → full-upload
// fallback, memoized retries, 429 backpressure with Retry-After, the 413
// typed error, and cursor survival across a PCI kill-and-restart.

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/gsm"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/world"
)

// deltaHarness is a cloud instance whose *Server (and thus discovery pool
// internals) stays visible to the test.
type deltaHarness struct {
	ts     *httptest.Server
	server *Server
	store  *Store
}

// newDeltaHarness boots a server over store (nil for a fresh memory store),
// optionally wrapping the handler with mw to observe raw requests.
func newDeltaHarness(t *testing.T, store *Store, mw func(http.Handler) http.Handler, opts ...ServerOption) *deltaHarness {
	t.Helper()
	if store == nil {
		store = NewStore(fixedNow(simclock.Epoch))
	}
	// Own registry per server: pool counters would otherwise accumulate in
	// the process-wide default registry across tests.
	opts = append([]ServerOption{WithMetrics(obs.NewRegistry())}, opts...)
	server := NewServer(store, opts...)
	var h http.Handler = server.Handler()
	if mw != nil {
		h = mw(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		server.Close()
	})
	return &deltaHarness{ts: ts, server: server, store: store}
}

// newClient returns a registered client with its own metrics registry, so
// counter assertions are isolated per test.
func (h *deltaHarness) newClient(t *testing.T, imei string, opts ...ClientOption) *Client {
	t.Helper()
	opts = append(opts, WithClientMetrics(obs.NewRegistry()))
	c := NewClient(h.ts.URL, imei, imei+"@example.com", h.ts.Client(), opts...)
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	return c
}

// obsPerSynthDay is the observation count of one synthDays day.
const obsPerSynthDay = 110

// synthDays builds a deterministic multi-day trace with a daily
// home → commute → work → commute rhythm: two stable oscillating stays plus
// fresh commute cells every day, at a one-minute cadence.
func synthDays(days int) []trace.GSMObservation {
	var out []trace.GSMObservation
	at := simclock.Epoch
	emit := func(cid int) {
		out = append(out, trace.GSMObservation{
			At:   at,
			Cell: world.CellID{MCC: 404, MNC: 10, LAC: 1, CID: cid},
		})
		at = at.Add(time.Minute)
	}
	for d := 0; d < days; d++ {
		for i := 0; i < 40; i++ {
			emit(10 + i%2)
		}
		for i := 0; i < 15; i++ {
			emit(1000 + d*100 + i)
		}
		for i := 0; i < 40; i++ {
			emit(20 + i%2)
		}
		for i := 0; i < 15; i++ {
			emit(2000 + d*100 + i)
		}
	}
	return out
}

// canonicalWire renders places in wire form for byte-level comparison.
// PlaceToWire sorts cell sets, so the encoding is deterministic.
func canonicalWire(t *testing.T, places []*gsm.Place) string {
	t.Helper()
	ws := make([]PlaceWire, 0, len(places))
	for _, p := range places {
		ws = append(ws, PlaceToWire(p))
	}
	data, err := json.Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestDeltaSyncUploadsOnlyNewData is the tentpole's bandwidth claim: after a
// full sync, re-discovering with one extra day uploads bytes proportional to
// that day, not the whole history — and the result still matches batch GCA.
func TestDeltaSyncUploadsOnlyNewData(t *testing.T) {
	var mu sync.Mutex
	var sizes []int64
	mw := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == PathPlacesDiscover {
				mu.Lock()
				sizes = append(sizes, r.ContentLength)
				mu.Unlock()
			}
			next.ServeHTTP(w, r)
		})
	}
	h := newDeltaHarness(t, nil, mw)
	c := h.newClient(t, "imei-delta")

	full := synthDays(30)
	if _, err := c.DiscoverPlaces(full[:29*obsPerSynthDay]); err != nil {
		t.Fatal(err)
	}
	got, err := c.DiscoverPlaces(full)
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(sizes) != 2 {
		t.Fatalf("discover requests = %d, want 2", len(sizes))
	}
	// One new day out of 30: the delta body must be a small fraction of the
	// initial 29-day upload (1/10 leaves generous envelope headroom).
	if sizes[1] >= sizes[0]/10 {
		t.Errorf("delta upload %d bytes not proportional to one day (full 29-day upload was %d)", sizes[1], sizes[0])
	}
	if n := c.m.deltaUploads.Value(); n != 1 {
		t.Errorf("delta uploads = %d, want 1", n)
	}
	if n := c.m.deltaFallbacks.Value(); n != 0 {
		t.Errorf("delta fallbacks = %d, want 0", n)
	}
	pm := h.server.pool.m
	if n := pm.full.Value(); n != 1 {
		t.Errorf("full pipeline builds = %d, want 1", n)
	}
	if n := pm.incremental.Value(); n != 1 {
		t.Errorf("incremental runs = %d, want 1", n)
	}
	if n := pm.appended.Value(); n != uint64(obsPerSynthDay) {
		t.Errorf("appended observations = %d, want %d", n, obsPerSynthDay)
	}
	if st := h.store.TraceStatusFor(c.UserID()); st.Len != int64(len(full)) || st.Hash != TraceHash(full) {
		t.Errorf("server trace status = %+v, want len %d hash %d", st, len(full), TraceHash(full))
	}
	want := gsm.Discover(full, gsm.DefaultParams()).Places
	if g, w := canonicalWire(t, got), canonicalWire(t, want); g != w {
		t.Errorf("delta-synced places diverge from batch GCA:\n got %s\nwant %s", g, w)
	}
}

// TestDeltaConflictFallsBackToFull: when the server's persisted trace no
// longer matches the client's cursor claim, the server answers 409 and the
// client transparently re-sends a full upload, then heals its cursor.
func TestDeltaConflictFallsBackToFull(t *testing.T) {
	h := newDeltaHarness(t, nil, nil)
	c := h.newClient(t, "imei-conflict")
	if _, err := c.DiscoverPlaces(synthDays(2)); err != nil {
		t.Fatal(err)
	}

	// Diverge the server behind the client's back: replace the persisted
	// trace with a shorter one, so the client's cursor now overshoots it.
	if _, _, err := h.store.SyncTrace(c.UserID(), false, 0, 0, synthDays(1)); err != nil {
		t.Fatal(err)
	}

	full := synthDays(3)
	got, err := c.DiscoverPlaces(full)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.m.deltaFallbacks.Value(); n != 1 {
		t.Errorf("delta fallbacks = %d, want 1", n)
	}
	if n := h.server.pool.m.conflicts.Value(); n != 1 {
		t.Errorf("server trace conflicts = %d, want 1", n)
	}
	want := gsm.Discover(full, gsm.DefaultParams()).Places
	if g, w := canonicalWire(t, got), canonicalWire(t, want); g != w {
		t.Errorf("post-fallback places diverge from batch GCA:\n got %s\nwant %s", g, w)
	}

	// The fallback's response healed the cursor: the next extension goes
	// back to delta with no further conflicts.
	if _, err := c.DiscoverPlaces(synthDays(4)); err != nil {
		t.Fatal(err)
	}
	if n := c.m.deltaFallbacks.Value(); n != 1 {
		t.Errorf("delta fallbacks after heal = %d, want still 1", n)
	}
	if n := c.m.deltaUploads.Value(); n != 2 {
		t.Errorf("delta uploads = %d, want 2", n)
	}
}

// TestDiscoverMemoMakesRetriesFree: re-sending a trace the server has
// already discovered against — the retry-after-lost-response shape, via both
// the delta path and an identical full upload — answers from the result memo
// without recomputation.
func TestDiscoverMemoMakesRetriesFree(t *testing.T) {
	h := newDeltaHarness(t, nil, nil)
	c := h.newClient(t, "imei-memo")
	obsA := synthDays(2)
	if _, err := c.DiscoverPlaces(obsA); err != nil {
		t.Fatal(err)
	}
	pm := h.server.pool.m
	if n := pm.full.Value(); n != 1 {
		t.Fatalf("runs after first discover = %d, want 1", n)
	}

	// Same trace again: the cursor covers all of it, the delta carries no
	// observations, and the memo answers without queueing a run.
	if _, err := c.DiscoverPlaces(obsA); err != nil {
		t.Fatal(err)
	}
	if n := pm.memoHits.Value(); n != 1 {
		t.Errorf("memo hits = %d, want 1", n)
	}

	// A cursor-less client re-uploading the identical trace in full is also
	// a no-op: the replace is detected as identical, the generation is not
	// bumped, and the memo still answers.
	c2 := h.newClient(t, "imei-memo")
	if _, err := c2.DiscoverPlaces(obsA); err != nil {
		t.Fatal(err)
	}
	if n := pm.memoHits.Value(); n != 2 {
		t.Errorf("memo hits after identical full upload = %d, want 2", n)
	}
	if n := pm.full.Value() + pm.incremental.Value(); n != 1 {
		t.Errorf("discovery runs = %d, want still 1 (retries must be free)", n)
	}

	// Genuinely new data does run — incrementally, on the cached pipeline.
	if _, err := c.DiscoverPlaces(synthDays(3)); err != nil {
		t.Fatal(err)
	}
	if n := pm.incremental.Value(); n != 1 {
		t.Errorf("incremental runs = %d, want 1", n)
	}
}

// TestDiscoverTraceReplacedMidRequest: a full upload that replaces the trace
// while a discover is queued moves the generation past the request's; the
// run over the newer trace answers it, with the newer trace's places,
// instead of the request re-queueing GCA until its context ends.
func TestDiscoverTraceReplacedMidRequest(t *testing.T) {
	h := newDeltaHarness(t, nil, nil, WithDiscoverPool(1, 1))
	uid := h.newClient(t, "imei-replaced").UserID()

	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	h.server.pool.testHook = func(string) {
		select {
		case entered <- struct{}{}:
		default: // a later run: nobody is waiting for it
		}
		<-hold
	}

	original, replacement := synthDays(2), synthDays(3)
	status, _, err := h.store.SyncTrace(uid, false, 0, 0, original)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(t.Context(), 2*time.Second)
	defer cancel()
	type result struct {
		places []PlaceWire
		err    error
	}
	done := make(chan result, 1)
	go func() {
		places, err := h.server.pool.discover(ctx, uid, status)
		done <- result{places, err}
	}()
	<-entered // the request's run is held before it reads the trace

	replaced, _, err := h.store.SyncTrace(uid, false, 0, 0, replacement)
	if err != nil {
		t.Fatal(err)
	}
	if replaced.Gen <= status.Gen {
		t.Fatalf("full upload left generation at %d (was %d)", replaced.Gen, status.Gen)
	}
	close(hold)

	res := <-done
	if res.err != nil {
		t.Fatalf("discover across a trace replace: %v", res.err)
	}
	pm := h.server.pool.m
	if runs := pm.full.Value() + pm.incremental.Value(); runs > 2 {
		t.Errorf("discover ran GCA %d times, want at most 2", runs)
	}
	// The superseded request answers with the replacing trace's places.
	places := make([]*gsm.Place, 0, len(res.places))
	for _, w := range res.places {
		places = append(places, WireToPlace(w))
	}
	got := canonicalWire(t, places)
	want := canonicalWire(t, gsm.Discover(replacement, gsm.DefaultParams()).Places)
	if got != want {
		t.Errorf("places diverge from batch GCA over the replacing trace:\n got %s\nwant %s", got, want)
	}
	if old := canonicalWire(t, gsm.Discover(original, gsm.DefaultParams()).Places); got == old {
		t.Errorf("places are the replaced trace's: %s", got)
	}
}

// TestDiscoverBackpressure429: with a one-worker one-slot pool, a third
// concurrent user is refused with 429 + Retry-After instead of queueing
// unboundedly, and succeeds once the pool drains.
func TestDiscoverBackpressure429(t *testing.T) {
	h := newDeltaHarness(t, nil, nil, WithDiscoverPool(1, 1))
	oneShot := WithRetryPolicy(RetryPolicy{MaxAttempts: 1})
	c1 := h.newClient(t, "imei-bp1", oneShot)
	c2 := h.newClient(t, "imei-bp2", oneShot)
	c3 := h.newClient(t, "imei-bp3", oneShot)

	hold := make(chan struct{})
	entered := make(chan string, 8)
	h.server.pool.testHook = func(uid string) {
		entered <- uid
		<-hold
	}

	errc := make(chan error, 2)
	go func() {
		_, err := c1.DiscoverPlaces(synthDays(1))
		errc <- err
	}()
	<-entered // worker is now held mid-job

	go func() {
		_, err := c2.DiscoverPlaces(synthDays(1))
		errc <- err
	}()
	// Wait for c2's job to occupy the single queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for h.server.pool.m.queueDepth.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second job never queued")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := c3.DiscoverPlaces(synthDays(1))
	var se *statusError
	if !errors.As(err, &se) || se.Status != http.StatusTooManyRequests {
		t.Fatalf("third discover error = %v, want 429", err)
	}
	if se.RetryAfter != time.Second {
		t.Errorf("Retry-After hint = %v, want 1s", se.RetryAfter)
	}
	if n := h.server.pool.m.rejected.Value(); n != 1 {
		t.Errorf("rejected = %d, want 1", n)
	}

	close(hold)
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("held discover %d failed after release: %v", i, err)
		}
	}
	if _, err := c3.DiscoverPlaces(synthDays(1)); err != nil {
		t.Fatalf("rejected client failed after drain: %v", err)
	}
}

// TestRetryAfterHintStretchesBackoff: the retry loop waits at least the
// server's Retry-After on 429, even when the policy's own backoff is tiny.
func TestRetryAfterHintStretchesBackoff(t *testing.T) {
	var slept []time.Duration
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}.
		WithSleep(func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		})
	busy := &statusError{Status: http.StatusTooManyRequests, Msg: "busy", RetryAfter: 2 * time.Second}
	err := p.run(context.Background(), true, func(context.Context) error { return busy })
	if err != busy {
		t.Fatalf("err = %v, want the 429", err)
	}
	if len(slept) != 2 {
		t.Fatalf("sleeps = %d, want 2", len(slept))
	}
	for i, d := range slept {
		if d < 2*time.Second {
			t.Errorf("sleep %d = %v, want >= server's 2s Retry-After", i, d)
		}
	}

	// Without a hint the policy's own (tiny) backoff is untouched.
	slept = nil
	plain := &statusError{Status: http.StatusTooManyRequests, Msg: "busy"}
	_ = p.run(context.Background(), true, func(context.Context) error { return plain })
	for i, d := range slept {
		if d >= 2*time.Second {
			t.Errorf("hint-less sleep %d = %v, want millisecond-scale backoff", i, d)
		}
	}
}

// TestRequestTooLargeTypedError: an upload over the server's body cap is
// rejected 413, surfaces as ErrRequestTooLarge (distinct from transient
// faults), and is not retried.
func TestRequestTooLargeTypedError(t *testing.T) {
	h := newDeltaHarness(t, nil, nil, WithMaxBodyBytes(16<<10))
	c := h.newClient(t, "imei-big")
	_, err := c.DiscoverPlaces(synthDays(5))
	if !errors.Is(err, ErrRequestTooLarge) {
		t.Fatalf("err = %v, want errors.Is(..., ErrRequestTooLarge)", err)
	}
	var se *statusError
	if !errors.As(err, &se) || se.Status != http.StatusRequestEntityTooLarge {
		t.Fatalf("err = %v, want HTTP 413", err)
	}
	if n := c.m.retries.Value(); n != 0 {
		t.Errorf("retries = %d, want 0 (413 is terminal)", n)
	}
	// A small upload on the same client still works.
	if _, err := c.DiscoverPlaces(synthDays(1)[:20]); err != nil {
		t.Fatalf("small upload after 413: %v", err)
	}
}

// TestDeltaSurvivesRestart is the kill-and-restart equivalence property:
// upload a trace in random day-batches, restart the PCI (new process state,
// same data directory) at a random point, keep delta-syncing against the
// recovered instance, and the final places must be byte-identical to batch
// GCA over the full trace — with no cursor conflicts, because the persisted
// trace was replayed from the WAL.
func TestDeltaSurvivesRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const days = 8
	full := synthDays(days)
	want := canonicalWire(t, gsm.Discover(full, gsm.DefaultParams()).Places)

	for round := 0; round < 3; round++ {
		// Three random day boundaries: batch 1, batch 2, restart, batch 3,
		// then the full trace.
		cuts := map[int]bool{}
		for len(cuts) < 3 {
			cuts[(1+rng.Intn(days-1))*obsPerSynthDay] = true
		}
		var bounds []int
		for c := range cuts {
			bounds = append(bounds, c)
		}
		slices.Sort(bounds)

		dir := t.TempDir()
		cfg := StoreConfig{Now: fixedNow(simclock.Epoch), Sync: storage.SyncAlways}

		store1, err := OpenStore(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		server1 := NewServer(store1, WithMetrics(obs.NewRegistry()))
		ts1 := httptest.NewServer(server1.Handler())
		c1 := NewClient(ts1.URL, "imei-restart", "r@example.com", nil, WithClientMetrics(obs.NewRegistry()))
		if err := c1.Register(); err != nil {
			t.Fatal(err)
		}
		uid := c1.UserID()
		if _, err := c1.DiscoverPlaces(full[:bounds[0]]); err != nil {
			t.Fatal(err)
		}
		if _, err := c1.DiscoverPlaces(full[:bounds[1]]); err != nil {
			t.Fatal(err)
		}
		curLen, curHash := c1.traceLen, c1.traceHash

		// Kill the PCI: the pool's memo and pipeline cache die with it; only
		// the WAL-backed store survives.
		ts1.Close()
		server1.Close()
		if err := store1.Close(); err != nil {
			t.Fatal(err)
		}

		store2, err := OpenStore(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		server2 := NewServer(store2, WithMetrics(obs.NewRegistry()))
		ts2 := httptest.NewServer(server2.Handler())
		c2 := NewClient(ts2.URL, "imei-restart", "r@example.com", nil, WithClientMetrics(obs.NewRegistry()))
		if err := c2.Register(); err != nil {
			t.Fatal(err)
		}
		if c2.UserID() != uid {
			t.Fatalf("restart changed user identity: %q vs %q", c2.UserID(), uid)
		}
		// The device carries its cursor across the server restart.
		c2.storeCursor(curLen, curHash)

		if st := store2.TraceStatusFor(uid); st.Len != curLen || st.Hash != curHash {
			t.Fatalf("round %d: recovered trace status %+v, want len %d hash %d", round, st, curLen, curHash)
		}
		if _, err := c2.DiscoverPlaces(full[:bounds[2]]); err != nil {
			t.Fatal(err)
		}
		got, err := c2.DiscoverPlaces(full)
		if err != nil {
			t.Fatal(err)
		}
		if n := c2.m.deltaUploads.Value(); n != 2 {
			t.Errorf("round %d: post-restart delta uploads = %d, want 2", round, n)
		}
		if n := c2.m.deltaFallbacks.Value(); n != 0 {
			t.Errorf("round %d: delta fallbacks = %d, want 0 (recovery must preserve the trace)", round, n)
		}
		if n := server2.pool.m.conflicts.Value(); n != 0 {
			t.Errorf("round %d: server conflicts = %d, want 0", round, n)
		}
		if g := canonicalWire(t, got); g != want {
			t.Errorf("round %d: places after restart diverge from batch GCA:\n got %s\nwant %s", round, g, want)
		}

		ts2.Close()
		server2.Close()
		if err := store2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/geo"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// streamServer is the stream-test harness: like testServer but exposing the
// Server so tests can reach the hub directly.
type streamServer struct {
	srv    *httptest.Server
	server *Server
	store  *Store
}

func newStreamServer(t *testing.T, opts ...ServerOption) *streamServer {
	t.Helper()
	now := simclock.Epoch
	store := NewStore(func() time.Time { return now })
	server := NewServer(store, opts...)
	ts := httptest.NewServer(server.Handler())
	t.Cleanup(func() {
		ts.Close()
		server.Close()
	})
	return &streamServer{srv: ts, server: server, store: store}
}

// register performs the registration handshake over raw HTTP and returns the
// bearer token and user id.
func (ss *streamServer) register(t *testing.T) (token, uid string) {
	t.Helper()
	resp, err := http.Post(ss.srv.URL+PathRegister, "application/json",
		strings.NewReader(`{"imei":"imei-9","email":"tester@example.com"}`))
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	defer resp.Body.Close()
	var rr RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatalf("register decode: %v", err)
	}
	return rr.Token, rr.UserID
}

// subscribeSSE opens the raw SSE subscription. The returned cancel tears the
// connection down; the FrameReader yields frames as they arrive.
func (ss *streamServer) subscribeSSE(t *testing.T, token, query, lastEventID string) (*events.FrameReader, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	u := ss.srv.URL + PathEventsSubscribe
	if query != "" {
		u += "?" + query
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		cancel()
		t.Fatalf("subscribe request: %v", err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := ss.srv.Client().Do(req)
	if err != nil {
		cancel()
		t.Fatalf("subscribe: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("subscribe: http %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("subscribe Content-Type = %q, want text/event-stream", ct)
	}
	t.Cleanup(cancel)
	return events.NewFrameReader(resp.Body), cancel
}

// streamBody renders observation batches as the concatenated-JSON stream
// body.
func streamBody(t *testing.T, batches ...[]trace.GSMObservation) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, b := range batches {
		if err := json.NewEncoder(&buf).Encode(StreamBatch{Observations: b}); err != nil {
			t.Fatalf("encode batch: %v", err)
		}
	}
	return buf.Bytes()
}

// postStream sends a pre-rendered stream body and decodes the result.
func (ss *streamServer) postStream(t *testing.T, token string, body []byte) (StreamResult, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ss.srv.URL+PathObservationsStream, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("stream request: %v", err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := ss.srv.Client().Do(req)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	var res StreamResult
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatalf("stream result decode: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return res, resp
}

// readFrames collects n non-control frames (control frames are returned too,
// but do not count) with a deadline enforced by the caller's cancel.
func readFrames(t *testing.T, fr *events.FrameReader, n int) []events.Frame {
	t.Helper()
	var out []events.Frame
	got := 0
	for got < n {
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("frame read after %d/%d events: %v", got, n, err)
		}
		out = append(out, f)
		if f.Event != events.KindReset && f.Event != events.KindEvicted {
			got++
		}
	}
	return out
}

// TestStreamIngestEndToEnd streams a trace with two stays and checks the
// subscriber sees the place transitions (entry, exit, route start, entry) in
// sequence order while the trace lands persisted and delta-sync compatible.
func TestStreamIngestEndToEnd(t *testing.T) {
	ss := newStreamServer(t)
	token, uid := ss.register(t)
	fr, cancel := ss.subscribeSSE(t, token, "", "")
	defer cancel()

	obs := oscillatingTrace()
	res, resp := ss.postStream(t, token, streamBody(t, obs[:30], obs[30:31], nil, obs[31:]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: http %d", resp.StatusCode)
	}
	if res.Appended != len(obs) {
		t.Errorf("Appended = %d, want %d", res.Appended, len(obs))
	}
	if res.TraceLen != int64(len(obs)) || res.TraceHash != TraceHash(obs) {
		t.Errorf("trace position = (%d,%d), want (%d,%d)", res.TraceLen, res.TraceHash, len(obs), TraceHash(obs))
	}
	if res.Events != 4 {
		t.Errorf("Events = %d, want 4 (entry, exit, route start, entry)", res.Events)
	}
	if st := ss.store.TraceStatusFor(uid); st.Len != int64(len(obs)) {
		t.Errorf("persisted trace len = %d, want %d", st.Len, len(obs))
	}

	frames := readFrames(t, fr, 4)
	wantKinds := []string{events.KindPlaceEntry, events.KindPlaceExit, events.KindRouteStart, events.KindPlaceEntry}
	for i, f := range frames {
		if f.Event != wantKinds[i] {
			t.Errorf("frame %d kind = %q, want %q", i, f.Event, wantKinds[i])
		}
		ev, err := f.DecodeEvent()
		if err != nil {
			t.Fatalf("frame %d decode: %v", i, err)
		}
		if ev.Seq != uint64(i+1) {
			t.Errorf("frame %d seq = %d, want %d", i, ev.Seq, i+1)
		}
		if ev.UserID != uid {
			t.Errorf("frame %d user = %q, want %q", i, ev.UserID, uid)
		}
	}

	// An exit pairs with its entry: Start matches the first entry's At.
	entry, _ := frames[0].DecodeEvent()
	exit, _ := frames[1].DecodeEvent()
	if !exit.Start.Equal(entry.At) {
		t.Errorf("exit.Start = %v, want entry.At %v", exit.Start, entry.At)
	}
}

// TestStreamResumesAcrossRequests pins that a second stream request extends
// the same trace and detector state: no transition is re-published and the
// sequence keeps counting from where the first request left off.
func TestStreamResumesAcrossRequests(t *testing.T) {
	ss := newStreamServer(t)
	token, _ := ss.register(t)
	fr, cancel := ss.subscribeSSE(t, token, "", "")
	defer cancel()

	obs := oscillatingTrace()
	res1, _ := ss.postStream(t, token, streamBody(t, obs[:50]))
	res2, _ := ss.postStream(t, token, streamBody(t, obs[50:]))
	if res1.Events+res2.Events != 4 {
		t.Errorf("split stream events = %d+%d, want 4 total", res1.Events, res2.Events)
	}
	if res2.TraceLen != int64(len(obs)) {
		t.Errorf("TraceLen after second stream = %d, want %d", res2.TraceLen, len(obs))
	}
	frames := readFrames(t, fr, 4)
	for i, f := range frames {
		ev, err := f.DecodeEvent()
		if err != nil {
			t.Fatalf("frame %d decode: %v", i, err)
		}
		if ev.Seq != uint64(i+1) {
			t.Errorf("frame %d seq = %d, want %d (no re-publication across requests)", i, ev.Seq, i+1)
		}
	}
}

// TestStreamExemptFromMaxBody is the satellite regression: a stream whose
// cumulative body far exceeds -max-body stays open and ingests everything,
// while the batch endpoints still enforce the cap.
func TestStreamExemptFromMaxBody(t *testing.T) {
	const cap = 2048
	ss := newStreamServer(t, WithMaxBodyBytes(cap))
	token, _ := ss.register(t)

	// ~200 observations across many batches: far more than cap bytes.
	var batches [][]trace.GSMObservation
	for i := 0; i < 20; i++ {
		var b []trace.GSMObservation
		for j := 0; j < 10; j++ {
			b = append(b, cellObs(i*10+j, 1+(i*10+j)%3))
		}
		batches = append(batches, b)
	}
	body := streamBody(t, batches...)
	if len(body) <= 4*cap {
		t.Fatalf("test body only %d bytes; grow it past the cap (%d)", len(body), cap)
	}
	res, resp := ss.postStream(t, token, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream with %d-byte body under max-body %d: http %d", len(body), cap, resp.StatusCode)
	}
	if res.Appended != 200 {
		t.Errorf("Appended = %d, want 200", res.Appended)
	}

	// Control: the non-streaming endpoint still rejects oversized bodies.
	big := DiscoverPlacesRequest{Observations: make([]trace.GSMObservation, 0, 512)}
	for i := 0; i < 512; i++ {
		big.Observations = append(big.Observations, cellObs(1000+i, 5))
	}
	payload, _ := json.Marshal(big)
	if int64(len(payload)) <= cap {
		t.Fatalf("control body only %d bytes", len(payload))
	}
	req, _ := http.NewRequest(http.MethodPost, ss.srv.URL+PathPlacesDiscover, bytes.NewReader(payload))
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("Content-Type", "application/json")
	cresp, err := ss.srv.Client().Do(req)
	if err != nil {
		t.Fatalf("control discover: %v", err)
	}
	defer cresp.Body.Close()
	io.Copy(io.Discard, cresp.Body)
	if cresp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized discover: http %d, want 413 (max-body still enforced)", cresp.StatusCode)
	}
}

// TestStreamBatchOverMaxBody pins the per-batch bound on the JSON stream: a
// batch document over -max-body answers 413 naming the observations already
// appended, and exactly the batches before it are persisted. The body goes
// over a pipe, each good batch without a trailing newline, and the test waits
// for each to land before writing the next: a batch is ingested the moment
// its closing brace arrives, not when the next one starts.
func TestStreamBatchOverMaxBody(t *testing.T) {
	const cap = 2048
	ss := newStreamServer(t, WithMaxBodyBytes(cap))
	token, uid := ss.register(t)

	batch := func(from, n int) []byte {
		var obs []trace.GSMObservation
		for i := from; i < from+n; i++ {
			obs = append(obs, cellObs(i, 1+i%3))
		}
		return bytes.TrimSuffix(streamBody(t, obs), []byte("\n"))
	}
	good1, good2, big := batch(0, 5), batch(5, 5), batch(10, 40)
	if len(good1) > cap || len(big) <= cap {
		t.Fatalf("batch sizes %d and %d do not straddle the cap %d", len(good1), len(big), cap)
	}

	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, ss.srv.URL+PathObservationsStream, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	respc := make(chan *http.Response, 1)
	go func() {
		resp, err := ss.srv.Client().Do(req)
		if err != nil {
			t.Errorf("stream: %v", err)
		}
		respc <- resp
	}()
	waitLen := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for ss.store.TraceStatusFor(uid).Len != want {
			if time.Now().After(deadline) {
				t.Fatalf("trace len %d, want %d: the batch was not ingested on its closing brace", ss.store.TraceStatusFor(uid).Len, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i, b := range [][]byte{good1, good2} {
		if _, err := pw.Write(b); err != nil {
			t.Fatal(err)
		}
		waitLen(int64(5 * (i + 1)))
	}
	go func() {
		pw.Write(big) // the server stops reading partway; the error is the point
		pw.Close()
	}()
	resp := <-respc
	if resp == nil {
		return
	}
	defer resp.Body.Close()
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body: %v", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(e.Error, "after 10 observations") {
		t.Errorf("oversized batch: http %d %q, want 413 naming 10 observations", resp.StatusCode, e.Error)
	}
	if st := ss.store.TraceStatusFor(uid); st.Len != 10 {
		t.Errorf("persisted %d observations, want exactly the two good batches' 10", st.Len)
	}
}

// TestStreamOutOfOrderConflict pins the 409 on appends that would break the
// trace's time order, both within a batch and against the persisted tail.
func TestStreamOutOfOrderConflict(t *testing.T) {
	ss := newStreamServer(t)
	token, uid := ss.register(t)

	_, resp := ss.postStream(t, token, streamBody(t, []trace.GSMObservation{cellObs(10, 1), cellObs(5, 2)}))
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("in-batch disorder: http %d, want 409", resp.StatusCode)
	}
	if st := ss.store.TraceStatusFor(uid); st.Len != 0 {
		t.Errorf("disordered batch persisted %d observations", st.Len)
	}

	if _, resp := ss.postStream(t, token, streamBody(t, []trace.GSMObservation{cellObs(10, 1)})); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed append: http %d", resp.StatusCode)
	}
	_, resp = ss.postStream(t, token, streamBody(t, []trace.GSMObservation{cellObs(3, 1)}))
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("append before persisted tail: http %d, want 409", resp.StatusCode)
	}
	if st := ss.store.TraceStatusFor(uid); st.Len != 1 {
		t.Errorf("trace len = %d, want 1", st.Len)
	}
}

// TestStreamBadPayload pins the mid-stream garbage path: everything decoded
// before the bad batch is durable, the response is a 400.
func TestStreamBadPayload(t *testing.T) {
	ss := newStreamServer(t)
	token, uid := ss.register(t)
	body := append(streamBody(t, []trace.GSMObservation{cellObs(1, 1)}), []byte("{nonsense")...)
	_, resp := ss.postStream(t, token, body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage batch: http %d, want 400", resp.StatusCode)
	}
	if st := ss.store.TraceStatusFor(uid); st.Len != 1 {
		t.Errorf("observations before the garbage: len = %d, want 1", st.Len)
	}
}

// TestClientStreamObservations pins the client-side streaming upload: the
// trace streams in batches over one chunked request, repeat calls are
// cursor-aware (only the new tail ships, an up-to-date client streams
// nothing), and a later DiscoverPlaces delta-syncs from the streamed position
// instead of falling back to a full upload.
func TestClientStreamObservations(t *testing.T) {
	ss := newStreamServer(t)
	c := NewClient(ss.srv.URL, "imei-9", "tester@example.com", ss.srv.Client())
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	obs := oscillatingTrace()

	res, err := c.StreamObservations(context.Background(), obs[:60], 16)
	if err != nil {
		t.Fatalf("first stream: %v", err)
	}
	if res.Appended != 60 || res.TraceLen != 60 {
		t.Errorf("first stream appended %d to len %d, want 60/60", res.Appended, res.TraceLen)
	}

	// Full trace handed in again: only the unacknowledged tail streams.
	res, err = c.StreamObservations(context.Background(), obs, 16)
	if err != nil {
		t.Fatalf("tail stream: %v", err)
	}
	if want := len(obs) - 60; res.Appended != want {
		t.Errorf("tail stream appended %d, want %d", res.Appended, want)
	}
	if res.TraceLen != int64(len(obs)) || res.TraceHash != TraceHash(obs) {
		t.Errorf("trace position = (%d,%d), want (%d,%d)", res.TraceLen, res.TraceHash, len(obs), TraceHash(obs))
	}

	// Up to date: nothing streams, the current position comes back.
	res, err = c.StreamObservations(context.Background(), obs, 16)
	if err != nil {
		t.Fatalf("no-op stream: %v", err)
	}
	if res.Appended != 0 || res.TraceLen != int64(len(obs)) {
		t.Errorf("no-op stream appended %d to len %d, want 0/%d", res.Appended, res.TraceLen, len(obs))
	}

	// Cursor interop: discovery delta-syncs off the streamed position.
	// Client counters live in the shared default registry, so measure the
	// deltas around the call rather than absolute values.
	baseDeltas, baseFallbacks := c.m.deltaUploads.Value(), c.m.deltaFallbacks.Value()
	if _, err := c.DiscoverPlaces(obs); err != nil {
		t.Fatalf("discover after stream: %v", err)
	}
	if d := c.m.deltaUploads.Value() - baseDeltas; d != 1 {
		t.Errorf("deltaUploads delta = %d, want 1 (discover should ride the streamed cursor)", d)
	}
	if f := c.m.deltaFallbacks.Value() - baseFallbacks; f != 0 {
		t.Errorf("deltaFallbacks delta = %d, want 0", f)
	}
}

// TestSubscribeGranularityClamp pins per-subscriber privacy clamping: the
// same published event arrives at different positional precision per the
// subscriber's granularity tier, and the hub keeps full precision.
func TestSubscribeGranularityClamp(t *testing.T) {
	ss := newStreamServer(t)
	token, uid := ss.register(t)

	area, cancelA := ss.subscribeSSE(t, token, "granularity=area", "")
	defer cancelA()
	room, cancelR := ss.subscribeSSE(t, token, "granularity=room", "")
	defer cancelR()

	ev := events.Event{
		Type:           events.KindPlaceEntry,
		UserID:         uid,
		At:             simclock.Epoch,
		Center:         geo.LatLng{Lat: 48.137154, Lng: 11.576124},
		AccuracyMeters: 30,
	}
	if !ss.server.Hub().Publish(ev) {
		t.Fatal("publish rejected")
	}

	gotArea, err := readFrames(t, area, 1)[0].DecodeEvent()
	if err != nil {
		t.Fatalf("area decode: %v", err)
	}
	gotRoom, err := readFrames(t, room, 1)[0].DecodeEvent()
	if err != nil {
		t.Fatalf("room decode: %v", err)
	}
	wantArea := events.Degrade(ev, core.GranularityArea)
	if gotArea.Center != wantArea.Center || gotArea.AccuracyMeters != wantArea.AccuracyMeters {
		t.Errorf("area event = (%v, %v), want (%v, %v)",
			gotArea.Center, gotArea.AccuracyMeters, wantArea.Center, wantArea.AccuracyMeters)
	}
	if gotRoom.Center != ev.Center {
		t.Errorf("room event center = %v, want full precision %v", gotRoom.Center, ev.Center)
	}
	if gotArea.Center == gotRoom.Center {
		t.Error("area and room subscribers saw identical coordinates; clamp is not per-subscriber")
	}

	// Bad granularity is rejected up front.
	req, _ := http.NewRequest(http.MethodGet, ss.srv.URL+PathEventsSubscribe+"?granularity=exact", nil)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := ss.srv.Client().Do(req)
	if err != nil {
		t.Fatalf("bad granularity request: %v", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("granularity=exact: http %d, want 400", resp.StatusCode)
	}
}

// TestSubscribeResumeOverHTTP pins Last-Event-ID resume through the HTTP
// layer: a reconnect after N events sees exactly the events after its
// Last-Event-ID, and a stale id gets the reset control frame.
func TestSubscribeResumeOverHTTP(t *testing.T) {
	ss := newStreamServer(t, WithEventQueue(0, 8))
	token, uid := ss.register(t)

	for i := 0; i < 20; i++ {
		ss.server.Hub().Publish(events.Event{Type: events.KindPlaceEntry, UserID: uid, Label: fmt.Sprintf("e%d", i)})
	}
	ss.server.Hub().Sync()

	// Resume within the ring (history 8 holds 13..20).
	fr, cancel := ss.subscribeSSE(t, token, "", "15")
	got := readFrames(t, fr, 5)
	for i, f := range got {
		ev, err := f.DecodeEvent()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ev.Seq != uint64(16+i) {
			t.Errorf("resumed frame %d seq = %d, want %d", i, ev.Seq, 16+i)
		}
	}
	cancel()

	// Resume from before the ring: first frame is the reset control carrying
	// the head sequence.
	fr2, cancel2 := ss.subscribeSSE(t, token, "", "2")
	defer cancel2()
	f, err := fr2.Next()
	if err != nil {
		t.Fatalf("reset frame: %v", err)
	}
	if f.Event != events.KindReset {
		t.Fatalf("first frame after stale resume = %q, want reset", f.Event)
	}
	var payload struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal(f.Data, &payload); err != nil || payload.Seq != 20 {
		t.Errorf("reset payload = %s (err %v), want seq 20", f.Data, err)
	}
}

package load

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/obs"
)

// e2eSpec is the ISSUE's smoke workload: 1k users, 30 virtual seconds.
func e2eSpec() *Spec {
	s := DefaultSpec()
	s.Name = "e2e-smoke"
	s.Users = 1000
	s.Mode = "closed"
	s.Concurrency = 8
	s.ThinkTimeMS = 250
	s.DurationSec = 30
	return s
}

// bootServer starts a real cloud server on a loopback listener with its
// metrics in a private registry, its cell database built from the same
// world the population uses.
func bootServer(t *testing.T, pop *Population, reg *obs.Registry) (*httptest.Server, *cloud.Server) {
	t.Helper()
	store := cloud.NewStore(nil)
	srv := cloud.NewServer(store,
		cloud.WithCellDatabase(cloud.NewCellDatabase(pop.World(), 150)),
		cloud.WithMetrics(reg),
	)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts, srv
}

func runOnce(t *testing.T, spec *Spec, seed int64) (*Report, []byte, obs.Snapshot, obs.Snapshot, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	var trace bytes.Buffer

	runner, err := NewRunner(RunnerConfig{
		Spec: spec, Seed: seed, TraceW: &trace,
		HTTP: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: spec.Concurrency * 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := bootServer(t, runner.Population(), reg)
	runner.SetBaseURL(ts.URL)

	before := reg.Snapshot()
	rep, err := runner.Run()
	if err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot()
	return rep, trace.Bytes(), before, after, reg
}

// TestE2ESmoke is the macro delta-pinning test: a real server, a real load
// run, and three independent accountings of the same traffic — the
// schedule's route counts, the client-side recorder, and the server's
// pci_http_* metric families — that must all agree exactly, with zero
// errors of any class.
func TestE2ESmoke(t *testing.T) {
	spec := e2eSpec()
	rep, trace, before, after, _ := runOnce(t, spec, 7)

	if err := rep.Check(); err != nil {
		t.Fatalf("report malformed: %v", err)
	}
	if rep.Workload.Requests < 500 {
		t.Fatalf("suspiciously small workload: %d requests", rep.Workload.Requests)
	}

	// Zero errors: every scheduled request completed 2xx. 429s count as
	// non-errors in the SLO but the smoke spec must not provoke any.
	main := rep.Measured.Main
	if main.OK != main.Requests {
		t.Fatalf("not clean: ok=%d of %d (429=%d 4xx=%d 5xx=%d transport=%d)",
			main.OK, main.Requests, main.Backpressure429, main.ClientErr4xx, main.ServerErr5xx, main.Transport)
	}

	// Client-side per-route counts == server-side family deltas.
	for route, scheduled := range rep.Workload.RouteCounts {
		name := obs.Labeled("pci_http_requests_total", "route", ServerRoute(route))
		delta := after.CounterDelta(before, name)
		if delta != scheduled {
			t.Errorf("route %s: server saw %d requests, schedule had %d", route, delta, scheduled)
		}
	}
	// No other route family member moved: total server requests == ours.
	totalDelta := after.FamilyTotal("pci_http_requests_total") - before.FamilyTotal("pci_http_requests_total")
	if totalDelta != main.Requests {
		t.Errorf("server served %d requests total, harness issued %d", totalDelta, main.Requests)
	}
	// Status classes: all 2xx.
	if d := after.CounterDelta(before, obs.Labeled("pci_http_responses_total", "class", "2xx")); d != main.Requests {
		t.Errorf("2xx responses %d != %d requests", d, main.Requests)
	}
	for _, class := range []string{"4xx", "5xx"} {
		if d := after.CounterDelta(before, obs.Labeled("pci_http_responses_total", "class", class)); d != 0 {
			t.Errorf("%s responses: %d, want 0", class, d)
		}
	}
	if g := after.Gauges["pci_http_in_flight"]; g != 0 {
		t.Errorf("in-flight gauge %d after run, want 0", g)
	}
	if len(trace) == 0 {
		t.Fatal("no trace written")
	}
}

// TestE2ESubscribers rides SSE subscribers along a streaming-ingest workload:
// every user has a subscriber attached, obs_stream requests publish place
// events server-side, and the report's events section must account for them
// with ordered delivery quantiles — cross-checked against the server's
// pci_events_* families.
func TestE2ESubscribers(t *testing.T) {
	spec := e2eSpec()
	spec.Name = "e2e-subscribers"
	spec.Users = 8
	spec.Concurrency = 4
	spec.DurationSec = 10
	spec.RouteMix = map[string]float64{
		RouteObsStream: 0.6,
		RouteDiscover:  0.2,
		RoutePlacesGet: 0.2,
	}
	spec.Subscribers = &SubscribersSpec{Count: 8}

	rep, _, before, after, reg := runOnce(t, spec, 11)
	if err := rep.Check(); err != nil {
		t.Fatalf("report malformed: %v", err)
	}
	main := rep.Measured.Main
	if main.OK != main.Requests {
		t.Fatalf("not clean: ok=%d of %d (4xx=%d 5xx=%d transport=%d)",
			main.OK, main.Requests, main.ClientErr4xx, main.ServerErr5xx, main.Transport)
	}
	if n := rep.Workload.RouteCounts[RouteObsStream]; n == 0 {
		t.Fatal("schedule generated no obs_stream requests")
	}

	ev := rep.Measured.Events
	if ev == nil {
		t.Fatal("no events section in the report")
	}
	if ev.Subscribers != 8 {
		t.Errorf("subscribers = %d, want 8", ev.Subscribers)
	}
	if ev.Errors != 0 {
		t.Errorf("%d subscriptions died mid-run", ev.Errors)
	}
	if ev.Delivered == 0 {
		t.Fatal("no events delivered: streaming ingest published nothing the subscribers saw")
	}
	if ev.DeliveryP99US <= 0 {
		t.Errorf("delivery p99 = %v, want > 0", ev.DeliveryP99US)
	}

	// Server-side accounting: the hub published at least what our
	// subscribers received (replays after evictions can only add to the
	// delivered counter, never subtract).
	published := after.CounterDelta(before, "pci_events_published_total")
	delivered := after.CounterDelta(before, "pci_events_delivered_total")
	if published == 0 {
		t.Error("server published no events")
	}
	if delivered < ev.Delivered {
		t.Errorf("server delivered %d < harness received %d", delivered, ev.Delivered)
	}
	// The gauge drains asynchronously: the server notices each disconnect
	// when its SSE handler returns, shortly after the harness closed the
	// client side.
	gauge := reg.Gauge("pci_events_subscribers")
	deadline := time.Now().Add(10 * time.Second)
	for gauge.Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := gauge.Value(); g != 0 {
		t.Errorf("subscribers gauge %d after detach, want 0", g)
	}
}

// TestE2EWireCodecDelta runs the same workload twice — once per wire codec —
// and pins the knob end to end: identical schedules, clean runs on both, the
// report's wire sections naming the codec each run actually spoke (no 415
// fallbacks against our own server), the server's pci_wire_encoding_total
// family agreeing, and the binary run moving strictly fewer body bytes.
func TestE2EWireCodecDelta(t *testing.T) {
	mkSpec := func(wire string) *Spec {
		s := e2eSpec()
		s.Name = "e2e-wire"
		s.Users = 8
		s.Concurrency = 4
		s.DurationSec = 8
		s.RouteMix = map[string]float64{
			RouteDiscover:     0.25,
			RouteObsStream:    0.15,
			RouteProfilePut:   0.20,
			RoutePlacesGet:    0.20,
			RouteProfileRange: 0.20,
		}
		s.Wire = wire
		return s
	}

	repJSON, traceJSON, _, afterJSON, _ := runOnce(t, mkSpec(""), 21)
	repBin, traceBin, beforeBin, afterBin, _ := runOnce(t, mkSpec("bin"), 21)

	for name, rep := range map[string]*Report{"json": repJSON, "bin": repBin} {
		if err := rep.Check(); err != nil {
			t.Fatalf("%s report malformed: %v", name, err)
		}
		if main := rep.Measured.Main; main.OK != main.Requests {
			t.Fatalf("%s run not clean: ok=%d of %d", name, main.OK, main.Requests)
		}
	}

	// The wire knob must not perturb the workload: same seed, same request
	// sequence. Only the traces' header lines may differ (they stamp the
	// spec hash, and the codec is part of the spec's identity).
	stripHeader := func(trace []byte) []byte {
		_, rest, _ := bytes.Cut(trace, []byte("\n"))
		return rest
	}
	if !bytes.Equal(stripHeader(traceJSON), stripHeader(traceBin)) {
		t.Fatal("request sequences differ between codecs: wire leaked into the schedule")
	}

	wj, wb := repJSON.Measured.Wire, repBin.Measured.Wire
	if wj == nil || wb == nil {
		t.Fatal("missing measured wire section")
	}
	if wj.Codec != "json" || repJSON.Workload.Wire != "json" {
		t.Errorf("json run reported codec %q / workload %q", wj.Codec, repJSON.Workload.Wire)
	}
	if wb.Codec != "bin" || repBin.Workload.Wire != "bin" {
		t.Errorf("bin run reported codec %q / workload %q", wb.Codec, repBin.Workload.Wire)
	}

	// The codec delta the report exists to surface: binary moves fewer bytes
	// in both directions under the identical request sequence.
	if wb.BytesSent >= wj.BytesSent {
		t.Errorf("binary sent %d bytes >= json %d", wb.BytesSent, wj.BytesSent)
	}
	if wb.BytesReceived >= wj.BytesReceived {
		t.Errorf("binary received %d bytes >= json %d", wb.BytesReceived, wj.BytesReceived)
	}

	// Server-side agreement: the json run negotiated no binary responses,
	// the bin run negotiated binary ones.
	if n := afterJSON.Counters[obs.Labeled("pci_wire_encoding_total", "codec", "bin")]; n != 0 {
		t.Errorf("json run produced %d binary-encoded responses", n)
	}
	if d := afterBin.CounterDelta(beforeBin, obs.Labeled("pci_wire_encoding_total", "codec", "bin")); d == 0 {
		t.Error("bin run produced no binary-encoded responses server-side")
	}
}

// TestE2EDeterministicReplay is the acceptance criterion: two full runs with
// the same seed and spec — fresh server, fresh store, fresh runner — produce
// byte-identical request traces and identical reports modulo wall-clock
// fields (the Workload section compares as JSON bytes; Measured is the
// wall-clock half).
func TestE2EDeterministicReplay(t *testing.T) {
	spec := e2eSpec()
	repA, traceA, _, _, _ := runOnce(t, spec, 1234)
	repB, traceB, _, _, _ := runOnce(t, spec, 1234)

	if !bytes.Equal(traceA, traceB) {
		t.Fatal("request traces differ between same-seed runs")
	}
	wa, err := json.Marshal(repA.Workload)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(repB.Workload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wa, wb) {
		t.Fatalf("workload sections differ:\n%s\n%s", wa, wb)
	}
	// The measured halves must agree on everything the schedule fixes —
	// request and outcome counts per route — even though latency numbers
	// differ run to run.
	if repA.Measured.Main.Requests != repB.Measured.Main.Requests {
		t.Fatal("executed request counts differ")
	}
	for i, rs := range repA.Measured.Main.Routes {
		other := repB.Measured.Main.Routes[i]
		if rs.Route != other.Route || rs.Requests != other.Requests || rs.OK != other.OK {
			t.Fatalf("route table diverged at %s", rs.Route)
		}
	}
}

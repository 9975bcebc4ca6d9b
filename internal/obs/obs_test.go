package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x_total") != c {
		t.Fatal("get-or-create returned a different counter")
	}

	g := r.Gauge("depth")
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_us", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 5126 {
		t.Fatalf("count/sum = %d/%d, want 5/5126", s.Count, s.Sum)
	}
	if s.Min != 5 || s.Max != 5000 {
		t.Fatalf("min/max = %d/%d, want 5/5000", s.Min, s.Max)
	}
	// Bucket semantics: bounds are inclusive upper bounds.
	want := []uint64{2, 2, 0, 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, c, want[i], s.Counts)
		}
	}
	h.ObserveDuration(250 * time.Microsecond)
	if got := h.Snapshot().Counts[2]; got != 1 {
		t.Fatalf("ObserveDuration(250us) landed wrong: buckets %v", h.Snapshot().Counts)
	}
	// Snapshots over different bounds do not merge.
	other := NewHistogram([]int64{10, 100, 2000}).Snapshot()
	if _, err := MergeHistogramSnapshots(h.Snapshot(), other); err == nil {
		t.Fatal("merging mismatched bounds succeeded")
	}
}

func TestCounterVecAndFamilyTotal(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "route")
	v.With("a").Add(3)
	v.With("b").Add(4)
	v.With("a").Inc()
	s := r.Snapshot()
	if got := s.Counter(`req_total{route="a"}`); got != 4 {
		t.Fatalf("member a = %d, want 4", got)
	}
	if got := s.FamilyTotal("req_total"); got != 8 {
		t.Fatalf("family total = %d, want 8", got)
	}
}

func TestKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("name")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge over a counter name did not panic")
		}
	}()
	r.Gauge("name")
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Add(2)
	before := r.Snapshot()
	c.Add(5)
	after := r.Snapshot()
	if got := after.CounterDelta(before, "x_total"); got != 5 {
		t.Fatalf("delta = %d, want 5", got)
	}
	// A counter born after the first snapshot deltas from zero.
	r.Counter("y_total").Add(3)
	if got := r.Snapshot().CounterDelta(before, "y_total"); got != 3 {
		t.Fatalf("new-counter delta = %d, want 3", got)
	}
}

func TestHandlerJSONAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(2)
	r.Gauge("g").Set(-3)
	r.Histogram("h_us", []int64{10, 100}).Observe(42)

	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["c_total"] != 2 || snap.Gauges["g"] != -3 {
		t.Fatalf("JSON snapshot wrong: %+v", snap)
	}
	if h := snap.Histograms["h_us"]; h.Count != 1 || h.Sum != 42 {
		t.Fatalf("JSON histogram wrong: %+v", snap.Histograms)
	}

	resp2, err := srv.Client().Get(srv.URL + "?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	data, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{"c_total 2", "g -3", "h_us_count 1", "h_us_sum 42", `h_us_bucket{le="100"} 1`, `h_us_bucket{le="+Inf"} 1`} {
		if !strings.Contains(text, want) {
			t.Errorf("text rendering missing %q:\n%s", want, text)
		}
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(50, 2, 4)
	want := []int64{50, 100, 200, 400}
	for i := range want {
		if exp[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", exp, want)
		}
	}
	lin := LinearBuckets(1, 2, 3)
	wantLin := []int64{1, 3, 5}
	for i := range wantLin {
		if lin[i] != wantLin[i] {
			t.Fatalf("LinearBuckets = %v, want %v", lin, wantLin)
		}
	}
	// Degenerate factor must still produce strictly increasing bounds.
	degen := ExpBuckets(1, 1.01, 5)
	for i := 1; i < len(degen); i++ {
		if degen[i] <= degen[i-1] {
			t.Fatalf("ExpBuckets not strictly increasing: %v", degen)
		}
	}
}

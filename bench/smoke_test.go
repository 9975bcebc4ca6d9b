package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// smokeScale keeps the whole package within tier-1's budget: a second of
// timed phase on a handful of templates, with compaction cadence and offered
// rate scaled to what a race-detector build still sustains.
var smokeScale = scale{templates: 8, compactEvery: 32, rate: 150, setupReps: 1, probeCalls: 50}

// TestSmoke runs every workload traced (plus one untraced, for the
// end-to-end set) at smoke scale. runOne itself fails on a failed op, a
// failed correctness check or a tripped validity guard, so what is left to
// assert is that every named metric is there and the span tree is sound.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := runOne(w, 1, 1, true, t.TempDir(), smokeScale)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, r, contractPerLayer)
			checkSpans(t, r.spans)
			want := []string{"read_after_write", "event_order", "durability"}
			if w.cluster {
				want[2] = "follower_equivalence"
			}
			for _, c := range want {
				if r.Checks[c] != "ok" {
					t.Errorf("check %s: %q", c, r.Checks[c])
				}
			}
		})
	}
	t.Run("untraced", func(t *testing.T) {
		r, err := runOne(workloads[1], 1, 1, false, t.TempDir(), smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		checkMetrics(t, r, contractEndToEnd)
		if r.Metrics["failed_frac"].Value != 0 {
			t.Errorf("failed_frac = %v", r.Metrics["failed_frac"].Value)
		}
	})
}

func checkMetrics(t *testing.T, r *result, want []metricDef) {
	t.Helper()
	if r.Failed != 0 || !r.Correct || r.Attempted == 0 {
		t.Errorf("attempted=%d failed=%d correct=%v", r.Attempted, r.Failed, r.Correct)
	}
	for _, d := range want {
		m, ok := r.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.name, m.Value)
		case m.Unit != d.unit:
			t.Errorf("metric %s has unit %q, catalogue says %q", d.name, m.Unit, d.unit)
		}
	}
}

// checkSpans asserts the span tree is well formed: every child names a parent
// span of the same op that exists and encloses it.
func checkSpans(t *testing.T, recs []spanRec) {
	t.Helper()
	type key struct {
		name string
		id   int64
	}
	byKey := map[key]spanRec{}
	handles := 0
	for _, s := range recs {
		if s.EndNS < s.StartNS {
			t.Fatalf("span %s/%d ends before it starts", s.Name, s.OpID)
		}
		byKey[key{s.Name, s.OpID}] = s
	}
	for _, s := range recs {
		if s.Parent == "" {
			continue
		}
		p, ok := byKey[key{s.Parent, s.OpID}]
		if !ok {
			t.Fatalf("span %s/%d has no %s parent", s.Name, s.OpID, s.Parent)
		}
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Fatalf("span %s/%d [%d,%d] is not inside its %s parent [%d,%d]", s.Name, s.OpID, s.StartNS, s.EndNS, s.Parent, p.StartNS, p.EndNS)
		}
		if s.Name == "server.handle" {
			handles++
		}
	}
	if handles == 0 {
		t.Fatal("no server.handle spans recorded")
	}
}

// TestScheduleDeterminism: the schedule hash is a pure function of (mix
// family or open-loop shape, seed, seconds).
func TestScheduleDeterminism(t *testing.T) {
	byName := map[string]workload{}
	for _, w := range workloads {
		byName[w.name] = w
		a, b := buildSchedule(w, 7, 2).hash(), buildSchedule(w, 7, 2).hash()
		if a != b {
			t.Errorf("%s: two builds of seed 7 hash %016x and %016x", w.name, a, b)
		}
		if c := buildSchedule(w, 8, 2).hash(); c == a {
			t.Errorf("%s: seeds 7 and 8 share schedule hash %016x", w.name, a)
		}
	}
	if a, b := buildSchedule(byName["write-churn"], 7, 2).hash(), buildSchedule(byName["repl-write"], 7, 2).hash(); a != b {
		t.Errorf("write-churn and repl-write differ for one seed: %016x vs %016x", a, b)
	}
	if a, b := buildSchedule(byName["write-churn"], 7, 2).hash(), buildSchedule(byName["read-bin"], 7, 2).hash(); a == b {
		t.Errorf("write-churn and read-bin share schedule hash %016x", a)
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the catalogue and the workload
// table: the file the acceptance driver reads and the program that answers it
// must name the same things.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []jm                         `json:"end_to_end"`
		PerLayer  []jm                         `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s / %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound %v, want %v", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, contractEndToEnd, true)
	same("per_layer", spec.PerLayer, contractPerLayer, false)
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4), which
// is what the acceptance driver computes spreads with.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7}, 1, 10},
		{[]float64{3, 1, 2, 4}, 1.25, 3.75},
	} {
		if q1, q3 := quartiles(tc.v); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestCompare drives -compare through its three verdicts.
func TestCompare(t *testing.T) {
	write := func(name string, opsPerS []float64, failed float64) string {
		var rs []*result
		for _, v := range opsPerS {
			rs = append(rs, &result{Workload: "read-bin", Metrics: metricSet{
				"ops_per_s":   {Value: v, Unit: "1/s"},
				"failed_frac": {Value: failed, Unit: "ratio"},
			}})
		}
		path := t.TempDir() + "/" + name
		if err := appendResults(path, rs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", []float64{1000, 1010, 990, 1005}, 0)
	for _, tc := range []struct {
		name    string
		ops     []float64
		failed  float64
		verdict string
		worse   bool
	}{
		{"same", []float64{1002, 995, 1008, 990}, 0, "ok", false},
		{"slower", []float64{600, 610, 590, 605}, 0, "worse", true},
		{"noisy", []float64{400, 1000, 1600, 700}, 0, "unresolved", false},
		{"failing", []float64{1002, 995, 1008, 990}, 0.01, "worse", true},
	} {
		var out strings.Builder
		worse, err := compareFiles(&out, base, write(tc.name+".json", tc.ops, tc.failed))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: worse=%v, output:\n%s", tc.name, worse, out.String())
		}
	}
}

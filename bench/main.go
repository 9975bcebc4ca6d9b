// Command bench is the repository's benchmark (ISSUE 11, bench/README.md):
// four named workloads driven in-process against a PCI booted the way
// cmd/pmware-cloud boots it, end-to-end metrics from untraced runs, per-layer
// metrics from traced runs plus probes, correctness checked every run.
//
//	go run ./bench -seed 1                       # every workload, untraced then traced
//	go run ./bench -seed 1 -workload read-bin    # one workload
//	go run ./bench -workload pms-day -seed 7 -seconds 10 -trace 0
//	                                             # one run; last stdout line is its JSON result
//	go run ./bench -compare a.json b.json        # per workload x metric verdicts
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/storage"
)

// provenance says what produced a result: enough to prove two result files
// ran the same inputs on comparable hosts.
type provenance struct {
	Commit       string            `json:"commit"`
	Command      string            `json:"command"`
	GoVersion    string            `json:"go_version"`
	Start        string            `json:"start"`
	Seed         int64             `json:"seed"`
	ScheduleHash string            `json:"schedule_hash"`
	Config       map[string]string `json:"config"`
	Host         map[string]any    `json:"host"`
}

// result is one run of one workload.
type result struct {
	Workload   string            `json:"workload"`
	Trace      int               `json:"trace"`
	Seconds    int               `json:"seconds"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Checks     map[string]string `json:"checks"`
	Metrics    metricSet         `json:"metrics"`
	Provenance provenance        `json:"provenance"`

	spans []spanRec
}

// scale is what differs between a real run and the smoke test.
type scale struct {
	templates    int     // 0 = the workload's own
	compactEvery int     // 0 = the workload's own
	rate         float64 // 0 = the workload's own
	setupReps    int
	probeCalls   int
}

var fullScale = scale{setupReps: 3, probeCalls: 2000}

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all four)")
		seed         = flag.Int64("seed", 1, "seed of templates, op order and arrival times")
		seconds      = flag.Int("seconds", 10, "timed phase length per run")
		traceMode    = flag.String("trace", "both", "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics), both")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for spans, result files and run data")
		dataDir      = flag.String("data-dir", "", "where run data directories live (default: under -out; ISSUE 11 recommends a tmpfs)")
		jsonPath     = flag.String("json", "", "append this invocation's results to a result file (input of -compare)")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments; exit 1 on any worse metric")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	var ws []workload
	if *workloadName == "" {
		ws = workloads
	} else {
		w, err := workloadByName(*workloadName)
		if err != nil {
			fatal(err)
		}
		ws = []workload{w}
	}
	var traces []int
	switch *traceMode {
	case "0":
		traces = []int{0}
	case "1":
		traces = []int{1}
	case "both":
		traces = []int{0, 1}
	default:
		fatal(fmt.Errorf("bad -trace %q", *traceMode))
	}
	if *dataDir == "" {
		*dataDir = *outDir
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	var results []*result
	for _, w := range ws {
		for _, tr := range traces {
			r, err := runOne(w, *seed, *seconds, tr == 1, *dataDir, fullScale)
			if err != nil {
				fatal(fmt.Errorf("%s (trace %d): %w", w.name, tr, err))
			}
			if tr == 1 {
				path := filepath.Join(*outDir, w.name+".spans.jsonl")
				if err := writeSpans(path, r.spans); err != nil {
					fatal(err)
				}
				fmt.Printf("spans: %s (%d)\n", path, len(r.spans))
			}
			printResult(os.Stdout, r)
			results = append(results, r)
		}
	}
	if *jsonPath != "" {
		if err := appendResults(*jsonPath, results); err != nil {
			fatal(err)
		}
	}
	if len(results) == 1 {
		// The single-run form is the acceptance driver's: the last line of
		// standard output is the run's result object.
		if err := printContractLine(os.Stdout, results[0]); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runOne sets the workload up (several times, for a steady setup_s), runs the
// timed phase, checks correctness, applies the validity guards and computes
// the run's metrics.
func runOne(w workload, seed int64, seconds int, traced bool, dataRoot string, sc scale) (*result, error) {
	if sc.templates > 0 {
		w.templates = sc.templates
	}
	if sc.compactEvery > 0 && w.compactEvery > 0 {
		w.compactEvery = sc.compactEvery
	}
	if sc.rate > 0 && w.open {
		w.rate = sc.rate
	}
	startedAt := time.Now()
	// A process that runs several workloads must not carry one's heap into
	// the next one's peak_rss_mb.
	debug.FreeOSMemory()
	resetPeakRSS()
	calib := calibrate()
	root, err := os.MkdirTemp(dataRoot, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	tmpfs := onTmpfs(root)
	if !tmpfs {
		fmt.Fprintf(os.Stderr, "bench: warning: data directory %s is not on tmpfs (host.datadir_tmpfs=0); latencies include device time", root)
		if w.fsync == storage.SyncAlways {
			// fsync=always is specified for a tmpfs, where the syscall is
			// made and costs nothing. On a disk it is ~80% of a write and
			// swings +-15% with the device, so the disk-backed equivalent is
			// the same path minus the per-commit fsync.
			w.fsync = storage.SyncNever
			fmt.Fprint(os.Stderr, "; fsync=always runs as fsync=never")
		}
		fmt.Fprintln(os.Stderr)
	}

	var e *env
	var setups []float64
	reps := sc.setupReps
	if traced {
		reps = 1 // a traced run does not report setup_s
	}
	for rep := 0; rep < reps; rep++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		if e, err = setUp(w, seed, seconds, traced, filepath.Join(root, fmt.Sprintf("setup-%d", rep))); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()

	ph := e.timedPhase(seconds)
	cs := e.classify(ph.wall)

	r := &result{
		Workload:  w.name,
		Seconds:   seconds,
		Attempted: cs.ok + cs.failed,
		Failed:    cs.failed,
		Checks:    map[string]string{},
		Provenance: provenance{
			Commit:       gitCommit(),
			Command:      strings.Join(os.Args, " "),
			GoVersion:    runtime.Version(),
			Start:        startedAt.UTC().Format(time.RFC3339),
			Seed:         seed,
			ScheduleHash: fmt.Sprintf("%016x", e.sched.hash()),
			Config: map[string]string{
				"fsync":         w.fsync.String(),
				"compact_every": fmt.Sprint(w.compactEvery),
				"wire":          w.wire.String(),
				"offered_rate":  fmt.Sprint(w.rate),
				"callers":       fmt.Sprint(callers),
				"templates":     fmt.Sprint(w.templates),
				"nodes":         fmt.Sprint(len(e.pci.nodes)),
			},
			Host: map[string]any{
				"cpus":          runtime.NumCPU(),
				"gomaxprocs":    runtime.GOMAXPROCS(0),
				"datadir_tmpfs": tmpfs,
				"calib_ms":      calib,
				"os_arch":       runtime.GOOS + "/" + runtime.GOARCH,
			},
		},
	}
	if traced {
		r.Trace = 1
	}

	// Correctness, every run.
	sample := e.sampled()
	check := func(name string, err error) {
		if err != nil {
			r.Checks[name] = err.Error()
		} else {
			r.Checks[name] = "ok"
		}
	}
	if len(sample) < min(50, len(e.vus)) {
		check("read_after_write", fmt.Errorf("only %d finished sessions to sample", len(sample)))
	} else {
		check("read_after_write", e.checkReadAfterWrite(sample))
	}
	check("event_order", e.checkEvents())
	recoverS, rerr := e.checkRecovery(sample)
	if w.cluster {
		check("follower_equivalence", rerr)
	} else {
		check("durability", rerr)
	}
	r.Correct = cs.failed == 0
	for _, v := range r.Checks {
		r.Correct = r.Correct && v == "ok"
	}

	if traced {
		// Size the bare-storage probe's record like the run's mean WAL record
		// (counted from boot: read-bin journals only during preload).
		c := ph.server[1].Counters
		recBytes := ratio(float64(c["storage_wal_append_bytes_total"]), float64(c["storage_wal_append_records_total"]))
		pr, err := e.probes(sc.probeCalls, int(recBytes))
		if err != nil {
			return nil, err
		}
		r.Metrics = e.perLayer(ph, cs, pr, recoverS)
		r.Metrics.set("host.cpus", float64(runtime.NumCPU()), "count")
		r.Metrics.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
		r.Metrics.set("host.datadir_tmpfs", b2f(tmpfs), "bool")
		r.Metrics.set("host.calib_ms", calib, "ms")
		r.spans = e.tracer.records()
	} else {
		r.Metrics = e.endToEnd(ph, cs, median(setups), recoverS)
	}
	if err := e.guards(ph, cs); err != nil {
		printResult(os.Stderr, r)
		return nil, fmt.Errorf("invalid run: %w", err)
	}
	if !r.Correct {
		printResult(os.Stderr, r)
		if f := e.firstFailure.Load(); f != nil {
			return nil, fmt.Errorf("incorrect run: %d of %d ops failed, first %s: %v", cs.failed, r.Attempted, f.kind, f.err)
		}
		return nil, fmt.Errorf("incorrect run: checks %v", r.Checks)
	}
	return r, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// calibrate times a fixed FNV pass over 64 MiB. It shows machine drift
// between runs; nothing is ever normalised by it.
func calibrate() float64 {
	// 64 passes over 1 MiB: the same work without a 64 MiB allocation showing
	// up in peak_rss_mb.
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	t0 := time.Now()
	h := fnv.New64a()
	for pass := 0; pass < 64; pass++ {
		_, _ = h.Write(buf)
	}
	sink = h.Sum64()
	return float64(time.Since(t0).Microseconds()) / 1000
}

var sink uint64

// gitCommit is best effort: the acceptance checkout is not a git repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "\n== %s  trace=%d  seed=%d  seconds=%d  schedule_hash=%s\n", r.Workload, r.Trace, r.Provenance.Seed, r.Seconds, r.Provenance.ScheduleHash)
	fmt.Fprintf(w, "   attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	checks := make([]string, 0, len(r.Checks))
	for k, v := range r.Checks {
		checks = append(checks, k+"="+v)
	}
	sort.Strings(checks)
	fmt.Fprintf(w, "   checks: %s\n", strings.Join(checks, "  "))
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  (n=%d)", m.N)
			if m.N < 1000 && strings.Contains(k, "p99") {
				n += " low-n"
			}
		}
		fmt.Fprintf(w, "   %-42s %16.4f %-6s%s\n", k, m.Value, m.Unit, n)
	}
}

// printContractLine prints the acceptance driver's result object: exactly the
// metrics BENCHMARK.json lists for the run's trace mode.
func printContractLine(w io.Writer, r *result) error {
	names := contractEndToEnd
	if r.Trace == 1 {
		names = contractPerLayer
	}
	type cm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]cm `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]cm{}}
	for _, d := range names {
		m, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s missing from the %s result", d.name, r.Workload)
		}
		out.Metrics[d.name] = cm{m.Value, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func appendResults(path string, rs []*result) error {
	var all []*result
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	all = append(all, rs...)
	data, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

package load

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// ReportSchema versions the report shape; the CI load-smoke job fails when
// a report stops matching the schema it expects.
const ReportSchema = 1

// Report is one pmware-load run. It is split along the determinism
// boundary:
//
//   - Workload is a pure function of (seed, spec): two runs with the same
//     inputs must produce byte-identical Workload sections (the E2E test
//     compares their JSON encodings), whatever the machine does.
//   - Measured is what the wall clock saw: latency quantiles, achieved
//     throughput, the saturation search. It is honest, not reproducible.
type Report struct {
	Schema   int            `json:"schema"`
	Workload WorkloadReport `json:"workload"`
	Measured MeasuredReport `json:"measured"`
}

// WorkloadReport is the deterministic half: what load was offered.
type WorkloadReport struct {
	SpecName string `json:"spec_name"`
	// SpecHash identifies the exact spec (canonical-JSON FNV-64a, hex).
	SpecHash string `json:"spec_hash"`
	Seed     int64  `json:"seed"`
	Users    int    `json:"users"`
	Mode     string `json:"mode"`
	// OfferedRPS is the open-mode arrival rate (0 in closed mode, where
	// offered load is Concurrency clients × think time).
	OfferedRPS  float64 `json:"offered_rps,omitempty"`
	Concurrency int     `json:"concurrency"`
	// VirtualDurationSec is the main schedule's virtual span.
	VirtualDurationSec float64 `json:"virtual_duration_sec"`
	// Requests and RouteCounts describe the main schedule.
	Requests    uint64            `json:"requests"`
	RouteCounts map[string]uint64 `json:"route_counts"`
	// TraceHash is the FNV-64a of the canonical request trace (hex) — the
	// byte-for-byte reproducibility stamp.
	TraceHash string `json:"trace_hash"`
	// Wire is the canonical name of the client codec the run drove
	// ("json" or "bin") — deterministic because it comes from the spec.
	Wire string `json:"wire"`
}

// MeasuredReport is the wall-clock half.
type MeasuredReport struct {
	RecordedAt string   `json:"recorded_at"`
	Host       HostInfo `json:"host"`
	// Main is the main phase's execution.
	Main StepResult `json:"main"`
	// Ramp holds the saturation-search steps, in ramp order. The number of
	// steps depends on measured performance, which is why ramp traces are
	// not part of the deterministic Workload section (each step's schedule
	// is still derivable from seed+spec+step index).
	Ramp []RampStep `json:"ramp,omitempty"`
	// SaturationRPS is the highest offered rate whose step met the SLO
	// (0 when the first step already failed or no ramp ran).
	SaturationRPS  float64 `json:"saturation_rps,omitempty"`
	SaturationNote string  `json:"saturation_note,omitempty"`
	// Events is the SSE subscriber side-channel, present when the spec ran
	// one (it spans the main phase only).
	Events *EventsReport `json:"events,omitempty"`
	// Wire sums the clients' wire traffic over the whole run (main phase
	// plus any ramp steps). Two runs of the same spec differing only in
	// the wire knob give the codec's byte delta under identical load.
	Wire *WireReport `json:"wire,omitempty"`
	// Cluster sums the clients' ring-routing activity, present when the
	// run drove a multi-node cluster (RunnerConfig.Targets).
	Cluster *ClusterReport `json:"cluster,omitempty"`
}

// WireReport is the client-side wire accounting: which codec the harness
// spoke and how many body bytes crossed the wire in each direction, summed
// across every simulated user's client.
type WireReport struct {
	Codec         string `json:"codec"`
	BytesSent     uint64 `json:"bytes_sent"`
	BytesReceived uint64 `json:"bytes_received"`
}

// ClusterReport is the client-side routing accounting for a cluster run:
// how many candidate failovers the clients performed (connection errors and
// 5xx answers) and how many 421 redirects they followed to the owning node.
type ClusterReport struct {
	Targets   int    `json:"targets"`
	Failovers uint64 `json:"failovers"`
	Redirects uint64 `json:"redirects"`
}

// EventsReport is the delivery half of a run with subscribers: what the
// spec's SSE consumers received and how fast, measured hub-publish-stamp to
// client receive and merged across subscribers.
type EventsReport struct {
	Subscribers int    `json:"subscribers"`
	Delivered   uint64 `json:"delivered"`
	// Evictions counts slow-consumer closes the subscribers resumed from;
	// Resets counts replay-ring gap signals (events lost to the consumer).
	Evictions uint64 `json:"evictions,omitempty"`
	Resets    uint64 `json:"resets,omitempty"`
	// Errors counts subscriptions that died mid-phase (reconnect budget
	// exhausted) instead of being closed by the harness.
	Errors int `json:"errors,omitempty"`

	DeliveryMeanUS float64 `json:"delivery_mean_us"`
	DeliveryP50US  float64 `json:"delivery_p50_us"`
	DeliveryP99US  float64 `json:"delivery_p99_us"`
	DeliveryMaxUS  int64   `json:"delivery_max_us,omitempty"`
}

// HostInfo stamps where the measurement ran.
type HostInfo struct {
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
}

// CurrentHost describes the running process's host.
func CurrentHost() HostInfo {
	return HostInfo{
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
}

// RampStep is one saturation-search step.
type RampStep struct {
	OfferedRPS float64    `json:"offered_rps"`
	TraceHash  string     `json:"trace_hash"`
	Result     StepResult `json:"result"`
	Pass       bool       `json:"pass"`
	FailReason string     `json:"fail_reason,omitempty"`
}

// StepResult is the measured outcome of executing one schedule.
type StepResult struct {
	WallSec     float64 `json:"wall_sec"`
	Requests    uint64  `json:"requests"`
	AchievedRPS float64 `json:"achieved_rps"`

	OK              uint64 `json:"ok"`
	Backpressure429 uint64 `json:"backpressure_429"`
	ClientErr4xx    uint64 `json:"client_err_4xx"`
	ServerErr5xx    uint64 `json:"server_err_5xx"`
	Transport       uint64 `json:"transport_err"`
	// ErrorRate is (5xx + transport) / requests — the SLO's error class.
	ErrorRate float64 `json:"error_rate"`
	// Rejected429Rate is backpressure / requests.
	Rejected429Rate float64 `json:"rejected_429_rate"`

	Routes []RouteStats `json:"routes"`
}

// RouteStats is one route's per-route SLO line.
type RouteStats struct {
	Route           string  `json:"route"`
	Requests        uint64  `json:"requests"`
	OK              uint64  `json:"ok"`
	Backpressure429 uint64  `json:"backpressure_429,omitempty"`
	ClientErr4xx    uint64  `json:"client_err_4xx,omitempty"`
	ServerErr5xx    uint64  `json:"server_err_5xx,omitempty"`
	Transport       uint64  `json:"transport_err,omitempty"`
	MeanUS          float64 `json:"mean_us"`
	P50US           float64 `json:"p50_us"`
	P99US           float64 `json:"p99_us"`
	P999US          float64 `json:"p999_us"`
	MaxUS           int64   `json:"max_us"`
}

// BuildStepResult renders a merged recorder snapshot into a StepResult.
func BuildStepResult(snap RecorderSnapshot, wall time.Duration) StepResult {
	res := StepResult{WallSec: wall.Seconds()}
	for _, route := range snap.Routes() {
		s := snap[route]
		rs := RouteStats{
			Route:           route,
			Requests:        s.Requests(),
			OK:              s.Outcomes[OutcomeOK],
			Backpressure429: s.Outcomes[Outcome429],
			ClientErr4xx:    s.Outcomes[Outcome4xx],
			ServerErr5xx:    s.Outcomes[Outcome5xx],
			Transport:       s.Outcomes[OutcomeTransport],
			MeanUS:          s.Latency.Mean(),
			P50US:           s.Latency.Quantile(0.50),
			P99US:           s.Latency.Quantile(0.99),
			P999US:          s.Latency.Quantile(0.999),
		}
		if s.Latency.Count > 0 {
			rs.MaxUS = s.Latency.Max
		}
		res.Routes = append(res.Routes, rs)
		res.Requests += rs.Requests
		res.OK += rs.OK
		res.Backpressure429 += rs.Backpressure429
		res.ClientErr4xx += rs.ClientErr4xx
		res.ServerErr5xx += rs.ServerErr5xx
		res.Transport += rs.Transport
	}
	if res.WallSec > 0 {
		res.AchievedRPS = float64(res.Requests) / res.WallSec
	}
	if res.Requests > 0 {
		res.ErrorRate = float64(res.ServerErr5xx+res.Transport) / float64(res.Requests)
		res.Rejected429Rate = float64(res.Backpressure429) / float64(res.Requests)
	}
	return res
}

// Check validates a report's internal consistency — the schema gate the E2E
// test and the CI job run on every produced report.
func (r *Report) Check() error {
	if r.Schema != ReportSchema {
		return fmt.Errorf("report: schema %d, want %d", r.Schema, ReportSchema)
	}
	w := &r.Workload
	if w.SpecHash == "" || w.TraceHash == "" {
		return fmt.Errorf("report: missing spec/trace hash")
	}
	if w.Users <= 0 || w.Requests == 0 {
		return fmt.Errorf("report: empty workload")
	}
	var sum uint64
	for route, n := range w.RouteCounts {
		if ServerRoute(route) == "" {
			return fmt.Errorf("report: unknown route %q in workload", route)
		}
		sum += n
	}
	if sum != w.Requests {
		return fmt.Errorf("report: route counts sum %d != requests %d", sum, w.Requests)
	}
	if err := checkStep(&r.Measured.Main, "main"); err != nil {
		return err
	}
	if r.Measured.Main.Requests != w.Requests {
		return fmt.Errorf("report: main executed %d of %d scheduled requests", r.Measured.Main.Requests, w.Requests)
	}
	for route, n := range w.RouteCounts {
		var got uint64
		for _, rs := range r.Measured.Main.Routes {
			if rs.Route == route {
				got = rs.Requests
			}
		}
		if got != n {
			return fmt.Errorf("report: route %s executed %d of %d scheduled", route, got, n)
		}
	}
	for i := range r.Measured.Ramp {
		if err := checkStep(&r.Measured.Ramp[i].Result, fmt.Sprintf("ramp[%d]", i)); err != nil {
			return err
		}
	}
	if mw := r.Measured.Wire; mw != nil {
		if r.Workload.Wire != "" && mw.Codec != r.Workload.Wire {
			return fmt.Errorf("report: measured wire codec %q != workload %q", mw.Codec, r.Workload.Wire)
		}
		if r.Measured.Main.Requests > 0 && mw.BytesSent == 0 {
			return fmt.Errorf("report: %d requests executed but zero wire bytes sent", r.Measured.Main.Requests)
		}
	}
	if ev := r.Measured.Events; ev != nil {
		if ev.Subscribers <= 0 {
			return fmt.Errorf("report: events section with %d subscribers", ev.Subscribers)
		}
		if ev.Delivered > 0 && !(ev.DeliveryP50US <= ev.DeliveryP99US && ev.DeliveryP99US <= float64(ev.DeliveryMaxUS)) {
			return fmt.Errorf("report: delivery quantiles out of order (p50=%v p99=%v max=%v)",
				ev.DeliveryP50US, ev.DeliveryP99US, ev.DeliveryMaxUS)
		}
	}
	return nil
}

func checkStep(s *StepResult, name string) error {
	var sum uint64
	for i, rs := range s.Routes {
		if i > 0 && rs.Route <= s.Routes[i-1].Route {
			return fmt.Errorf("report: %s routes not sorted at %q", name, rs.Route)
		}
		if rs.OK+rs.Backpressure429+rs.ClientErr4xx+rs.ServerErr5xx+rs.Transport != rs.Requests {
			return fmt.Errorf("report: %s route %s outcomes do not sum to requests", name, rs.Route)
		}
		if rs.Requests > 0 && !(rs.P50US <= rs.P99US && rs.P99US <= rs.P999US && rs.P999US <= float64(rs.MaxUS)) {
			return fmt.Errorf("report: %s route %s quantiles out of order (p50=%v p99=%v p999=%v max=%v)",
				name, rs.Route, rs.P50US, rs.P99US, rs.P999US, rs.MaxUS)
		}
		sum += rs.Requests
	}
	if sum != s.Requests {
		return fmt.Errorf("report: %s per-route requests sum %d != total %d", name, sum, s.Requests)
	}
	return nil
}

// Trajectory is the BENCH_load.json shape: the suite header plus one report
// per recorded run, oldest first.
type Trajectory struct {
	Suite string    `json:"suite"`
	Runs  []*Report `json:"runs"`
}

// trajectorySuite names the file's suite header.
const trajectorySuite = "pmware-load SLO trajectory"

// AppendTrajectory appends the report to the trajectory file, creating it
// if missing. The write is atomic (temp file + rename) so a crashed run
// cannot corrupt the history.
func AppendTrajectory(path string, r *Report) error {
	t := &Trajectory{Suite: trajectorySuite}
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, t); err != nil {
			return fmt.Errorf("load: existing trajectory %s is not parseable (refusing to overwrite): %w", path, err)
		}
	case os.IsNotExist(err):
	default:
		return fmt.Errorf("load: read trajectory: %w", err)
	}
	t.Runs = append(t.Runs, r)

	out, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return fmt.Errorf("load: marshal trajectory: %w", err)
	}
	out = append(out, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), ".bench_load-*")
	if err != nil {
		return fmt.Errorf("load: temp trajectory: %w", err)
	}
	if _, err := tmp.Write(out); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("load: write trajectory: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("load: close trajectory: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("load: replace trajectory: %w", err)
	}
	return nil
}

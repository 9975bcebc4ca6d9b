package load

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/simclock"
)

// RunnerConfig configures one pmware-load run.
type RunnerConfig struct {
	Spec *Spec
	Seed int64
	// BaseURL is the PMWare cloud server to drive. The server's cell
	// database must come from the same world seed/extent as the spec for
	// discovery geolocation to resolve (cmd/pmware-load self-boots a
	// matching server when no URL is given).
	BaseURL string
	// Targets, when set, drives a PCI cluster: every harness client becomes
	// cluster-aware (every call ring-routed with 421/failover handling) over
	// these node base URLs, and BaseURL is not contacted.
	Targets []string
	// HTTP is the transport; it should allow at least Concurrency idle
	// connections per host or connection churn will dominate latency.
	HTTP *http.Client
	// TraceW, when set, receives the canonical main-phase request trace.
	TraceW io.Writer
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Runner executes a spec against a live server and produces the Report.
//
// Execution model: the main schedule runs once — paced to its virtual
// arrival times in open mode (lateness shows up as achieved < offered, the
// honest saturation signal), or drained back-to-back by Concurrency workers
// in closed mode (service time replaces virtual think time). Then, if the
// spec has a ramp, open-loop steps run at increasing offered rates until a
// step misses the SLO; the last passing rate is the measured saturation
// point.
//
// Requests for the same user execute strictly in schedule order (a per-user
// turnstile keyed on Request.UserSeq), because the workload's session rules
// — register before anything, profile_put before analytics — are ordering
// promises. Requests of different users interleave freely across workers.
//
// Clients run with retries disabled: a retry would hide exactly the 5xx/429
// signal the report exists to measure.
type Runner struct {
	cfg  RunnerConfig
	key  Key
	pop  *Population
	wire cloud.WireCodec
	// clientReg collects every harness client's client_* families in one
	// run-private registry, so the report can sum wire bytes across the
	// population without touching the process-wide default registry.
	clientReg *obs.Registry

	mu    sync.Mutex
	users map[int]*userState

	fatalMu sync.Mutex
	fatal   error
}

// userState is one user's cross-request session: the authenticated client,
// how many profiles it has synced, and the turnstile enforcing schedule
// order within the user.
type userState struct {
	mu   sync.Mutex
	cond *sync.Cond
	// turn is the UserSeq allowed to execute next in the current phase.
	turn     int
	client   *cloud.Client
	profiled int
}

// NewRunner builds a runner (and its lazy population) for the config.
func NewRunner(cfg RunnerConfig) (*Runner, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.HTTP == nil {
		cfg.HTTP = http.DefaultClient
	}
	wire, err := cloud.ParseWireCodec(cfg.Spec.Wire)
	if err != nil {
		return nil, err
	}
	key := Key{Seed: cfg.Seed}
	return &Runner{
		cfg:       cfg,
		key:       key,
		pop:       NewPopulation(cfg.Spec, key),
		wire:      wire,
		clientReg: obs.NewRegistry(),
		users:     make(map[int]*userState),
	}, nil
}

// Population exposes the runner's lazy population (the self-booting command
// builds its cell database from the same world).
func (r *Runner) Population() *Population { return r.pop }

// SetBaseURL points the runner at a server booted after construction — the
// self-booting path needs the population's world to build the server's cell
// database before it can listen. Must be called before Run.
func (r *Runner) SetBaseURL(u string) { r.cfg.BaseURL = u }

func (r *Runner) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// Run executes the main phase and the optional saturation ramp.
func (r *Runner) Run() (*Report, error) {
	if r.cfg.BaseURL == "" {
		return nil, fmt.Errorf("load: runner needs a base URL before Run")
	}
	spec := r.cfg.Spec
	main := BuildSchedule(spec, r.key)
	if r.cfg.TraceW != nil {
		if err := main.Encode(r.cfg.TraceW); err != nil {
			return nil, fmt.Errorf("load: write trace: %w", err)
		}
	}

	report := &Report{
		Schema: ReportSchema,
		Workload: WorkloadReport{
			SpecName:           spec.Name,
			SpecHash:           fmt.Sprintf("%016x", spec.Hash()),
			Seed:               r.cfg.Seed,
			Users:              spec.Users,
			Mode:               spec.Mode,
			OfferedRPS:         spec.RatePerSec,
			Concurrency:        spec.Concurrency,
			VirtualDurationSec: float64(spec.DurationSec),
			Requests:           uint64(len(main.Requests)),
			RouteCounts:        main.RouteCounts(),
			TraceHash:          fmt.Sprintf("%016x", main.Hash()),
			Wire:               r.wire.String(),
		},
		Measured: MeasuredReport{
			RecordedAt: time.Now().UTC().Format(time.RFC3339),
			Host:       CurrentHost(),
		},
	}

	var pool *subscriberPool
	if spec.Subscribers != nil {
		var err error
		if pool, err = r.startSubscribers(spec.Subscribers); err != nil {
			return nil, err
		}
		r.logf("attached %d event subscribers", spec.Subscribers.Count)
	}

	r.logf("main phase: %d requests over %ds virtual (%s mode)", len(main.Requests), spec.DurationSec, spec.Mode)
	mainRes, err := r.execute(main, spec.Mode == "open")
	if pool != nil {
		// Detach even when the phase failed, so consumers never leak.
		ev, stopErr := pool.stop()
		if err == nil {
			err = stopErr
		}
		report.Measured.Events = ev
		if ev != nil {
			r.logf("subscribers: %d events delivered (p99 %.1fms), %d evictions, %d errors",
				ev.Delivered, ev.DeliveryP99US/1000, ev.Evictions, ev.Errors)
		}
	}
	if err != nil {
		return nil, err
	}
	report.Measured.Main = mainRes
	r.logf("main phase: %.1f req/s achieved, error rate %.4f", mainRes.AchievedRPS, mainRes.ErrorRate)

	if spec.Ramp != nil {
		if err := r.runRamp(report); err != nil {
			return nil, err
		}
	}
	report.Measured.Wire = r.wireReport()
	if len(r.cfg.Targets) > 0 {
		report.Measured.Cluster = &ClusterReport{
			Targets:   len(r.cfg.Targets),
			Failovers: r.clientReg.Counter("client_cluster_failovers_total").Value(),
			Redirects: r.clientReg.Counter("client_cluster_redirects_total").Value(),
		}
		r.logf("cluster: %d targets, %d failovers, %d redirects",
			report.Measured.Cluster.Targets, report.Measured.Cluster.Failovers, report.Measured.Cluster.Redirects)
	}
	r.logf("wire: %s codec, %d bytes sent, %d bytes received",
		report.Measured.Wire.Codec, report.Measured.Wire.BytesSent, report.Measured.Wire.BytesReceived)
	if err := report.Check(); err != nil {
		return nil, err
	}
	return report, nil
}

// wireReport sums the run's client-side wire counters.
func (r *Runner) wireReport() *WireReport {
	return &WireReport{
		Codec:         r.wire.String(),
		BytesSent:     r.clientReg.Counter("client_wire_bytes_sent_total").Value(),
		BytesReceived: r.clientReg.Counter("client_wire_bytes_received_total").Value(),
	}
}

// runRamp performs the saturation search: geometric rate steps, each its own
// scoped key universe, until the SLO breaks or MaxRPS passes.
func (r *Runner) runRamp(report *Report) error {
	spec := r.cfg.Spec
	ramp := spec.Ramp
	slo := spec.slo()
	note := fmt.Sprintf("ramp exhausted at max_rps %.0f with SLO intact", ramp.MaxRPS)

	step := 0
	for rate := ramp.StartRPS; rate <= ramp.MaxRPS; rate *= ramp.Factor {
		stepSpec := *spec
		stepSpec.Mode = "open"
		stepSpec.RatePerSec = rate
		stepSpec.DurationSec = ramp.StepDurationSec
		stepSpec.Ramp = nil
		sched := BuildSchedule(&stepSpec, r.key.Scoped("ramp", strconv.Itoa(step)))

		r.logf("ramp step %d: offering %.1f req/s for %ds (%d requests)", step, rate, ramp.StepDurationSec, len(sched.Requests))
		res, err := r.execute(sched, true)
		if err != nil {
			return err
		}
		pass, reason := evalStep(res, rate, slo)
		report.Measured.Ramp = append(report.Measured.Ramp, RampStep{
			OfferedRPS: rate,
			TraceHash:  fmt.Sprintf("%016x", sched.Hash()),
			Result:     res,
			Pass:       pass,
			FailReason: reason,
		})
		if !pass {
			note = fmt.Sprintf("step at %.1f req/s failed SLO: %s", rate, reason)
			r.logf("ramp step %d: FAIL (%s)", step, reason)
			break
		}
		report.Measured.SaturationRPS = rate
		r.logf("ramp step %d: pass (%.1f req/s achieved)", step, res.AchievedRPS)
		step++
	}
	report.Measured.SaturationNote = note
	return nil
}

// evalStep applies the SLO to a ramp step. The latency gate uses the worst
// route's p99 — a saturation point that hides one collapsed route behind
// eight healthy ones is not a saturation point.
func evalStep(res StepResult, offered float64, slo SLOSpec) (bool, string) {
	if res.AchievedRPS < slo.MinAchievedFrac*offered {
		return false, fmt.Sprintf("achieved %.1f req/s < %.0f%% of offered %.1f",
			res.AchievedRPS, slo.MinAchievedFrac*100, offered)
	}
	if res.ErrorRate > slo.MaxErrorRate {
		return false, fmt.Sprintf("error rate %.4f > %.4f", res.ErrorRate, slo.MaxErrorRate)
	}
	if slo.MaxP99MS > 0 {
		for _, rs := range res.Routes {
			if rs.P99US/1000 > slo.MaxP99MS {
				return false, fmt.Sprintf("route %s p99 %.1fms > %.1fms", rs.Route, rs.P99US/1000, slo.MaxP99MS)
			}
		}
	}
	return true, ""
}

// execute runs one schedule to completion and returns the measured result.
func (r *Runner) execute(s *Schedule, paced bool) (StepResult, error) {
	r.resetTurns()
	workers := r.cfg.Spec.Concurrency
	recorders := make([]*Recorder, workers)
	for i := range recorders {
		recorders[i] = NewRecorder(AllRoutes())
	}

	ch := make(chan Request, workers*2)
	start := time.Now()
	go func() {
		defer close(ch)
		for _, req := range s.Requests {
			if paced {
				if d := time.Until(start.Add(req.At)); d > 0 {
					time.Sleep(d)
				}
			}
			ch <- req
		}
	}()

	var wg sync.WaitGroup
	for wID := 0; wID < workers; wID++ {
		wg.Add(1)
		go func(rec *Recorder) {
			defer wg.Done()
			for req := range ch {
				if r.fatalErr() != nil {
					continue // drain; the run is already lost
				}
				if err := r.perform(req, rec); err != nil {
					r.setFatal(err)
				}
			}
		}(recorders[wID])
	}
	wg.Wait()
	wall := time.Since(start)

	if err := r.fatalErr(); err != nil {
		return StepResult{}, err
	}
	snaps := make([]RecorderSnapshot, len(recorders))
	for i, rec := range recorders {
		snaps[i] = rec.Snapshot()
	}
	merged, err := MergeSnapshots(snaps...)
	if err != nil {
		return StepResult{}, err
	}
	return BuildStepResult(merged, wall), nil
}

// perform executes one request end to end: synthesize the user's payloads
// if the route needs them (outside the latency window), take the user's
// turnstile, issue the call, classify, record. The returned error is fatal
// harness failure (payload synthesis), not request failure — request
// failures are outcomes.
func (r *Runner) perform(req Request, rec *Recorder) error {
	var u *SimUser
	if needsPayload(req.Route) {
		var err error
		if u, err = r.pop.User(req.User); err != nil {
			return err
		}
	}

	st := r.state(req.User)
	st.mu.Lock()
	for st.turn != req.UserSeq {
		// A fatal failure elsewhere may have dropped this user's
		// predecessor request without advancing the turnstile; setFatal
		// broadcasts every turnstile so waiters land here and bail.
		if r.fatalErr() != nil {
			st.mu.Unlock()
			return nil
		}
		st.cond.Wait()
	}
	defer func() {
		st.turn++
		st.cond.Broadcast()
		st.mu.Unlock()
	}()

	if st.client == nil {
		_, imei, email := UserIdentity(req.User)
		opts := []cloud.ClientOption{
			cloud.WithRetryPolicy(cloud.RetryPolicy{MaxAttempts: 1, PerTryTimeout: 30 * time.Second}),
			cloud.WithWireCodec(r.wire),
			cloud.WithClientMetrics(r.clientReg),
		}
		if len(r.cfg.Targets) > 0 {
			opts = append(opts, cloud.WithCluster(r.cfg.Targets))
		}
		st.client = cloud.NewClient(r.cfg.BaseURL, imei, email, r.cfg.HTTP, opts...)
	}

	t0 := time.Now()
	err := r.issue(st, u, req)
	rec.Observe(req.Route, time.Since(t0), classify(err))
	return nil
}

// needsPayload reports whether the route uploads or queries user-specific
// synthesized data.
func needsPayload(route string) bool {
	switch route {
	case RouteDiscover, RouteObsStream, RouteProfilePut, RoutePredictArrival, RouteStatsDwell, RouteStatsFrequency:
		return true
	}
	return false
}

// issue performs the route's API call.
func (r *Runner) issue(st *userState, u *SimUser, req Request) error {
	switch req.Route {
	case RouteRegister:
		return st.client.Register()
	case RouteDiscover:
		_, err := st.client.DiscoverPlaces(u.Trace)
		return err
	case RouteObsStream:
		_, err := st.client.StreamObservations(context.Background(), u.Trace, 0)
		return err
	case RouteProfilePut:
		day := st.profiled % len(u.Profiles)
		st.profiled++
		return st.client.SyncProfile(u.Profiles[day])
	case RoutePlacesGet:
		_, err := st.client.Places()
		return err
	case RoutePopular:
		_, err := st.client.PopularPlaces(0, 0)
		return err
	case RouteProfileRange:
		from := simclock.Epoch.Format(profile.DateFormat)
		to := simclock.Epoch.AddDate(0, 0, r.cfg.Spec.TraceDays-1).Format(profile.DateFormat)
		_, err := st.client.ProfileRange(from, to)
		return err
	case RoutePredictArrival:
		_, err := st.client.PredictArrival(r.queryPlace(u, req))
		return err
	case RouteStatsDwell:
		_, err := st.client.DwellStats(r.queryPlace(u, req))
		return err
	case RouteStatsFrequency:
		_, err := st.client.VisitFrequency(r.queryPlace(u, req))
		return err
	}
	return fmt.Errorf("load: unknown route %q", req.Route)
}

// queryPlace picks which of the user's profiled places an analytics read
// targets — deterministic in the request's per-user sequence number, and
// always a place from the first-synced day profile so the server has data
// for it.
func (r *Runner) queryPlace(u *SimUser, req Request) string {
	return u.QueryPlaces[req.UserSeq%len(u.QueryPlaces)]
}

// classify maps a client-call error to its outcome class.
func classify(err error) Outcome {
	if err == nil {
		return OutcomeOK
	}
	code, ok := cloud.StatusCode(err)
	if !ok {
		return OutcomeTransport
	}
	switch {
	case code == http.StatusTooManyRequests:
		return Outcome429
	case code >= 500:
		return Outcome5xx
	default:
		return Outcome4xx
	}
}

func (r *Runner) state(user int) *userState {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.users[user]
	if !ok {
		st = &userState{}
		st.cond = sync.NewCond(&st.mu)
		r.users[user] = st
	}
	return st
}

// resetTurns rewinds every user's turnstile between phases (each schedule
// numbers its users' requests from zero). Runs only while no workers are
// active.
func (r *Runner) resetTurns() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range r.users {
		st.mu.Lock()
		st.turn = 0
		st.mu.Unlock()
	}
}

func (r *Runner) setFatal(err error) {
	r.fatalMu.Lock()
	if r.fatal == nil {
		r.fatal = err
	}
	r.fatalMu.Unlock()
	// Wake every turnstile waiter so workers drain instead of waiting for a
	// predecessor that will never run.
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range r.users {
		st.mu.Lock()
		st.cond.Broadcast()
		st.mu.Unlock()
	}
}

func (r *Runner) fatalErr() error {
	r.fatalMu.Lock()
	defer r.fatalMu.Unlock()
	return r.fatal
}

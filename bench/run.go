package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloud"
	"repro/internal/events"
	"repro/internal/gsm"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// vuser is one virtual user's session: its client and what the benchmark
// expects the PCI to hold for it. Touched only by the owning caller while
// the timed phase runs.
type vuser struct {
	id     int
	tmpl   *template
	client *cloud.Client

	places   []*gsm.Place   // what the last DiscoverPlaces returned
	labels   map[int]string // place id -> last label set
	put      map[string]int // date -> profile variant last put
	ingested int            // observations the PCI has acknowledged
	sub      *subscriber
	// complete marks an open-loop session that ran to its last op.
	complete bool
}

// subscriber is an odd virtual user's SSE consumer.
type subscriber struct {
	sub *cloud.Subscription
	// streamStart is when the StreamObservations call that can trigger the
	// next events began (ns on the run clock); event latency runs from it.
	streamStart atomic.Int64
	// expected is how many events the user's stream calls reported published.
	expected int

	mu     sync.Mutex
	events []eventRec
	done   chan struct{}
}

type eventRec struct {
	seq       uint64
	latency   int64 // stream-call start -> receipt
	pubToRecv int64 // hub publish stamp -> receipt
}

func (s *subscriber) received() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

// sample is one executed op.
type sample struct {
	kind   opKind
	ok     bool
	traced bool
	// latency is what the end-to-end metrics use: completion minus due time
	// (open loop) or minus dispatch (closed loop). call is completion minus
	// dispatch in both.
	latency int64
	call    int64
	end     int64
}

// callerState is one caller goroutine's private state.
type callerState struct {
	rt      *callerRT
	http    *http.Client
	samples []sample
	late    []int64 // open loop: dispatch - max(due, previous completion)
	busy    int64   // ns inside client calls
	wall    int64   // ns from phase start to this caller's last completion
}

// env is a set-up benchmark: inputs synthesized, PCI booted and preloaded,
// clients built. Everything before the timed phase.
type env struct {
	w         workload
	seed      int64
	dir       string
	in        *inputs
	sched     *schedule
	pci       *pci
	clientReg *obs.Registry
	tracer    *tracer
	vus       []*vuser
	callers   [callers]*callerState
	clock     time.Time

	// setupWrites counts acknowledged mutating calls made during preload;
	// disk_bytes_per_write is measured from boot, so it needs them.
	setupWrites int64
	// firstFailure is the first op of the timed phase that failed.
	firstFailure atomic.Pointer[failure]
}

func (e *env) now() int64 { return int64(time.Since(e.clock)) }

// noRetry is the client policy of every benchmark call: one attempt, so a
// 5xx or 429 is an outcome, not something a retry hides.
var noRetry = cloud.RetryPolicy{MaxAttempts: 1, PerTryTimeout: 30 * time.Second}

// setUp does everything that precedes the timed phase. dir must not exist.
func setUp(w workload, seed int64, seconds int, traced bool, dir string) (*env, error) {
	e := &env{w: w, seed: seed, dir: dir, clientReg: obs.NewRegistry(), clock: time.Now()}
	var err error
	if e.in, err = synthesize(w, seed); err != nil {
		return nil, err
	}
	e.sched = buildSchedule(w, seed, seconds)

	var wrap func(http.Handler) http.Handler
	var replHTTP *http.Client
	if traced {
		e.tracer = newTracer(e.clock)
		wrap = e.tracer.wrapHandler
		replHTTP = &http.Client{Timeout: 15 * time.Second, Transport: &replRT{base: http.DefaultTransport, t: e.tracer}}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if e.pci, err = boot(w, e.in, filepath.Join(dir, "data"), wrap, replHTTP); err != nil {
		return nil, err
	}

	calls := &http.Transport{MaxConnsPerHost: callers, MaxIdleConnsPerHost: callers}
	sse := &http.Transport{}
	for c := range e.callers {
		rt := &callerRT{calls: calls, sse: sse, attached: make(chan struct{}, 1), t: e.tracer, caller: c}
		e.callers[c] = &callerState{rt: rt, http: &http.Client{Transport: rt}}
	}
	urls := e.pci.urls()
	e.vus = make([]*vuser, e.sched.vusers)
	for v := range e.vus {
		_, imei, email := load.UserIdentity(v)
		opts := []cloud.ClientOption{
			cloud.WithRetryPolicy(noRetry),
			cloud.WithWireCodec(w.wire),
			cloud.WithClientMetrics(e.clientReg),
		}
		base := urls[0]
		if w.cluster {
			opts = append(opts, cloud.WithCluster(urls))
			// Ring routing covers every call but the streamed binary
			// discover upload, which goes to the base URL; point that at the
			// owner too, or it meets a node that never issued the token.
			if owner, ok := e.pci.nodes[0].cnode.Ring().Primary(cloud.StableUserID(imei, email)); ok {
				base = owner.URL
			}
		}
		e.vus[v] = &vuser{
			id:     v,
			tmpl:   e.in.templates[v%len(e.in.templates)],
			client: cloud.NewClient(base, imei, email, e.callers[v%callers].http, opts...),
			labels: map[int]string{},
			put:    map[string]int{},
		}
	}
	if !w.open {
		if err := e.preload(); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// preload registers every closed-loop user, uploads its whole trace for
// discovery and syncs every day profile, each caller handling its own users
// through the same clients the timed phase uses.
func (e *env) preload() error {
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for v := c; v < len(e.vus); v += callers {
				vu := e.vus[v]
				steps := []op{{kind: opRegister}, {kind: opDiscover, day: uint8(e.w.days - 1)}}
				for d := 0; d < e.w.days; d++ {
					steps = append(steps, op{kind: opSyncProfile, day: uint8(d)})
				}
				for _, o := range steps {
					if err := e.issue(vu, o); err != nil {
						errs[c] = fmt.Errorf("preload user %d %s: %w", v, o.kind, err)
						return
					}
					atomic.AddInt64(&e.setupWrites, 1)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (e *env) close() {
	for _, vu := range e.vus {
		if vu != nil && vu.sub != nil {
			vu.sub.sub.Close()
		}
	}
	if e.pci != nil {
		e.pci.close()
	}
	for _, cs := range e.callers {
		if cs != nil {
			cs.rt.calls.(*http.Transport).CloseIdleConnections()
			cs.rt.sse.(*http.Transport).CloseIdleConnections()
		}
	}
}

// opError is a response that arrived but failed its correctness check.
type opError string

func (e opError) Error() string { return string(e) }

// issue performs one op through the user's client and checks the response.
// It is the only code between the executor's two clock reads.
func (e *env) issue(vu *vuser, o op) error {
	t := vu.tmpl
	c := vu.client
	switch o.kind {
	case opRegister:
		return c.Register()
	case opSubscribe:
		return e.subscribe(vu)
	case opDiscover:
		places, err := c.DiscoverPlaces(t.trace[:t.dayEnd[o.day]])
		if err != nil {
			return err
		}
		vu.places = places
		vu.ingested = t.dayEnd[o.day]
		return nil
	case opStream:
		if vu.sub != nil {
			vu.sub.streamStart.Store(e.now())
		}
		res, err := c.StreamObservations(context.Background(), t.trace[:t.dayEnd[o.day]], 0)
		if err != nil {
			return err
		}
		if want := t.dayEnd[o.day] - vu.ingested; res.Appended != want || int(res.TraceLen) != t.dayEnd[o.day] {
			return opError(fmt.Sprintf("stream appended %d (want %d), trace len %d (want %d)", res.Appended, want, res.TraceLen, t.dayEnd[o.day]))
		}
		vu.ingested = t.dayEnd[o.day]
		if vu.sub != nil {
			vu.sub.expected += res.Events
		}
		return nil
	case opSyncProfile:
		variant := int(o.arg & 1)
		p := t.profiles[o.day][variant]
		if err := c.SyncProfile(p); err != nil {
			return err
		}
		vu.put[p.Date] = variant
		return nil
	case opLabelPlace:
		p := vu.places[int(o.arg)%len(vu.places)]
		label := labels[int(o.arg>>8)%len(labels)]
		if err := c.LabelPlace(p.ID, label); err != nil {
			return err
		}
		vu.labels[p.ID] = label
		return nil
	case opPlaces:
		got, err := c.Places()
		if err != nil {
			return err
		}
		if len(got) != len(vu.places) {
			return opError(fmt.Sprintf("places: got %d, want %d", len(got), len(vu.places)))
		}
		return nil
	case opProfileRange:
		got, err := c.ProfileRange(rangeFrom, rangeTo(e.w.days))
		if err != nil {
			return err
		}
		if len(got) != len(vu.put) {
			return opError(fmt.Sprintf("profile range: got %d days, want %d", len(got), len(vu.put)))
		}
		return nil
	case opPredictArrival:
		place := t.queryPlaces[int(o.arg)%len(t.queryPlaces)]
		resp, err := c.PredictArrival(place)
		if err != nil {
			return err
		}
		if resp.PlaceID != place || resp.SampleCount < 1 {
			return opError(fmt.Sprintf("predict arrival %s: %+v", place, resp))
		}
		return nil
	case opDwellStats:
		place := t.queryPlaces[int(o.arg)%len(t.queryPlaces)]
		resp, err := c.DwellStats(place)
		if err != nil {
			return err
		}
		if resp.PlaceID != place || resp.Visits < 1 {
			return opError(fmt.Sprintf("dwell stats %s: %+v", place, resp))
		}
		return nil
	case opVisitFrequency:
		place := t.queryPlaces[int(o.arg)%len(t.queryPlaces)]
		resp, err := c.VisitFrequency(place)
		if err != nil {
			return err
		}
		if resp.PlaceID != place || resp.TotalVisits < 1 {
			return opError(fmt.Sprintf("visit frequency %s: %+v", place, resp))
		}
		return nil
	case opPopular:
		resp, err := c.PopularPlaces(0, 0)
		if err != nil {
			return err
		}
		if resp.K != 3 {
			return opError(fmt.Sprintf("popular places: k=%d", resp.K))
		}
		return nil
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

var rangeFrom = simclock.Epoch.Format("2006-01-02")

func rangeTo(days int) string { return simclock.Epoch.AddDate(0, 0, days-1).Format("2006-01-02") }

// subscribe attaches the user's SSE subscription and waits until the server
// has registered it, so no event of the user's first stream can be missed.
func (e *env) subscribe(vu *vuser) error {
	rt := e.callers[vu.id%callers].rt
	select {
	case <-rt.attached:
	default:
	}
	sub, err := vu.client.Subscribe(context.Background())
	if err != nil {
		return err
	}
	s := &subscriber{sub: sub, done: make(chan struct{})}
	vu.sub = s
	go func() {
		defer close(s.done)
		for ev := range sub.C {
			if ev.Type == events.KindReset || ev.Type == events.KindEvicted {
				// Control frames break the gapless-sequence promise; record
				// them as a seq-0 event so the order check fails.
				ev.Seq = 0
			}
			now := e.now()
			rec := eventRec{seq: ev.Seq, latency: now - s.streamStart.Load()}
			if ev.PublishedUnixNano > 0 {
				rec.pubToRecv = time.Now().UnixNano() - ev.PublishedUnixNano
			}
			s.mu.Lock()
			s.events = append(s.events, rec)
			s.mu.Unlock()
		}
	}()
	select {
	case <-rt.attached:
		return nil
	case <-s.done:
		return fmt.Errorf("subscription ended before attach: %v", sub.Err())
	case <-time.After(5 * time.Second):
		return fmt.Errorf("subscription did not attach within 5s")
	}
}

// endSession closes a finished user's subscription once every event its
// streams published has arrived (bounded wait; a shortfall fails the event
// check later). Runs outside any op's latency window.
func (e *env) endSession(vu *vuser) {
	vu.complete = true
	if vu.sub == nil {
		return
	}
	for deadline := time.Now().Add(time.Second); vu.sub.received() < vu.sub.expected && time.Now().Before(deadline); {
		time.Sleep(200 * time.Microsecond)
	}
	vu.sub.sub.Close()
	<-vu.sub.done
}

// generatorStats says how much of the run the load generator itself accounts
// for: the share of closed-loop caller time spent outside client calls, and
// the open loop's sorted dispatch lateness.
func (e *env) generatorStats() (idleFrac float64, late []int64) {
	var busy, wall int64
	for _, c := range e.callers {
		busy += c.busy
		wall += c.wall
		late = append(late, c.late...)
	}
	slices.Sort(late)
	if !e.w.open {
		idleFrac = 1 - ratio(float64(busy), float64(wall))
	}
	return idleFrac, late
}

// phaseResult is what the timed phase measured, before any analysis.
type phaseResult struct {
	startNS   int64 // phase start on the run clock (the tracer's)
	wall      time.Duration
	cpuMicros int64
	mem       [2]runtime.MemStats
	server    [2]obs.Snapshot
	client    [2]obs.Snapshot
	lagMax    uint64
}

// timedPhase runs the schedule for the given duration on `callers`
// goroutines and returns the raw measurements. Closed loop: each caller
// issues its list back to back until the deadline. Open loop: each caller
// sleeps to every op's due time, so a slow PCI makes later ops late and their
// from-due latency says so.
func (e *env) timedPhase(seconds int) *phaseResult {
	for c, cs := range e.callers {
		n := len(e.sched.perCaller[c])
		cs.samples = make([]sample, 0, n)
		if e.w.open {
			cs.late = make([]int64, 0, n)
		}
	}
	res := &phaseResult{}
	stopLag := make(chan struct{})
	var lagWG sync.WaitGroup
	if e.w.cluster {
		lagWG.Add(1)
		go func() {
			defer lagWG.Done()
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopLag:
					return
				case <-tick.C:
					for _, nd := range e.pci.nodes {
						res.lagMax = max(res.lagMax, nd.cnode.Lag())
					}
				}
			}
		}()
	}

	runtime.GC()
	runtime.ReadMemStats(&res.mem[0])
	res.server[0], res.client[0] = e.pci.reg.Snapshot(), e.clientReg.Snapshot()
	cpu0 := cpuMicros()
	start := time.Now()
	res.startNS = e.now()
	deadline := start.Add(time.Duration(seconds) * time.Second)

	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cs := e.callers[c]
			ops := e.sched.perCaller[c]
			free := start
			for i := 0; ; i++ {
				var o op
				var due time.Time
				if e.w.open {
					if i == len(ops) {
						break
					}
					o = ops[i]
					due = start.Add(time.Duration(o.due))
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				} else {
					if !time.Now().Before(deadline) {
						break
					}
					o = ops[i%len(ops)]
				}
				vu := e.vus[o.vu]
				var sp *opSpans
				if e.tracer != nil && (i/traceBlock)%2 == 0 {
					sp = e.tracer.begin(c, int64(i*callers+c), o.kind)
					cs.rt.cur = sp
				}
				t0 := time.Now()
				err := e.issue(vu, o)
				t1 := time.Now()
				if sp != nil {
					cs.rt.cur = nil
					e.tracer.finish(c, sp)
				}
				s := sample{kind: o.kind, ok: err == nil, traced: sp != nil, call: int64(t1.Sub(t0)), end: int64(t1.Sub(start))}
				s.latency = s.call
				if e.w.open {
					s.latency = int64(t1.Sub(due))
					ref := due
					if free.After(ref) {
						ref = free
					}
					cs.late = append(cs.late, int64(t0.Sub(ref)))
					free = t1
				}
				if err != nil {
					e.firstFailure.CompareAndSwap(nil, &failure{kind: o.kind, err: err})
				}
				cs.samples = append(cs.samples, s)
				cs.busy += s.call
				cs.wall = s.end
				if e.w.open && o.kind == opPopular && int(o.day) == e.w.days-1 {
					e.endSession(vu)
					free = time.Now()
				}
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.cpuMicros = cpuMicros() - cpu0
	close(stopLag)
	lagWG.Wait()
	// Every acknowledged write has been acked by its follower (semi-sync),
	// but the shipper's counters settle a moment after the ack; wait for the
	// stream to read drained so the count deltas below are final.
	for _, nd := range e.pci.nodes {
		for t := time.Now(); nd.cnode != nil && nd.cnode.Lag() != 0 && time.Since(t) < 10*time.Second; {
			time.Sleep(time.Millisecond)
		}
	}
	res.server[1], res.client[1] = e.pci.reg.Snapshot(), e.clientReg.Snapshot()
	runtime.ReadMemStats(&res.mem[1])
	return res
}

// failure is a failed op, kept for the error report.
type failure struct {
	kind opKind
	err  error
}

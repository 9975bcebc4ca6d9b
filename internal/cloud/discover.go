package cloud

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"repro/internal/events"
	"repro/internal/gsm"
	"repro/internal/obs"
)

// Default discovery pool sizing (overridable with WithDiscoverPool / the
// -discover-workers and -discover-queue flags).
const (
	DefaultDiscoverWorkers = 4
	DefaultDiscoverQueue   = 64
)

// pipeCacheCap bounds how many users' GCA pipelines stay warm (one cache
// shared by discovery and the streaming ingest); least-recently-used entries
// are evicted and rebuilt from the persisted trace on the user's next use.
const pipeCacheCap = 512

// errDiscoverBusy maps to 429 + Retry-After: the queue is full and the
// client should back off.
var errDiscoverBusy = errors.New("cloud: discovery queue full")

// errDiscoverStopped reports a discovery interrupted by server shutdown.
var errDiscoverStopped = errors.New("cloud: discovery pool stopped")

// discoverMetrics is the discovery path's metric bundle (DESIGN.md §11).
//
// Family inventory:
//
//	pci_discover_queue_depth        gauge of jobs waiting for a worker
//	pci_discover_wait_us            queue wait latency histogram
//	pci_discover_run_us             discovery run latency histogram
//	pci_discover_memo_hits_total    requests answered from the result memo
//	pci_discover_coalesced_total    requests that joined an in-flight discovery
//	pci_discover_incremental_total  runs that extended a cached pipeline
//	pci_discover_full_total         runs that rebuilt the pipeline from scratch
//	pci_discover_rejected_total     requests refused with 429 (queue full)
//	pci_trace_appended_obs_total    observations appended by delta sync
//	pci_trace_conflicts_total       delta uploads rejected with 409
type discoverMetrics struct {
	queueDepth  *obs.Gauge
	waitUs      *obs.Histogram
	runUs       *obs.Histogram
	memoHits    *obs.Counter
	coalesced   *obs.Counter
	incremental *obs.Counter
	full        *obs.Counter
	rejected    *obs.Counter
	appended    *obs.Counter
	conflicts   *obs.Counter
}

func newDiscoverMetrics(reg *obs.Registry) *discoverMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &discoverMetrics{
		queueDepth:  reg.Gauge("pci_discover_queue_depth"),
		waitUs:      reg.Histogram("pci_discover_wait_us", obs.DefaultLatencyBuckets()),
		runUs:       reg.Histogram("pci_discover_run_us", obs.DefaultLatencyBuckets()),
		memoHits:    reg.Counter("pci_discover_memo_hits_total"),
		coalesced:   reg.Counter("pci_discover_coalesced_total"),
		incremental: reg.Counter("pci_discover_incremental_total"),
		full:        reg.Counter("pci_discover_full_total"),
		rejected:    reg.Counter("pci_discover_rejected_total"),
		appended:    reg.Counter("pci_trace_appended_obs_total"),
		conflicts:   reg.Counter("pci_trace_conflicts_total"),
	}
}

// discoverFlight is one in-progress discovery for a user. Concurrent
// requests for the same user join it instead of queueing duplicate work;
// gen/len record the trace position the run actually covered (set before
// done closes).
type discoverFlight struct {
	done chan struct{}
	err  error
	gen  uint64
	len  int64
}

type discoverJob struct {
	uid    string
	flight *discoverFlight
	enq    time.Time
}

// discoverMemo records the trace position whose discovery result is already
// in the store, so a retry (or any request not past that position) is
// answered without recomputation.
type discoverMemo struct {
	gen uint64
	len int64
}

// userPipe is one user's cached GCA state, valid for a single trace replace
// generation: an online event detector, which wraps the incremental
// pipeline discovery extends. mu serializes the user's discovery runs and
// stream batches.
type userPipe struct {
	mu   sync.Mutex
	gen  uint64
	det  *events.Detector
	used uint64 // last-use ordinal for LRU eviction, under discoverPool.mu
}

// discoverPool runs offloaded GCA on a bounded worker pool instead of the
// HTTP handler goroutine: a full queue turns into 429 backpressure rather
// than unbounded goroutines, per-user single-flight dedups concurrent
// requests, a (user, trace position) memo makes client retries free, and a
// per-user cached pipeline makes nightly re-discovery cost O(new data). The
// stream ingest reaches the same cache (lockPipe), so a trace is folded into
// one pipeline however it arrived.
type discoverPool struct {
	store  *Store
	params gsm.Params
	m      *discoverMetrics

	queue   chan *discoverJob
	stopped chan struct{}
	wg      sync.WaitGroup

	mu      sync.Mutex
	flights map[string]*discoverFlight
	memo    map[string]discoverMemo
	pipes   map[string]*userPipe
	seq     uint64

	// testHook, when set, runs in the worker before each job — the seam the
	// backpressure tests use to hold workers while the queue fills.
	testHook func(uid string)
}

func newDiscoverPool(store *Store, params gsm.Params, workers, queueLen int, m *discoverMetrics) *discoverPool {
	if workers <= 0 {
		workers = DefaultDiscoverWorkers
	}
	if queueLen <= 0 {
		queueLen = DefaultDiscoverQueue
	}
	p := &discoverPool{
		store:   store,
		params:  params,
		m:       m,
		queue:   make(chan *discoverJob, queueLen),
		stopped: make(chan struct{}),
		flights: map[string]*discoverFlight{},
		memo:    map[string]discoverMemo{},
		pipes:   map[string]*userPipe{},
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// close stops the workers. Queued jobs are abandoned; their waiters receive
// errDiscoverStopped.
func (p *discoverPool) close() {
	close(p.stopped)
	p.wg.Wait()
}

// discover returns the user's places for at least the given trace position,
// running (or joining, or memo-skipping) a discovery as needed.
func (p *discoverPool) discover(ctx context.Context, uid string, want TraceStatus) ([]PlaceWire, error) {
	for {
		p.mu.Lock()
		if m, ok := p.memo[uid]; ok && m.gen == want.Gen && m.len >= want.Len {
			p.mu.Unlock()
			p.m.memoHits.Inc()
			return p.store.Places(uid), nil
		}
		f := p.flights[uid]
		if f == nil {
			f = &discoverFlight{done: make(chan struct{})}
			job := &discoverJob{uid: uid, flight: f, enq: time.Now()}
			select {
			case p.queue <- job:
				p.flights[uid] = f
				p.m.queueDepth.Inc()
			default:
				p.mu.Unlock()
				p.m.rejected.Inc()
				return nil, errDiscoverBusy
			}
			p.mu.Unlock()
		} else {
			p.mu.Unlock()
			p.m.coalesced.Inc()
		}

		select {
		case <-f.done:
		case <-p.stopped:
			return nil, errDiscoverStopped
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if f.err != nil {
			return nil, f.err
		}
		if f.gen == want.Gen && f.len >= want.Len {
			return p.store.Places(uid), nil
		}
		// The finished flight predates this request's trace sync (another
		// upload replaced or extended the trace while it queued): go again.
		// Generations and lengths only move forward, so this terminates.
	}
}

func (p *discoverPool) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stopped:
			return
		case job := <-p.queue:
			p.m.queueDepth.Dec()
			p.m.waitUs.ObserveDuration(time.Since(job.enq))
			p.runJob(job)
		}
	}
}

// runJob executes one discovery: extend (or rebuild) the user's pipeline
// from the persisted trace, store the places, publish the memo, release the
// flight.
func (p *discoverPool) runJob(job *discoverJob) {
	if h := p.testHook; h != nil {
		h(job.uid)
	}
	start := time.Now()
	var wire []PlaceWire
	var gen uint64
	var traceLen int64
	e := p.lockPipe(job.uid)
	rebuilt := p.withDetector(e, job.uid, 0, func(v *traceView, det *events.Detector) {
		gen, traceLen = v.Gen, v.Len
		// Only what the pipeline has not seen is decoded: the new tail, or
		// nothing after a rebuild. The detector publishes the transitions
		// this folds in on the user's next stream batch.
		pipe := det.Pipeline()
		pipe.Extend(v.From(pipe.Len()))
		res := pipe.Result()
		wire = make([]PlaceWire, 0, len(res.Places))
		for _, pl := range res.Places {
			wire = append(wire, PlaceToWire(pl))
		}
	})
	e.mu.Unlock()
	if rebuilt {
		p.m.full.Inc()
	} else {
		p.m.incremental.Inc()
	}
	err := p.store.SetPlaces(job.uid, wire)
	p.m.runUs.ObserveDuration(time.Since(start))

	f := job.flight
	f.err = err
	f.gen = gen
	f.len = traceLen
	p.mu.Lock()
	if err == nil {
		p.memo[job.uid] = discoverMemo{gen: gen, len: traceLen}
	}
	delete(p.flights, job.uid)
	p.mu.Unlock()
	close(f.done)
}

// withDetector runs fn with a view of uid's persisted trace and e's
// detector; the caller holds e.mu. With no detector cached for the trace's
// generation (a cold user, an LRU eviction, a full replace invalidated it)
// it first rebuilds one, caught up silently over all but the trailing fresh
// observations — the caller's own batch, which it folds in itself. It
// reports whether it rebuilt.
func (p *discoverPool) withDetector(e *userPipe, uid string, fresh int, fn func(v *traceView, det *events.Detector)) (rebuilt bool) {
	p.store.viewTrace(uid, func(v *traceView) {
		if e.det == nil || e.gen != v.Gen || int64(e.det.Len()) > v.Len {
			e.det, e.gen, rebuilt = events.NewDetector(p.params), v.Gen, true
			e.det.CatchUp(v.decode(0, max(int(v.Len)-fresh, 0)))
		}
		fn(v, e.det)
	})
	return rebuilt
}

// lockPipe returns the user's cache entry with its mutex held; the caller
// unlocks it. A missing entry is created, evicting the least recently used
// one beyond the cap. Eviction only drops derived state: the trace is
// persisted, and the next use rebuilds from it.
func (p *discoverPool) lockPipe(uid string) *userPipe {
	p.mu.Lock()
	p.seq++
	e := p.pipes[uid]
	if e == nil {
		if len(p.pipes) >= pipeCacheCap {
			victim, oldest := "", uint64(math.MaxUint64)
			for id, pe := range p.pipes {
				if pe.used < oldest {
					victim, oldest = id, pe.used
				}
			}
			delete(p.pipes, victim)
		}
		e = &userPipe{}
		p.pipes[uid] = e
	}
	e.used = p.seq
	p.mu.Unlock()
	e.mu.Lock()
	return e
}

package cloud

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"repro/internal/gsm"
	"repro/internal/obs"
)

// Default discovery pool sizing (overridable with WithDiscoverPool / the
// -discover-workers and -discover-queue flags).
const (
	DefaultDiscoverWorkers = 4
	DefaultDiscoverQueue   = 64
)

// pipeCacheCap bounds how many per-user incremental pipelines the pool keeps
// warm; least-recently-used entries are evicted and rebuilt from the
// persisted trace on the user's next discovery.
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

// pipeEntry is one user's cached incremental pipeline, valid for a single
// trace replace generation.
type pipeEntry struct {
	gen  uint64
	pipe *gsm.Pipeline
	seq  uint64 // last-use ordinal for LRU eviction
}

// discoverPool runs offloaded GCA on a bounded worker pool instead of the
// HTTP handler goroutine: a full queue turns into 429 backpressure rather
// than unbounded goroutines, per-user single-flight dedups concurrent
// requests, a (user, trace position) memo makes client retries free, and a
// per-user cached gsm.Pipeline makes nightly re-discovery cost O(new data).
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
	pipes   map[string]*pipeEntry
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
		pipes:   map[string]*pipeEntry{},
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
// flight. Single-flight guarantees one runJob per user at a time, so the
// pipeline checkout needs no further locking.
func (p *discoverPool) runJob(job *discoverJob) {
	if h := p.testHook; h != nil {
		h(job.uid)
	}
	start := time.Now()
	entry := p.takePipe(job.uid)
	var res *gsm.Result
	var gen uint64
	var traceLen int
	p.store.viewTrace(job.uid, func(v *traceView) {
		gen, traceLen = v.Gen, int(v.Len)
		if entry == nil || entry.gen != gen || entry.pipe.Len() > traceLen {
			// No cached pipeline for this trace generation (cold user, LRU
			// eviction, or a full replace invalidated it): rebuild.
			entry = &pipeEntry{gen: gen, pipe: gsm.NewPipeline(p.params)}
			p.m.full.Inc()
		} else {
			p.m.incremental.Inc()
		}
		// Only what the pipeline has not seen is decoded: everything on a
		// rebuild, the new tail otherwise.
		entry.pipe.Extend(v.From(entry.pipe.Len()))
		res = entry.pipe.Result()
	})
	wire := make([]PlaceWire, 0, len(res.Places))
	for _, pl := range res.Places {
		wire = append(wire, PlaceToWire(pl))
	}
	err := p.store.SetPlaces(job.uid, wire)
	p.putPipe(job.uid, entry)
	p.m.runUs.ObserveDuration(time.Since(start))

	f := job.flight
	f.err = err
	f.gen = gen
	f.len = int64(traceLen)
	p.mu.Lock()
	if err == nil {
		p.memo[job.uid] = discoverMemo{gen: gen, len: int64(traceLen)}
	}
	delete(p.flights, job.uid)
	p.mu.Unlock()
	close(f.done)
}

// takePipe checks the user's cached pipeline out of the cache (nil when
// absent). Checked-out entries are invisible to eviction.
func (p *discoverPool) takePipe(uid string) *pipeEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.pipes[uid]
	delete(p.pipes, uid)
	return e
}

// putPipe returns a pipeline to the cache, evicting the least recently used
// entry beyond the cap.
func (p *discoverPool) putPipe(uid string, e *pipeEntry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seq++
	e.seq = p.seq
	p.pipes[uid] = e
	if len(p.pipes) <= pipeCacheCap {
		return
	}
	victim := ""
	min := uint64(math.MaxUint64)
	for id, pe := range p.pipes {
		if pe.seq < min {
			min, victim = pe.seq, id
		}
	}
	delete(p.pipes, victim)
}

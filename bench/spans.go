package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloud"
	"repro/internal/cluster"
)

// The traced run records spans only at seams the benchmark owns:
//
//	client.call       around each cloud.Client method        (root, per op)
//	client.transport  RoundTrip .. response-body close       (child of call)
//	server.handle     around srv.Handler()                   (child of transport)
//	cluster.repl_post one per replication POST               (no parent)
//
// Below server.handle the benchmark cannot see without editing the program;
// probes (probe.go) cover that part.

// opHeader carries "<caller>.<index>" from client.transport to server.handle.
const opHeader = "X-Bench-Op"

// traceBlock is how many consecutive ops of a caller are traced before the
// same number run untraced. Interleaving the two populations inside one run
// is what lets trace.overhead_frac compare like with like.
const traceBlock = 64

type interval struct{ start, end int64 }

func (iv interval) dur() int64 { return iv.end - iv.start }

// opSpans is the span set of one traced op. Durations are kept separately
// from the intervals because an op can take more than one HTTP attempt (a
// 421 re-target in cluster mode); the interval then covers first start to
// last end and the duration is the sum.
type opSpans struct {
	id        int64
	kind      opKind
	call      interval
	transport interval
	handle    interval
	transDur  int64
	handleDur int64
	attempts  int
}

// spanRec is the on-disk form: one JSON object per line in
// bench/out/<workload>.spans.jsonl.
type spanRec struct {
	Name    string `json:"name"`
	OpID    int64  `json:"op_id"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer owns the run's span storage. Every timestamp is nanoseconds since
// epoch on the monotonic clock.
type tracer struct {
	epoch time.Time

	// slots[c] is caller c's op in flight. The caller goroutine writes call
	// and transport fields; server goroutines write handle fields under mu
	// (the network gives the race detector no happens-before edge).
	slots [callers]struct {
		mu  sync.Mutex
		cur *opSpans
	}
	done [callers][]opSpans

	// handleBusy sums every request's time inside the handler, traced or
	// not: the numerator of server.busy_frac.
	handleBusy atomic.Int64

	replMu sync.Mutex
	repl   []replPost
}

// replPost is one replication POST: its span and request body size.
type replPost struct {
	interval
	bytes int64
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens the span set of caller c's op; finish files it.
func (t *tracer) begin(c int, id int64, kind opKind) *opSpans {
	s := &opSpans{id: id, kind: kind}
	t.slots[c].mu.Lock()
	t.slots[c].cur = s
	t.slots[c].mu.Unlock()
	s.call.start = t.now()
	return s
}

func (t *tracer) finish(c int, s *opSpans) {
	s.call.end = t.now()
	t.slots[c].mu.Lock()
	t.slots[c].cur = nil
	t.done[c] = append(t.done[c], *s)
	t.slots[c].mu.Unlock()
}

// wrapHandler is the server.handle seam.
func (t *tracer) wrapHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		next.ServeHTTP(w, r)
		end := t.now()
		t.handleBusy.Add(end - start)
		tag := r.Header.Get(opHeader)
		if tag == "" {
			return
		}
		cs, is, ok := strings.Cut(tag, ".")
		c, err1 := strconv.Atoi(cs)
		id, err2 := strconv.ParseInt(is, 10, 64)
		if !ok || err1 != nil || err2 != nil || c < 0 || c >= callers {
			return
		}
		slot := &t.slots[c]
		slot.mu.Lock()
		if s := slot.cur; s != nil && s.id == id {
			if s.handleDur == 0 {
				s.handle.start = start
			}
			s.handle.end = end
			s.handleDur += end - start
		}
		slot.mu.Unlock()
	})
}

// callerRT is a caller's http.RoundTripper. It sends SSE subscriptions over
// their own transport (each holds a connection for its lifetime; the call
// transport is bounded to `callers` connections), signals attach, and — in a
// traced run — is the client.transport seam.
type callerRT struct {
	calls    http.RoundTripper
	sse      http.RoundTripper
	attached chan struct{}

	t      *tracer
	caller int
	// cur is the traced op in flight, set and cleared by the caller goroutine
	// around the client call; nil for untraced ops.
	cur *opSpans
}

func (rt *callerRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == cloud.PathEventsSubscribe {
		resp, err := rt.sse.RoundTrip(req)
		if err == nil && resp.StatusCode == http.StatusOK {
			// The server registers the subscriber with the hub before it
			// writes the response header, so a 200 means attached.
			select {
			case rt.attached <- struct{}{}:
			default:
			}
		}
		return resp, err
	}
	s := rt.cur
	if s == nil {
		return rt.calls.RoundTrip(req)
	}
	r2 := req.WithContext(req.Context())
	r2.Header = req.Header.Clone()
	r2.Header.Set(opHeader, strconv.Itoa(rt.caller)+"."+strconv.FormatInt(s.id, 10))
	start := rt.t.now()
	if s.attempts == 0 {
		s.transport.start = start
	}
	s.attempts++
	end := func() {
		now := rt.t.now()
		s.transport.end = now
		s.transDur += now - start
	}
	resp, err := rt.calls.RoundTrip(r2)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: end}
	return resp, nil
}

// spanBody closes a transport span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	end func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	if b.end != nil {
		b.end()
		b.end = nil
	}
	return err
}

// replRT is the cluster.repl_post seam: the RoundTripper behind
// ClusterNodeConfig.HTTP.
type replRT struct {
	base http.RoundTripper
	t    *tracer
}

func (rt *replRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != cluster.PathReplBatch {
		return rt.base.RoundTrip(req)
	}
	start := rt.t.now()
	record := func() {
		rt.t.replMu.Lock()
		rt.t.repl = append(rt.t.repl, replPost{interval{start, rt.t.now()}, max(req.ContentLength, 0)})
		rt.t.replMu.Unlock()
	}
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		record()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: record}
	return resp, nil
}

// records flattens the run's spans into their on-disk form.
func (t *tracer) records() []spanRec {
	var out []spanRec
	for c := range t.done {
		for _, s := range t.done[c] {
			out = append(out, spanRec{"client.call", s.id, "", s.call.start, s.call.end})
			if s.attempts > 0 {
				out = append(out, spanRec{"client.transport", s.id, "client.call", s.transport.start, s.transport.end})
			}
			if s.handleDur > 0 {
				out = append(out, spanRec{"server.handle", s.id, "client.transport", s.handle.start, s.handle.end})
			}
		}
	}
	for i, p := range t.repl {
		out = append(out, spanRec{"cluster.repl_post", int64(i), "", p.start, p.end})
	}
	return out
}

func writeSpans(path string, recs []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

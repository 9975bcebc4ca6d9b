package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// Shipper is the primary side of WAL-shipping replication: a bounded
// in-order buffer of journaled records and a single goroutine that ships
// them to the node's follower in batches.
//
// Semi-synchronous contract: the engine calls Enqueue under the shard lock
// (freezing per-shard ship order to WAL order) and Wait after the record is
// locally durable. Wait returns once the follower has acknowledged the
// record's sequence number — so every client-acknowledged write exists on
// two nodes — unless the shipper is degraded (follower unreachable or
// resyncing), in which case writes proceed locally and the follower catches
// up with a stream resume or a full resync.
//
// Stream identity is (node, epoch). The epoch bumps on every process start:
// a restarted primary cannot know which suffix of its in-memory queue
// reached the follower, so it never resumes a cursor — it re-baselines with
// a full resync. Within one epoch the cursor is exact.
type Shipper struct {
	cfg   ShipperConfig
	epoch uint64

	mu      sync.Mutex
	cond    *sync.Cond // wakes the ship loop
	ackCond *sync.Cond // wakes semi-sync waiters
	seq     uint64     // last sequence number issued
	acked   uint64     // follower's durable cursor
	buf     []bufRec   // contiguous run acked+1..seq (unless dropped for resync)
	target  *Node      // current follower; nil = unreplicated
	resync  bool       // next action is a full resync
	degrade bool       // Wait must not block (follower down / resyncing)
	closing bool

	failures int
	done     chan struct{}
	encBuf   []byte // batch encode buffer, reused by the ship loop goroutine
	m        shipMetrics
}

type bufRec struct {
	seq uint64
	rec ShipRecord
}

const (
	// shipMaxBatch caps records per batch POST.
	shipMaxBatch = 256
	// shipMaxQueue caps records buffered while the follower is unreachable;
	// beyond it the buffer is dropped and the stream re-baselines with a
	// full resync on reconnect.
	shipMaxQueue = 1 << 16
	// shipDegradeAfter is how many consecutive batch failures switch Wait to
	// non-blocking.
	shipDegradeAfter = 2
)

// ShipperConfig configures a node's shipper.
type ShipperConfig struct {
	// Self is this node's ID (the stream name followers key cursors on).
	Self string
	// Epoch is this process lifetime's stream epoch (see NextEpoch).
	Epoch uint64
	// HTTP issues the replication POSTs.
	HTTP *http.Client
	// DataShards is carried on every request so a misconfigured follower
	// (different shard count = different key placement) rejects the stream
	// instead of silently corrupting it.
	DataShards int
	// Export cuts a consistent wholesale snapshot of every user this node
	// owns, returning the stream baseline the snapshot corresponds to. It
	// must block writes for the duration (the cloud store's write gate).
	Export func() (recs []ShipRecord, baseline uint64, err error)
	// RingVersion reports the ring version this node currently holds; it is
	// stamped on every batch and sync so the follower can refuse a stream
	// from a sender whose topology view is stale (nil = unversioned, only
	// acceptable against a receiver with no VerifyStream check).
	RingVersion func() uint64
	// Metrics receives the pci_repl_* shipper families (nil = obs.Default).
	Metrics *obs.Registry
	Logf    func(format string, args ...any)
}

type shipMetrics struct {
	shipped  *obs.Counter
	batches  *obs.Counter
	errors   *obs.Counter
	resyncs  *obs.Counter
	lag      *obs.Gauge
	degraded *obs.Gauge
}

// NewShipper starts a shipper; Close releases it.
func NewShipper(cfg ShipperConfig) *Shipper {
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{Timeout: 30 * time.Second}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	s := &Shipper{
		cfg:   cfg,
		epoch: cfg.Epoch,
		done:  make(chan struct{}),
		m: shipMetrics{
			shipped:  reg.Counter("pci_repl_shipped_records_total"),
			batches:  reg.Counter("pci_repl_ship_batches_total"),
			errors:   reg.Counter("pci_repl_ship_errors_total"),
			resyncs:  reg.Counter("pci_repl_resyncs_total"),
			lag:      reg.Gauge("pci_repl_lag_records"),
			degraded: reg.Gauge("pci_repl_degraded"),
		},
	}
	s.cond = sync.NewCond(&s.mu)
	s.ackCond = sync.NewCond(&s.mu)
	go s.run()
	return s
}

func (s *Shipper) ringVersion() uint64 {
	if s.cfg.RingVersion == nil {
		return 0
	}
	return s.cfg.RingVersion()
}

func (s *Shipper) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Seq reports the last issued sequence number. Export callbacks read it
// under the store's write gate to compute the resync baseline.
func (s *Shipper) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Lag reports how many records the follower is behind.
func (s *Shipper) Lag() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq - s.acked
}

// Enqueue registers one record for shipment (storage.ReplSink). Called under
// a shard lock: constant-time append only.
func (s *Shipper) Enqueue(shard int, rec []byte) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	if s.target != nil {
		if len(s.buf) >= shipMaxQueue {
			// The follower is too far behind to stream to; drop the buffer
			// and re-baseline with a full resync when it answers again.
			s.buf = s.buf[:0]
			s.resync = true
			s.setDegraded(true)
		} else {
			s.buf = append(s.buf, bufRec{seq: s.seq, rec: ShipRecord{Shard: shard, Rec: rec}})
		}
	}
	s.m.lag.Set(int64(s.seq - s.acked))
	s.cond.Signal()
	return s.seq
}

// Wait blocks until the follower acked the token (storage.ReplSink).
func (s *Shipper) Wait(tok uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.target != nil && !s.degrade && !s.closing && s.acked < tok {
		s.ackCond.Wait()
	}
}

// SetTarget points the stream at a (possibly new) follower. A changed
// target always re-baselines with a full resync: the new follower's state
// is unknown.
func (s *Shipper) SetTarget(n *Node) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n == nil {
		s.target = nil
		s.buf = s.buf[:0]
		s.resync = false
		s.setDegraded(false) // no follower: writes are local-only by design
		s.acked = s.seq
		s.ackCond.Broadcast()
		s.cond.Signal()
		return
	}
	if s.target != nil && s.target.ID == n.ID && s.target.URL == n.URL {
		return
	}
	s.target = &Node{ID: n.ID, URL: n.URL}
	s.buf = s.buf[:0]
	s.resync = true
	s.setDegraded(true)
	s.ackCond.Broadcast()
	s.cond.Signal()
}

// ForceResync re-baselines the current stream (used when this node's owned
// range set changed, e.g. it inherited a dead peer's ranges: the follower
// is missing the inherited history).
func (s *Shipper) ForceResync() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.target == nil {
		return
	}
	s.buf = s.buf[:0]
	s.resync = true
	s.setDegraded(true)
	s.ackCond.Broadcast()
	s.cond.Signal()
}

// setDegraded must run under mu.
func (s *Shipper) setDegraded(d bool) {
	s.degrade = d
	if d {
		s.m.degraded.Set(1)
		s.ackCond.Broadcast()
	} else {
		s.m.degraded.Set(0)
	}
}

// Close flushes what it can (bounded) and stops the ship loop.
func (s *Shipper) Close() {
	s.mu.Lock()
	s.closing = true
	s.ackCond.Broadcast()
	s.cond.Signal()
	s.mu.Unlock()
	select {
	case <-s.done:
	case <-time.After(3 * time.Second):
	}
}

// run is the ship loop: one in-flight batch (or resync) at a time. A batch
// is whatever was enqueued while the previous POST was in flight, so its size
// follows the follower's own latency.
func (s *Shipper) run() {
	defer close(s.done)
	backoff := 50 * time.Millisecond
	var recs []ShipRecord // the batch in flight, reused like encBuf
	for {
		s.mu.Lock()
		for !s.closing && (s.target == nil || (!s.resync && len(s.buf) == 0)) {
			s.cond.Wait()
		}
		if s.closing && (s.target == nil || (!s.resync && len(s.buf) == 0) || s.degrade) {
			s.mu.Unlock()
			return
		}
		target := *s.target
		doResync := s.resync
		var start uint64
		if !doResync {
			start = s.buf[0].seq
			recs = recs[:0]
			for _, b := range s.buf[:min(len(s.buf), shipMaxBatch)] {
				recs = append(recs, b.rec)
			}
		}
		s.mu.Unlock()

		var err error
		if doResync {
			err = s.doResync(target)
		} else {
			err = s.shipBatch(target, start, recs)
		}

		s.mu.Lock()
		if err != nil {
			s.failures++
			s.m.errors.Inc()
			if s.failures >= shipDegradeAfter && !s.degrade {
				s.logf("cluster: shipper to %s degraded after %d failures: %v", target.ID, s.failures, err)
				s.setDegraded(true)
			}
			if s.closing {
				s.mu.Unlock()
				return
			}
			s.mu.Unlock()
			time.Sleep(backoff)
			if backoff < time.Second {
				backoff *= 2
			}
			continue
		}
		s.failures = 0
		backoff = 50 * time.Millisecond
		if !s.resync && len(s.buf) == 0 && s.degrade {
			s.logf("cluster: shipper to %s caught up, back to semi-sync", target.ID)
			s.setDegraded(false)
		}
		s.mu.Unlock()
	}
}

// shipBatch POSTs one contiguous batch, records start..start+len(recs)-1 of
// the stream, and advances the cursor.
func (s *Shipper) shipBatch(target Node, start uint64, recs []ShipRecord) error {
	s.encBuf = EncodeBatchBinary(s.encBuf[:0], &BatchRequest{
		From:        s.cfg.Self,
		Epoch:       s.epoch,
		Start:       start,
		RingVersion: s.ringVersion(),
		DataShards:  s.cfg.DataShards,
		TraceShards: s.cfg.DataShards,
		Records:     recs,
	})
	resp, err := PostBatch(s.cfg.HTTP, target.URL+PathReplBatch, s.encBuf)
	if err != nil {
		return err
	}
	s.m.batches.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	if resp.Resync {
		// Follower cannot continue this stream (unclean restart, epoch or
		// gap mismatch): re-baseline.
		s.logf("cluster: follower %s demands resync (acked %d)", target.ID, resp.Acked)
		s.buf = s.buf[:0]
		s.resync = true
		s.setDegraded(true)
		return nil
	}
	if resp.Error != "" {
		return fmt.Errorf("cluster: follower %s: %s", target.ID, resp.Error)
	}
	if resp.Acked > s.acked {
		shipped := resp.Acked - s.acked
		s.m.shipped.Add(shipped)
		// Trim everything the follower now has.
		cut := 0
		for cut < len(s.buf) && s.buf[cut].seq <= resp.Acked {
			cut++
		}
		s.buf = s.buf[cut:]
		s.acked = resp.Acked
		s.m.lag.Set(int64(s.seq - s.acked))
		s.ackCond.Broadcast()
	}
	return nil
}

// doResync cuts a wholesale snapshot under the store's write gate and
// replaces the follower's copy of this node's ranges.
func (s *Shipper) doResync(target Node) error {
	recs, baseline, err := s.cfg.Export()
	if err != nil {
		return fmt.Errorf("cluster: export for resync: %w", err)
	}
	// A fresh buffer, not encBuf: a whole-node export must not stay pinned.
	resp, err := PostBatch(s.cfg.HTTP, target.URL+PathReplSync, EncodeBatchBinary(nil, &BatchRequest{
		From:        s.cfg.Self,
		Epoch:       s.epoch,
		Start:       baseline,
		RingVersion: s.ringVersion(),
		DataShards:  s.cfg.DataShards,
		TraceShards: s.cfg.DataShards,
		Records:     recs,
	}))
	if err != nil {
		return err
	}
	if resp.Error != "" {
		return fmt.Errorf("cluster: resync rejected by %s: %s", target.ID, resp.Error)
	}
	s.m.resyncs.Inc()
	s.logf("cluster: resynced %d users' records to %s at baseline %d", len(recs), target.ID, baseline)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resync = false
	if baseline > s.acked {
		s.acked = baseline
	}
	cut := 0
	for cut < len(s.buf) && s.buf[cut].seq <= baseline {
		cut++
	}
	s.buf = s.buf[cut:]
	s.m.lag.Set(int64(s.seq - s.acked))
	s.ackCond.Broadcast()
	return nil
}

// PostBatch sends one encoded BatchRequest (a batch, resync or handoff — the
// URL's path names which) and decodes the answer.
func PostBatch(c *http.Client, url string, body []byte) (BatchResponse, error) {
	var into BatchResponse
	resp, err := c.Post(url, ContentTypeReplBinary, bytes.NewReader(body))
	if err != nil {
		return into, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// The body is the receiver's reason (a foreign wire version, a wrong
		// Content-Type): keep a bounded prefix for the sender's log, drain
		// the rest so the keep-alive connection survives the refusal.
		reason, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		io.Copy(io.Discard, resp.Body)
		return into, fmt.Errorf("cluster: %s returned %d: %s", url, resp.StatusCode, bytes.TrimSpace(reason))
	}
	return into, json.NewDecoder(resp.Body).Decode(&into)
}

// NextEpoch persists and returns the node's stream epoch: a counter in the
// node's data directory bumped once per process start, durably (fsynced file
// and directory) before it is used. An empty dir yields a wall-clock-free
// ephemeral epoch of 1 (memory-only test nodes). A REPL_EPOCH that exists but
// does not parse is an error, never epoch 1: a follower may hold a cursor for
// that epoch, and re-using it would resume a stream that is not contiguous.
func NextEpoch(dir string) (uint64, error) {
	if dir == "" {
		return 1, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	path := filepath.Join(dir, "REPL_EPOCH")
	var epoch uint64
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if epoch, err = strconv.ParseUint(string(bytes.TrimSpace(b)), 10, 64); err != nil {
			return 0, fmt.Errorf("cluster: %s is unreadable (%v); remove the replication directory to re-baseline every stream", path, err)
		}
	case !os.IsNotExist(err):
		return 0, err
	}
	epoch++
	if err := storage.WriteFileAtomic(path, []byte(strconv.FormatUint(epoch, 10)), 0o644); err != nil {
		return 0, err
	}
	return epoch, nil
}

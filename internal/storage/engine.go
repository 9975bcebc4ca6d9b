package storage

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// ShardState is the in-memory state of one shard. The engine journals
// mutations the owner hands it and replays them through Apply on recovery;
// Snapshot/Restore bound replay length via compaction. Restore must be
// all-or-nothing: on error the previous state must be intact (decode into
// fresh structures, then install).
type ShardState interface {
	// Apply replays one journaled record against the state.
	Apply(rec []byte) error
	// Snapshot encodes the full state.
	Snapshot() ([]byte, error)
	// Restore replaces the state with a decoded snapshot.
	Restore(snap []byte) error
}

// SnapshotViewer is an optional ShardState extension for off-lock snapshots
// (DESIGN.md §16). SnapshotView captures a consistent, immutable view of the
// state cheaply — shallow clones / copy-on-write, not a full encode — and
// returns an encoder over that view plus a release function. It is called
// under the shard write lock and must be fast; the engine then invokes
// encode at most once, off the lock, while writers mutate the live state on
// the next WAL generation, and calls release exactly once when the view is
// no longer needed (whether or not encode ran or succeeded). encode must
// produce exactly the bytes Snapshot would have produced at capture time —
// recovery and the cluster's byte-identical-directory equivalence depend on
// it. A state without the extension is encoded with Snapshot under the lock
// instead.
type SnapshotViewer interface {
	SnapshotView() (encode func(io.Writer) error, release func(), err error)
}

// StreamRestorer is an optional ShardState extension that decodes a snapshot
// straight from a validated reader instead of one whole-state []byte, so
// restoring a large shard never doubles its memory. The same all-or-nothing
// contract as Restore applies: on error the previous state must be intact.
// The engine fully CRC-validates the snapshot file before the first byte
// reaches RestoreStream.
type StreamRestorer interface {
	RestoreStream(r io.Reader) error
}

// Options configures an Engine.
type Options struct {
	// Dir is the data directory; one subdirectory per shard. Empty means
	// memory-only: per-shard locking with no WAL, no snapshots — the mode
	// simulations and unit tests run in.
	Dir string
	// Sync is the WAL fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval period (default 100ms).
	SyncEvery time.Duration
	// CompactEvery triggers a snapshot + log rotation after this many
	// records on a shard (default 4096; negative disables auto-compaction).
	CompactEvery int
	// CommitMaxBatch caps how many queued records one group commit may write
	// and fsync as a single batch (default DefaultCommitMaxBatch). Negative
	// disables grouping entirely: every record pays its own write+fsync —
	// the pre-group-commit behavior, kept as a benchmark baseline.
	CommitMaxBatch int
	// Metrics is the registry the engine's storage_* families register in.
	// Nil means the process-wide obs.Default() registry (what /metrics
	// serves); tests inject their own for exact delta assertions.
	Metrics *obs.Registry
	// RecoverWorkers bounds how many shards Open recovers — and Close /
	// MaterializeAll process — concurrently. 0 means
	// min(shards, max(2, GOMAXPROCS)); 1 forces the serial behavior
	// (benchmark baseline). Boot therefore costs roughly the largest shard,
	// not the sum of all shards.
	RecoverWorkers int
	// Repl, when set, receives every journaled record for shipment to a
	// replica (see internal/cluster). Enqueue runs under the shard lock —
	// the same critical section that fixes WAL order — so ship order per
	// shard equals WAL order equals apply order. Records applied through
	// ApplyShipped (i.e. records that are themselves replicas) bypass the
	// sink: replication is one hop, never a chain.
	Repl ReplSink
	// Format numbers the layout of the records and snapshot payloads the
	// engine's owner writes — bytes the engine itself never interprets. It is
	// stored in MANIFEST.json when the directory is created (0 means 1, which
	// is written as no number at all) and a directory holding another format
	// fails Open before any shard is read: the owner has no reader for it,
	// and shard recovery would take its snapshots for corrupt ones.
	Format int
}

// ReplSink is the engine's replication hook. Implementations live in
// internal/cluster; the engine only guarantees ordering and calls Wait for
// semi-synchronous acknowledgement after the record is locally durable.
type ReplSink interface {
	// Enqueue registers one journaled record for shipment and returns a
	// token for Wait. Called under the shard's write lock: it must be fast
	// and must not block on I/O.
	Enqueue(shard int, rec []byte) uint64
	// Wait blocks until the token's record is acknowledged by the replica,
	// or the sink has degraded to asynchronous shipping (replica down).
	Wait(token uint64)
}

// DefaultSyncEvery is the SyncInterval period when none is given.
const DefaultSyncEvery = 100 * time.Millisecond

// DefaultCompactEvery is the auto-compaction threshold when none is given.
const DefaultCompactEvery = 4096

// manifestName is the engine's layout descriptor inside Dir. It pins the
// shard count — reopening with a different count would hash keys to the
// wrong shards — and the owner's record format (Options.Format), so Open
// fails loudly on a mismatch of either.
const manifestName = "MANIFEST.json"

type manifest struct {
	Shards int `json:"shards"`
	Format int `json:"format,omitempty"` // absent means 1
}

// ReadManifest reports the shard count a data directory was created with.
// ok is false when the directory has no manifest (fresh or memory-only).
func ReadManifest(dir string) (shards int, ok bool, err error) {
	m, ok, err := readManifest(dir)
	return m.Shards, ok, err
}

func readManifest(dir string) (m manifest, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return m, false, nil
	}
	if err != nil {
		return m, false, fmt.Errorf("storage: read manifest: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, false, fmt.Errorf("storage: parse manifest: %w", err)
	}
	if m.Shards <= 0 {
		return m, false, fmt.Errorf("storage: manifest declares %d shards", m.Shards)
	}
	if m.Format == 0 {
		m.Format = 1
	}
	return m, true, nil
}

// shard pairs one ShardState with its lock and its log generations.
// Appends go to wal-<seq>; base is the oldest generation still on disk.
// Steady state is base == seq: snapshot-<seq> (absent for seq 0 on a fresh
// shard) holds the state as of rotation seq and wal-<seq> every mutation
// since. While an off-lock snapshot persist is in flight (or after one
// failed), base < seq and the durable state is snapshot-<base> plus the
// contiguous WAL chain wal-<base> .. wal-<seq>; recovery replays exactly that
// chain.
//
// persist serializes compactions and close: it is held across both phases of
// a compaction, so at most one snapshot persist is in flight per shard. mu
// protects the state and the WAL handle/generation bookkeeping; the WAL file
// itself is written by whichever writer holds the committer's flush mutex,
// outside mu, so a slow fsync never blocks readers. Lock order is persist →
// mu → the committer's two. The sticky poison error lives on the committer
// (the only component that can fail an append).
type shard struct {
	persist sync.Mutex
	mu      sync.RWMutex
	state   ShardState
	dir     string // "" in memory-only mode
	seq     uint64
	base    uint64
	w       *wal
	c       *committer // nil in memory-only mode
	since   int        // records appended since the last rotation
	// pending holds replica records journaled via AppendShippedBatch but not
	// yet replayed into state; materializeLocked drains it before any snapshot.
	pending [][]byte
	m       *engineMetrics
}

// sticky reports the shard's poison state: a failed journal append leaves
// memory and log diverged, which cannot be repaired in place, so every later
// mutation fails fast.
func (s *shard) sticky() error {
	if s.c == nil {
		return nil
	}
	return s.c.stickyErr()
}

// Engine is the sharded storage engine. Each shard has its own lock and its
// own WAL, so mutations on different shards never serialize against each
// other — the property the PCI's per-user keyspace layout exploits.
type Engine struct {
	opts   Options
	shards []*shard
}

// Open builds an engine over the given shard states, recovering each shard
// from Dir (snapshot load, WAL replay, torn-tail truncation, stale-file
// cleanup). The states are mutated in place during recovery. With an empty
// Dir the engine is memory-only.
func Open(opts Options, states []ShardState) (*Engine, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("storage: need at least one shard")
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	if opts.CompactEvery == 0 {
		opts.CompactEvery = DefaultCompactEvery
	}
	if opts.Format == 0 {
		opts.Format = 1
	}
	m := newEngineMetrics(opts.Metrics)
	e := &Engine{opts: opts, shards: make([]*shard, len(states))}
	if opts.Dir == "" {
		for i, st := range states {
			e.shards[i] = &shard{state: st, m: m}
		}
		return e, nil
	}

	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create data dir: %w", err)
	}
	if mf, ok, err := readManifest(opts.Dir); err != nil {
		return nil, err
	} else if ok && mf.Format != opts.Format {
		return nil, fmt.Errorf("storage: data dir %s holds record format %d, this program reads and writes format %d only", opts.Dir, mf.Format, opts.Format)
	} else if ok && mf.Shards != len(states) {
		return nil, fmt.Errorf("storage: data dir %s was created with %d shards, engine opened with %d", opts.Dir, mf.Shards, len(states))
	} else if !ok {
		mf = manifest{Shards: len(states), Format: opts.Format}
		if mf.Format == 1 {
			mf.Format = 0 // format 1 directories carry no number
		}
		data, err := json.Marshal(mf)
		if err != nil {
			return nil, err
		}
		if err := WriteFileAtomic(filepath.Join(opts.Dir, manifestName), data, 0o644); err != nil {
			return nil, fmt.Errorf("storage: write manifest: %w", err)
		}
	}

	// Recover shards concurrently: each shard's snapshot restore + WAL
	// replay is independent, so boot costs roughly the largest shard, not
	// the sum. Every shard that did open is closed again on failure.
	err := e.forEachShard(func(i int) error {
		dir := filepath.Join(opts.Dir, fmt.Sprintf("shard-%03d", i))
		sh, err := openShard(dir, states[i], opts, m)
		if err != nil {
			return fmt.Errorf("storage: shard %d: %w", i, err)
		}
		e.shards[i] = sh
		return nil
	})
	if err != nil {
		e.closeOpened()
		return nil, err
	}
	return e, nil
}

// workerCount resolves Options.RecoverWorkers against the shard count.
func (e *Engine) workerCount() int {
	w := e.opts.RecoverWorkers
	if w <= 0 {
		w = max(2, runtime.GOMAXPROCS(0))
	}
	return min(w, len(e.shards))
}

// closeOpened releases the WAL handles of whichever shards a failed Open
// managed to recover.
func (e *Engine) closeOpened() {
	for _, sh := range e.shards {
		if sh != nil && sh.w != nil {
			sh.w.Close()
		}
	}
}

// forEachShard runs fn(i) on every shard through a bounded worker pool. All
// shards are attempted; the first error by shard index is returned.
func (e *Engine) forEachShard(fn func(i int) error) error {
	workers := e.workerCount()
	if workers <= 1 {
		var firstErr error
		for i := range e.shards {
			if err := fn(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range e.shards {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func snapName(seq uint64) string { return fmt.Sprintf("snapshot-%016d.snap", seq) }
func walName(seq uint64) string  { return fmt.Sprintf("wal-%016d.log", seq) }

// openShard recovers one shard directory:
//
//  1. delete leftover *.tmp files (a crash mid-snapshot-write);
//  2. pick the highest sequence whose snapshot is intact (CRC-validated end
//     to end, end marker present, restorable) — or sequence 0 with no
//     snapshot on a fresh shard;
//  3. restore it and replay the contiguous WAL chain wal-<seq>,
//     wal-<seq+1>, ... in order, truncating a torn final tail — a crash
//     during an off-lock snapshot persist leaves the retained wal-<N> plus
//     the live wal-<N+1>, and both replay;
//  4. delete files outside the chosen chain (stale generations a crash left
//     behind; their content is subsumed by the chosen snapshot + chain);
//  5. reopen the chain's last WAL for appending.
func openShard(dir string, state ShardState, opts Options, m *engineMetrics) (*shard, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snapSeqs, walSeqs []uint64
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(dir, name))
		case strings.HasPrefix(name, "snapshot-") && strings.HasSuffix(name, ".snap"):
			if seq, err := parseSeq(name, "snapshot-", ".snap"); err == nil {
				snapSeqs = append(snapSeqs, seq)
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if seq, err := parseSeq(name, "wal-", ".log"); err == nil {
				walSeqs = append(walSeqs, seq)
			}
		}
	}
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] > snapSeqs[j] })

	var base uint64
	restored := false
	for _, s := range snapSeqs {
		if err := restoreSnapshotFile(filepath.Join(dir, snapName(s)), state); err != nil {
			continue // corrupt, truncated, or unrestorable: fall back
		}
		base, restored = s, true
		break
	}
	if !restored {
		// Fresh shard (or no usable snapshot): start the chain at the oldest
		// WAL on disk — by construction wal-N is only created after
		// snapshot-N is durable, so with no snapshot the oldest WAL is
		// genesis history.
		base = 0
		for i, s := range walSeqs {
			if i == 0 || s < base {
				base = s
			}
		}
	}

	if m == nil {
		m = newEngineMetrics(nil)
	}
	sh := &shard{state: state, dir: dir, seq: base, base: base, m: m}

	// Replay the contiguous WAL chain starting at base. wal-<base> may be
	// absent (fresh shard); any later gap ends the chain. A torn non-final
	// log means the suffix the later logs extend was lost, so the chain
	// stops there too — replay always yields a prefix-consistent state.
	onDisk := make(map[uint64]bool, len(walSeqs))
	for _, s := range walSeqs {
		onDisk[s] = true
	}
	seq := base
	for k := base; ; k++ {
		if k > base && !onDisk[k] {
			break
		}
		replayed, torn, err := replayWAL(filepath.Join(dir, walName(k)), state.Apply)
		if err != nil {
			return nil, err
		}
		seq = k
		sh.since += replayed
		m.replayRecords.Add(uint64(replayed))
		if torn {
			m.replayTornTails.Inc()
			break
		}
	}
	sh.seq = seq

	// Sweep everything outside snapshot-<base> + wal-[base..seq].
	for _, s := range snapSeqs {
		if s != base {
			os.Remove(filepath.Join(dir, snapName(s)))
		}
	}
	for _, s := range walSeqs {
		if s < base || s > seq {
			os.Remove(filepath.Join(dir, walName(s)))
		}
	}

	w, err := createWAL(filepath.Join(dir, walName(seq)), opts.Sync, opts.SyncEvery, m)
	if err != nil {
		return nil, err
	}
	if err := syncDir(w.path); err != nil {
		w.Close()
		return nil, err
	}
	sh.w = w
	sh.c = newCommitter(w, opts.CommitMaxBatch, m)
	m.bootRecoverDur.ObserveDuration(time.Since(start))
	return sh, nil
}

func parseSeq(name, prefix, suffix string) (uint64, error) {
	var seq uint64
	body := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if _, err := fmt.Sscanf(body, "%d", &seq); err != nil {
		return 0, err
	}
	return seq, nil
}

// NumShards reports the shard count.
func (e *Engine) NumShards() int { return len(e.shards) }

// Durable reports whether the engine journals to disk.
func (e *Engine) Durable() bool { return e.opts.Dir != "" }

// Mutate runs one mutation on shard i: apply mutates the in-memory state
// under the shard's write lock and returns the record to journal (nil to
// skip journaling, e.g. when the mutation turned out to be a no-op). The
// record is enqueued on the shard's group-commit queue while the lock is
// still held — WAL order therefore equals apply order — and the call is
// acknowledged only after a commit batch containing the record is in the
// WAL under the engine's fsync policy (see commit.go). Concurrent writers
// to one shard coalesce into shared write+fsync batches instead of paying
// one flush each. A failed batch poisons the shard — the memory/log
// divergence cannot be repaired in place, so every later mutation fails
// fast.
func (e *Engine) Mutate(i int, apply func() ([]byte, error)) error {
	return e.mutate(i, apply, true)
}

// ApplyShipped journals one replicated record on shard i verbatim: the
// record bytes another node's engine produced are applied through the
// shard state's replay path and appended to this engine's WAL unchanged,
// which is what makes a caught-up follower's on-disk shards byte-identical
// to the primary's. Shipped records are not re-enqueued on the replication
// sink — replication is a single hop.
func (e *Engine) ApplyShipped(i int, rec []byte) error {
	return e.mutate(i, func() ([]byte, error) {
		if err := e.shards[i].state.Apply(rec); err != nil {
			return nil, err
		}
		return rec, nil
	}, false)
}

// AppendShippedBatch journals a run of replicated records on shard i without
// replaying them into the in-memory state: what a follower owes the primary
// at ack time is durability, and deferring the replay drops most of the CPU
// a replica spends per record. Parked records are drained through the
// state's replay path before the next snapshot (compaction or close) and on
// Materialize — promotion calls the latter before serving reads over
// replicated users. The resulting WAL bytes and snapshots are identical to
// the eager ApplyShipped path: WAL order is append order either way, and
// shipped records only touch users the sending primary owns — disjoint from
// this node's locally-written keys — so the deferred replay commutes with
// local mutations. In memory-only mode there is no WAL to defer behind, so
// the records are applied eagerly.
//
// The whole run pays one group-commit wait: every record is enqueued on the
// committer under a single shard-lock hold (so WAL order is the run's
// order), and the caller then commits the last record's LSN — the run goes
// out in as few fsync batches as CommitMaxBatch allows, instead of each
// record paying its own commit cycle. When the call returns nil, every record
// in the run is in the WAL under the engine's fsync policy.
func (e *Engine) AppendShippedBatch(i int, recs [][]byte) error {
	if len(recs) == 0 {
		return nil
	}
	s := e.shards[i]
	s.mu.Lock()
	if err := s.sticky(); err != nil {
		s.mu.Unlock()
		return err
	}
	if s.w == nil {
		for _, rec := range recs {
			if err := s.state.Apply(rec); err != nil {
				s.mu.Unlock()
				return err
			}
		}
		s.mu.Unlock()
		return nil
	}
	var lsn uint64
	for _, rec := range recs {
		lsn = s.c.enqueue(rec)
	}
	s.pending = append(s.pending, recs...)
	s.since += len(recs)
	compact := e.opts.CompactEvery > 0 && s.since >= e.opts.CompactEvery
	s.mu.Unlock()

	if err := s.c.commit(lsn); err != nil {
		return err
	}
	if compact {
		e.compactIfDue(i)
	}
	return nil
}

// Materialize replays shard i's parked replica records (see
// AppendShippedBatch) into the in-memory state.
func (e *Engine) Materialize(i int) error {
	s := e.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.materializeLocked()
}

// MaterializeAll replays every shard's parked replica records concurrently
// (bounded pool — promotion wants the whole store readable in the time the
// largest shard takes); the first error is returned but all shards are
// attempted.
func (e *Engine) MaterializeAll() error {
	return e.forEachShard(e.Materialize)
}

// materializeLocked drains the pending replica records in append order. On
// error the already-applied prefix is dropped and the failing record kept,
// so a retry does not double-apply.
func (s *shard) materializeLocked() error {
	for len(s.pending) > 0 {
		if err := s.state.Apply(s.pending[0]); err != nil {
			return fmt.Errorf("storage: materialize shipped record: %w", err)
		}
		s.pending = s.pending[1:]
	}
	s.pending = nil
	return nil
}

// ApplyRecord journals one pre-encoded record on shard i through the full
// primary mutation path: applied via the shard state's replay path, written
// to the WAL, and enqueued on the replication sink like any local write.
// Cluster handoff imports use it — a handed-off user's records must ship
// onward to the importing node's own follower, unlike ApplyShipped records.
func (e *Engine) ApplyRecord(i int, rec []byte) error {
	return e.mutate(i, func() ([]byte, error) {
		if err := e.shards[i].state.Apply(rec); err != nil {
			return nil, err
		}
		return rec, nil
	}, true)
}

func (e *Engine) mutate(i int, apply func() ([]byte, error), ship bool) error {
	s := e.shards[i]
	s.mu.Lock()
	if err := s.sticky(); err != nil {
		s.mu.Unlock()
		return err
	}
	rec, err := apply()
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if rec == nil {
		s.mu.Unlock()
		return nil
	}
	var rtok uint64
	if ship && e.opts.Repl != nil {
		// Under the lock: per-shard ship order is frozen to WAL order here.
		rtok = e.opts.Repl.Enqueue(i, rec)
	}
	if s.w == nil {
		s.mu.Unlock()
		if rtok != 0 {
			e.opts.Repl.Wait(rtok)
		}
		return nil
	}
	lsn := s.c.enqueue(rec)
	s.since++
	compact := e.opts.CompactEvery > 0 && s.since >= e.opts.CompactEvery
	s.mu.Unlock()

	if err := s.c.commit(lsn); err != nil {
		return err
	}
	if rtok != 0 {
		// Semi-synchronous replication: acknowledge the caller only after
		// the record is durable locally AND the follower has acked it (or
		// the sink degraded because the follower is unreachable).
		e.opts.Repl.Wait(rtok)
	}
	if compact {
		// Best-effort: the record is already durable in the WAL; a failed
		// compaction just means a longer replay on the next boot.
		e.compactIfDue(i)
	}
	return nil
}

// compactIfDue compacts shard i if it is still over the auto-compaction
// threshold. Several writers can cross the threshold while one batch is in
// flight; re-checking under the persist mutex makes exactly one of them do
// the work, and an in-flight persist makes this a no-op (the rotation that
// started it already reset the counter, but a racer may have sampled the old
// value).
func (e *Engine) compactIfDue(i int) {
	s := e.shards[i]
	if !s.persist.TryLock() {
		return
	}
	defer s.persist.Unlock()
	if err := e.compactShard(s, e.opts.CompactEvery); err != nil {
		// Resetting the counter spaces retries instead of attempting on
		// every append. (After a post-rotation persist failure the counter
		// is already reset; this covers failures before the rotation.)
		s.mu.Lock()
		s.since = 0
		s.mu.Unlock()
	}
}

// View runs read under shard i's read lock. The callback must not retain
// references to state internals beyond the call.
func (e *Engine) View(i int, read func()) {
	s := e.shards[i]
	s.mu.RLock()
	defer s.mu.RUnlock()
	read()
}

// compactShard rotates the shard to a new generation using the two-phase
// protocol of DESIGN.md §16. The caller holds s.persist — which is what keeps
// s.w and the generation numbers stable between the phases — and no other
// lock. A shard without a log (memory-only, closed), or with fewer than
// minSince records since its last rotation, is left alone.
//
// Phase 1, under the shard lock (the only part writers ever wait on): drain
// the commit queue, materialize parked replica records, capture a snapshot
// encoder, and switch appends to a fresh wal-(N+1). The commit queue is
// drained first because every queued record was applied to the state before
// enqueue (so the snapshot captures it) but belongs in the old log, which
// must hold it before that log can be retired; its writer then finds its LSN
// durable and returns without a second append. New enqueues are blocked by
// the write lock.
//
// Phase 2, off the shard lock, while writers proceed on wal-(N+1): close the
// old log (flushing any unsynced tail — the retained generation must be
// complete before it becomes part of the recovery chain's past), stream the
// snapshot to snapshot-(N+1) via temp + fsync + rename, and only then delete
// generations [base, N]. A crash at any point leaves either a complete
// snapshot-(N+1) (recovery restores it and replays wal-(N+1)) or a missing /
// truncated one (recovery falls back to snapshot-<base> and replays the
// chain wal-<base> .. wal-(N+1)); openShard's sweep finishes the cleanup.
//
// For states implementing SnapshotViewer the encoder works over a captured
// immutable view and the lock-held pause is O(1) in shard size; a state
// without a view is encoded under the lock (the pause metric then includes
// the encode).
func (e *Engine) compactShard(s *shard, minSince int) error {
	s.mu.Lock()
	if s.w == nil || s.since < minSince {
		s.mu.Unlock()
		return nil
	}
	start := time.Now()
	old, base, next := s.w, s.base, s.seq+1
	encode, release, err := s.rotateLocked(next)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.m.compactPauseDur.ObserveDuration(time.Since(start))
	s.mu.Unlock()

	// Phase 2: persist off the shard lock.
	encStart := time.Now()
	err = old.Close()
	var payloadBytes int64
	if err == nil {
		payloadBytes, err = writeSnapshotFile(filepath.Join(s.dir, snapName(next)), encode)
	}
	release()
	if err != nil {
		// Generations [base, next-1] stay on disk and base is unchanged:
		// recovery replays the whole chain, and the next compaction retries
		// the persist from the new tip.
		return err
	}
	for g := base; g < next; g++ {
		os.Remove(filepath.Join(s.dir, walName(g)))
		os.Remove(filepath.Join(s.dir, snapName(g)))
	}
	s.mu.Lock()
	s.base = next
	s.mu.Unlock()
	s.m.compactions.Inc()
	s.m.compactionDur.ObserveDuration(time.Since(start))
	s.m.compactEncodeDur.ObserveDuration(time.Since(encStart))
	s.m.snapshotBytes.Observe(payloadBytes)
	return nil
}

// rotateLocked is compaction phase 1: it leaves the state captured behind
// encode (release must be called once the view is no longer needed) and
// appends switched to wal-<next>. Caller holds s.mu; s.w is non-nil. On error
// nothing has changed.
func (s *shard) rotateLocked(next uint64) (encode func(io.Writer) error, release func(), err error) {
	if err := s.c.drain(); err != nil {
		// Poisoned: the in-memory state includes mutations the log rejected;
		// snapshotting would persist the divergence as truth.
		return nil, nil, err
	}
	if err := s.materializeLocked(); err != nil {
		// Snapshotting now would drop the parked records when the old WAL
		// (the only durable copy) is retired.
		return nil, nil, err
	}
	release = func() {}
	if v, ok := s.state.(SnapshotViewer); ok {
		if encode, release, err = v.SnapshotView(); err != nil {
			return nil, nil, fmt.Errorf("storage: capture snapshot view: %w", err)
		}
	} else {
		payload, err := s.state.Snapshot()
		if err != nil {
			return nil, nil, fmt.Errorf("storage: encode snapshot: %w", err)
		}
		encode = func(w io.Writer) error {
			_, err := w.Write(payload)
			return err
		}
	}
	w, err := createWAL(filepath.Join(s.dir, walName(next)), s.w.policy, s.w.every, s.m)
	if err == nil {
		if err = syncDir(w.path); err != nil {
			w.Close()
			os.Remove(w.path)
		}
	}
	if err != nil {
		release()
		return nil, nil, err
	}
	s.w, s.seq, s.since = w, next, 0
	s.c.setWAL(w)
	return encode, release, nil
}

// Compact snapshots shard i and truncates its log chain. It waits for any
// in-flight off-lock persist first, so when Compact returns nil the shard is
// at a single fresh generation.
func (e *Engine) Compact(i int) error {
	s := e.shards[i]
	s.persist.Lock()
	defer s.persist.Unlock()
	return e.compactShard(s, 0)
}

// Sync drains every shard's commit queue and forces its WAL to stable
// storage (a checkpoint for SyncInterval / SyncNever policies).
func (e *Engine) Sync() error {
	var firstErr error
	for _, s := range e.shards {
		s.mu.Lock()
		if s.w != nil {
			if err := s.c.sync(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		s.mu.Unlock()
	}
	return firstErr
}

// Close compacts (so the next boot replays nothing), syncs, and closes every
// shard, fanning out across the same bounded pool as Open so shutdown costs
// the largest shard. The engine must not be used afterwards.
func (e *Engine) Close() error {
	return e.forEachShard(e.closeShard)
}

func (e *Engine) closeShard(i int) error {
	s := e.shards[i]
	s.persist.Lock()
	defer s.persist.Unlock()
	s.mu.RLock()
	compact := s.sticky() == nil && (s.since > 0 || s.base != s.seq)
	s.mu.RUnlock()
	var firstErr error
	if compact {
		firstErr = e.compactShard(s, 0)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return firstErr
	}
	// Flush whatever the queue holds before the log closes — a writer may
	// have slipped in while the final compaction persisted.
	s.c.drain()
	s.c.setWAL(nil) // late mutations are acknowledged but unjournaled, as before
	if err := s.w.Close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("storage: close shard %d: %w", i, err)
	}
	s.w = nil
	return firstErr
}

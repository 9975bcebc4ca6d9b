package storage

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"
)

// Group commit (DESIGN.md §9). With fsync=always, the naive path pays one
// fsync per mutation per shard, so N concurrent writers to one shard
// serialize behind N flushes. The committer acknowledges writes by sequence
// number instead: Mutate applies its state change under the shard lock,
// enqueues the WAL record — which hands it the next log sequence number —
// and releases the lock. Off the lock it takes the flush mutex. If durable
// has already reached its LSN, another writer's batch carried the record and
// it returns at once; otherwise it takes up to CommitMaxBatch queued records,
// writes them as one frame sequence, fsyncs once, and advances durable past
// all of them. Writers that arrive while a flush is in progress queue up
// behind the mutex — the fsync latency itself is the batching window, so
// under load N commits coalesce into ~1 flush with no timer in the hot path.
//
// The durability contract is unchanged: no Mutate returns success before its
// record is in the WAL under the engine's fsync policy, and WAL order always
// equals apply order (records are enqueued under the shard lock). What did
// change is visibility: the shard lock is no longer held across the fsync, so
// readers may observe a mutation before its writer has been acknowledged —
// the standard group-commit trade, and one the PCI's idempotent profile
// upserts tolerate by design.

// DefaultCommitMaxBatch bounds one group commit when Options doesn't.
const DefaultCommitMaxBatch = 128

// committer is one shard's commit queue and log. Lock order is shard lock →
// flush → qmu. Invariants: queue order is apply order; the records in the
// queue are exactly LSNs (last-len(queue), last]; durable only advances past
// records AppendBatch accepted; the WAL is only ever touched under flush.
type committer struct {
	qmu   sync.Mutex
	queue [][]byte
	last  uint64 // LSN of the most recently enqueued record
	err   error  // sticky poison; written under flush+qmu, read under either

	flush   sync.Mutex
	w       *wal // swapped on rotation, nil after close
	durable uint64
	recs    [][]byte    // scratch for AppendBatch
	tail    *time.Timer // pending SyncInterval tail sync, nil when none

	maxBatch int
	m        *engineMetrics
}

func newCommitter(w *wal, maxBatch int, m *engineMetrics) *committer {
	if maxBatch == 0 {
		maxBatch = DefaultCommitMaxBatch
	}
	return &committer{w: w, maxBatch: max(maxBatch, 1), m: m}
}

// enqueue appends one record to the commit queue and returns its LSN for
// commit. The caller MUST hold the owning shard's write lock — that is what
// makes queue order equal apply order.
func (c *committer) enqueue(rec []byte) uint64 {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	c.queue = append(c.queue, rec)
	c.last++
	return c.last
}

// commit returns once the record with the given LSN is in the WAL under the
// fsync policy. Called off the shard lock.
func (c *committer) commit(lsn uint64) error {
	// Yield once before queueing on the flush mutex. A writer whose flush
	// just finished is still running and would otherwise win the mutex again
	// for its next record, ahead of the writers that flush made durable: they
	// stay parked, unacknowledged, for one more fsync, contribute no records,
	// and grouping degrades to batches of one or two. Yielding lets them take
	// the mutex, compare, return and enqueue their next record first. Costs
	// one scheduler round-trip (~100ns when nothing else is runnable).
	if c.maxBatch > 1 {
		runtime.Gosched()
	}
	return c.flushTo(lsn)
}

// flushTo takes the flush mutex and, for as long as durable is short of lsn,
// flushes queued records itself — its own and everyone else's. A failed flush
// poisons the shard: the records it took are lost, so every waiter at or
// behind them gets the sticky error and nothing more is journaled. A flusher
// needs only the committer's two mutexes, never the shard lock.
func (c *committer) flushTo(lsn uint64) error {
	c.flush.Lock()
	defer c.flush.Unlock()
	for c.durable < lsn {
		if c.err != nil {
			return c.err
		}
		c.qmu.Lock()
		n := min(len(c.queue), c.maxBatch)
		c.recs = append(c.recs[:0], c.queue[:n]...)
		rest := copy(c.queue, c.queue[n:])
		clear(c.queue[rest:])
		c.queue = c.queue[:rest]
		c.qmu.Unlock()
		if n == 0 {
			return nil // drained
		}
		err := c.w.AppendBatch(c.recs)
		clear(c.recs)
		c.m.commitBatches.Inc()
		c.m.commitRecords.Add(uint64(n))
		c.m.commitBatchSize.Observe(int64(n))
		if err != nil {
			return c.poison(err)
		}
		c.durable += uint64(n)
		if c.w.dirty && c.tail == nil {
			c.tail = time.AfterFunc(c.w.every, c.syncTail)
		}
	}
	return nil
}

// poison records the shard's first journal failure. Caller holds flush.
func (c *committer) poison(err error) error {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	c.err = fmt.Errorf("storage: shard poisoned by journal failure: %w", err)
	c.m.shardsPoisoned.Inc()
	return c.err
}

// syncTail is the SyncInterval bound (DESIGN.md §8): an append that found
// the last fsync less than an interval old leaves an unsynced tail, and with
// no later append nothing would ever flush it. The flusher that leaves one
// arms this for one interval later; it is a no-op if an append synced since.
func (c *committer) syncTail() {
	c.flush.Lock()
	defer c.flush.Unlock()
	c.tail = nil
	if c.w != nil && c.w.dirty && c.err == nil {
		if err := c.w.Sync(); err != nil {
			c.poison(err)
		}
	}
}

// drain flushes everything queued — no record ever gets the last LSN — and
// returns the sticky error. Callers hold the shard write lock, which blocks
// new enqueues, so the queue stays empty until they release it.
func (c *committer) drain() error { return c.flushTo(math.MaxUint64) }

// sync drains, then forces the log to stable storage whatever the policy.
func (c *committer) sync() error {
	if err := c.drain(); err != nil {
		return err
	}
	c.flush.Lock()
	defer c.flush.Unlock()
	return c.w.Sync()
}

// setWAL swaps the log the next batch writes to and cancels a pending tail
// sync — the caller closes the old log, which flushes its tail. Only called
// on a drained committer under the shard write lock (rotation and close).
func (c *committer) setWAL(w *wal) {
	c.flush.Lock()
	defer c.flush.Unlock()
	if c.tail != nil {
		c.tail.Stop()
		c.tail = nil
	}
	c.w = w
}

// stickyErr reports the poison state.
func (c *committer) stickyErr() error {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	return c.err
}

package storage

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// driveConcurrent runs writers goroutines, each journaling perWriter keyed
// records against shard 0, and fails the test on any Mutate error.
func driveConcurrent(t *testing.T, e *Engine, st *kvState, writers, perWriter int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				if err := e.Mutate(0, func() ([]byte, error) {
					st.m[key] = "v"
					return kvRecord(key, "v"), nil
				}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent mutate: %v", err)
	}
}

// commitStats reads the group-commit counters; records/batches is the
// measured coalescing factor.
func commitStats(reg *obs.Registry) (batches, records uint64) {
	s := reg.Snapshot()
	return s.Counter("storage_commit_batches_total"), s.Counter("storage_commit_records_total")
}

// parkWriters takes shard 0's flush mutex, starts n writers and returns once
// every one of them has applied and enqueued its record — so all n are parked
// on (or about to reach) the flush mutex with nothing journaled. The caller
// releases e.shards[0].c.flush and reads one Mutate result per writer.
func parkWriters(e *Engine, st *kvState, n int) <-chan error {
	s := e.shards[0]
	s.c.flush.Lock()
	applied := make(chan struct{}, n)
	errs := make(chan error, n)
	for w := 0; w < n; w++ {
		key := fmt.Sprintf("w%d", w)
		go func() {
			errs <- e.Mutate(0, func() ([]byte, error) {
				st.m[key] = "v"
				applied <- struct{}{}
				return kvRecord(key, "v"), nil
			})
		}()
	}
	for w := 0; w < n; w++ {
		<-applied
	}
	// apply runs under the shard lock and the enqueue follows under the same
	// hold, so once the lock can be taken the last writer has enqueued.
	e.View(0, func() {})
	return errs
}

// awaitWriters collects n Mutate results, failing the test if any writer is
// still parked after the timeout.
func awaitWriters(t *testing.T, errs <-chan error, n int) []error {
	t.Helper()
	out := make([]error, 0, n)
	timeout := time.After(10 * time.Second)
	for len(out) < n {
		select {
		case err := <-errs:
			out = append(out, err)
		case <-timeout:
			t.Fatalf("%d of %d writers still parked", n-len(out), n)
		}
	}
	return out
}

// TestGroupCommitCoalesces: writers that enqueue while a flush is in progress
// share the next batch — the record/batch ratio is the whole point of the
// feature. Holding the flush mutex stands in for the in-progress fsync: all 8
// writers enqueue behind it, and whichever gets the mutex first carries all 8.
func TestGroupCommitCoalesces(t *testing.T) {
	reg := obs.NewRegistry()
	st := newKV()
	e, err := Open(Options{
		Dir: t.TempDir(), Sync: SyncNever, CompactEvery: -1, Metrics: reg,
	}, []ShardState{st})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const writers = 8
	errs := parkWriters(e, st, writers)
	if batches, records := commitStats(reg); batches != 0 || records != 0 {
		t.Fatalf("%d batches / %d records journaled behind a held flush mutex", batches, records)
	}
	e.shards[0].c.flush.Unlock()
	for _, err := range awaitWriters(t, errs, writers) {
		if err != nil {
			t.Fatalf("mutate: %v", err)
		}
	}
	if batches, records := commitStats(reg); batches != 1 || records != writers {
		t.Errorf("%d batches carried %d records, want 1 batch of %d", batches, records, writers)
	}
}

// TestGroupCommitPoisonWakesEveryWaiter: a failed flush must fail every
// writer whose record it took — none may hang behind a durable LSN that will
// never advance — and the next mutation must fail before apply runs.
func TestGroupCommitPoisonWakesEveryWaiter(t *testing.T) {
	st := newKV()
	e, err := Open(Options{Dir: t.TempDir(), Sync: SyncNever, CompactEvery: -1}, []ShardState{st})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const writers = 8
	errs := parkWriters(e, st, writers)
	if err := e.shards[0].w.f.Close(); err != nil { // the flush will fail
		t.Fatal(err)
	}
	e.shards[0].c.flush.Unlock()
	results := awaitWriters(t, errs, writers)
	poison := e.shards[0].sticky()
	for _, err := range results {
		if err == nil || err != poison {
			t.Fatalf("writer returned %v, want the poison error %v", err, poison)
		}
	}
	applied := false
	if err := e.Mutate(0, func() ([]byte, error) {
		applied = true
		return kvRecord("late", "v"), nil
	}); err == nil {
		t.Fatal("poisoned shard accepted a mutation")
	}
	if applied {
		t.Error("apply ran on a poisoned shard")
	}
}

// TestGroupCommitRotationCarriesQueuedRecords: a record still queued when a
// compaction's drain runs goes into the old log by the drain; its writer then
// finds its LSN durable and must return nil without appending it again.
func TestGroupCommitRotationCarriesQueuedRecords(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	st := newKV()
	opts := Options{Dir: dir, Sync: SyncAlways, CompactEvery: -1, Metrics: reg}
	e, err := Open(opts, []ShardState{st})
	if err != nil {
		t.Fatal(err)
	}
	s := e.shards[0]

	// Three writers as far as Mutate's shard-lock half: applied, enqueued.
	var lsns []uint64
	s.mu.Lock()
	for _, key := range []string{"a", "b", "c"} {
		st.m[key] = "v"
		lsns = append(lsns, s.c.enqueue(kvRecord(key, "v")))
		s.since++
	}
	s.mu.Unlock()
	if err := e.Compact(0); err != nil {
		t.Fatal(err)
	}
	// ... and their commit half, after the rotation.
	for _, lsn := range lsns {
		if err := s.c.commit(lsn); err != nil {
			t.Fatalf("commit of a drained record: %v", err)
		}
	}
	for _, key := range []string{"d", "e"} {
		if err := e.Mutate(0, func() ([]byte, error) {
			st.m[key] = "v"
			return kvRecord(key, "v"), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if batches, records := commitStats(reg); batches != 3 || records != 5 {
		t.Errorf("%d batches carried %d records, want 3 (the drain, d, e) carrying 5", batches, records)
	}
	if got := reg.Snapshot().Counter("storage_wal_append_records_total"); got != 5 {
		t.Errorf("%d records appended, want each of 5 exactly once", got)
	}

	// Crash and recover: a, b, c come from the snapshot, and the new log
	// replays d and e only.
	reg2 := obs.NewRegistry()
	st2 := newKV()
	opts.Metrics = reg2
	e2, err := Open(opts, []ShardState{st2})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := reg2.Snapshot().Counter("storage_replay_records_total"); got != 2 {
		t.Errorf("replayed %d records, want 2", got)
	}
	if len(st2.m) != 5 {
		t.Errorf("recovered %d keys, want 5", len(st2.m))
	}
}

// TestSyncIntervalBoundsIdleTail: under fsync=interval the last write before
// an idle period must reach stable storage within about one interval, not at
// the next append (which may never come).
func TestSyncIntervalBoundsIdleTail(t *testing.T) {
	reg := obs.NewRegistry()
	st := newKV()
	e, err := Open(Options{
		Dir: t.TempDir(), Sync: SyncInterval, SyncEvery: 5 * time.Millisecond,
		CompactEvery: -1, Metrics: reg,
	}, []ShardState{st})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fsyncs := func() uint64 { return reg.Snapshot().Counter("storage_wal_fsync_total") }

	// The first append to a fresh log always syncs (nothing was synced
	// before it); keep writing until one lands inside the interval and
	// leaves a tail.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		before := fsyncs()
		key := fmt.Sprintf("k%d", i)
		if err := e.Mutate(0, func() ([]byte, error) {
			st.m[key] = "v"
			return kvRecord(key, "v"), nil
		}); err != nil {
			t.Fatal(err)
		}
		if fsyncs() == before {
			break
		}
		if time.Now().After(deadline) {
			t.Skip("host too slow to land two appends within one 5ms interval")
		}
	}
	tail := fsyncs()
	for fsyncs() == tail {
		if time.Now().After(deadline) {
			t.Fatalf("unsynced tail not flushed %v after the last append", 10*time.Second)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitMaxBatchOne: a batch cap of one record is the
// pre-group-commit baseline — every record pays its own commit.
func TestGroupCommitMaxBatchOne(t *testing.T) {
	reg := obs.NewRegistry()
	st := newKV()
	e, err := Open(Options{
		Dir: t.TempDir(), Sync: SyncNever, CompactEvery: -1, CommitMaxBatch: -1, Metrics: reg,
	}, []ShardState{st})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	driveConcurrent(t, e, st, 4, 16)
	batches, records := commitStats(reg)
	if batches != records {
		t.Errorf("batch cap 1: %d batches for %d records, want equal", batches, records)
	}
}

// TestGroupCommitDurableAcks: with fsync=always, every acknowledged record
// must survive an abandon-without-Close crash — group commit must not weaken
// the durability contract while coalescing flushes.
func TestGroupCommitDurableAcks(t *testing.T) {
	dir := t.TempDir()
	st := newKV()
	e, err := Open(Options{Dir: dir, Sync: SyncAlways, CompactEvery: -1}, []ShardState{st})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 25
	driveConcurrent(t, e, st, writers, perWriter)
	// The "crash": never Close or Sync — acks alone must be enough.

	st2 := newKV()
	e2, err := Open(Options{Dir: dir, Sync: SyncAlways, CompactEvery: -1}, []ShardState{st2})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if len(st2.m) != writers*perWriter {
		t.Fatalf("recovered %d records, want %d", len(st2.m), writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if st2.m[fmt.Sprintf("w%d-k%d", w, i)] != "v" {
				t.Fatalf("acknowledged record w%d-k%d lost", w, i)
			}
		}
	}
}

// TestGroupCommitSurvivesCompaction: log rotation must drain the commit
// queue and re-point it at the fresh generation without losing or
// double-applying records, even with writers in flight.
func TestGroupCommitSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	st := newKV()
	e, err := Open(Options{Dir: dir, Sync: SyncNever, CompactEvery: -1}, []ShardState{st})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var compacts sync.WaitGroup
	compacts.Add(1)
	go func() {
		defer compacts.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := e.Compact(0); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
			}
		}
	}()
	driveConcurrent(t, e, st, 4, 50)
	close(stop)
	compacts.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := newKV()
	e2, err := Open(Options{Dir: dir, Sync: SyncNever, CompactEvery: -1}, []ShardState{st2})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if len(st2.m) != 4*50 {
		t.Fatalf("recovered %d records, want %d", len(st2.m), 4*50)
	}
}

// TestGroupCommitPoison: a failed batch must fail every writer in it, and
// every later mutation must fail fast without touching the log.
func TestGroupCommitPoison(t *testing.T) {
	st := newKV()
	e, err := Open(Options{Dir: t.TempDir(), Sync: SyncNever, CompactEvery: -1}, []ShardState{st})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Sabotage the log out from under the shard: the next append must fail.
	if err := e.shards[0].w.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Mutate(0, func() ([]byte, error) {
		st.m["a"] = "1"
		return kvRecord("a", "1"), nil
	}); err == nil {
		t.Fatal("append to closed log succeeded")
	}
	// Sticky: later mutations fail before apply runs.
	applied := false
	if err := e.Mutate(0, func() ([]byte, error) {
		applied = true
		return kvRecord("b", "2"), nil
	}); err == nil {
		t.Fatal("poisoned shard accepted a mutation")
	}
	if applied {
		t.Error("apply ran on a poisoned shard")
	}
	if err := e.Compact(0); err == nil {
		t.Error("poisoned shard accepted a compaction")
	}
}

package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// TestWALMetricsDeltas pins the WAL counters to independently-known ground
// truth: after N single-writer mutations under fsync=always,
//
//   - storage_wal_append_records_total == N,
//   - storage_wal_append_bytes_total   == the WAL file's size on disk,
//   - storage_wal_fsync_total          == commit batches (one fsync each).
func TestWALMetricsDeltas(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	st := newKV()
	e, err := Open(Options{Dir: dir, Sync: SyncAlways, CompactEvery: -1, Metrics: reg}, []ShardState{st})
	if err != nil {
		t.Fatal(err)
	}

	const n = 40
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := e.Mutate(0, func() ([]byte, error) {
			st.m[key] = "v"
			return kvRecord(key, "v"), nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	s := reg.Snapshot()
	if got := s.Counter("storage_wal_append_records_total"); got != n {
		t.Errorf("append records = %d, want %d", got, n)
	}
	fi, err := os.Stat(filepath.Join(dir, "shard-000", walName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Counter("storage_wal_append_bytes_total"); got != uint64(fi.Size()) {
		t.Errorf("append bytes = %d, on-disk WAL is %d bytes", got, fi.Size())
	}
	batches, records := commitStats(reg)
	if records != n {
		t.Fatalf("committer records = %d, want %d", records, n)
	}
	if got := s.Counter("storage_wal_fsync_total"); got != batches {
		t.Errorf("fsyncs = %d, want %d (one per commit batch under fsync=always)", got, batches)
	}
	e.Close()
}

// TestGroupCommitBatchSizeHistogram drives 8 concurrent writers under
// fsync=always and checks the batch-size histogram against the commit
// counters: count == batches, sum == records, so the histogram mean IS the
// measured coalescing ratio — the two instruments must agree exactly.
func TestGroupCommitBatchSizeHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	st := newKV()
	e, err := Open(Options{
		Dir: t.TempDir(), Sync: SyncAlways, CompactEvery: -1, Metrics: reg,
	}, []ShardState{st})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const writers, perWriter = 8, 16
	driveConcurrent(t, e, st, writers, perWriter)

	batches, records := commitStats(reg)
	if records != writers*perWriter {
		t.Fatalf("committed %d records, want %d", records, writers*perWriter)
	}
	h, ok := reg.Snapshot().Histograms["storage_commit_batch_records"]
	if !ok {
		t.Fatal("storage_commit_batch_records histogram not registered")
	}
	if h.Count != batches {
		t.Errorf("histogram count = %d, committer flushed %d batches", h.Count, batches)
	}
	if uint64(h.Sum) != records {
		t.Errorf("histogram sum = %d, committer carried %d records", h.Sum, records)
	}
	wantMean := float64(records) / float64(batches)
	if got := h.Mean(); got != wantMean {
		t.Errorf("histogram mean = %g, want coalescing ratio %g", got, wantMean)
	}
}

// TestReplayMetricsDeltas crashes an engine (abandon without Close), tears
// the WAL tail by appending garbage, and reopens with a fresh registry: the
// replay counters must report exactly the records written and exactly one
// truncated tail.
func TestReplayMetricsDeltas(t *testing.T) {
	dir := t.TempDir()
	st := newKV()
	e, err := Open(Options{Dir: dir, Sync: SyncAlways, CompactEvery: -1, Metrics: obs.NewRegistry()}, []ShardState{st})
	if err != nil {
		t.Fatal(err)
	}
	const n = 17
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := e.Mutate(0, func() ([]byte, error) {
			st.m[key] = "v"
			return kvRecord(key, "v"), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Close. Then tear the tail with a partial frame.
	walPath := filepath.Join(dir, "shard-000", walName(0))
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x37, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg := obs.NewRegistry()
	st2 := newKV()
	e2, err := Open(Options{Dir: dir, Sync: SyncAlways, CompactEvery: -1, Metrics: reg}, []ShardState{st2})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if len(st2.m) != n {
		t.Fatalf("recovered %d records, want %d", len(st2.m), n)
	}
	s := reg.Snapshot()
	if got := s.Counter("storage_replay_records_total"); got != n {
		t.Errorf("replay records = %d, want %d", got, n)
	}
	if got := s.Counter("storage_replay_torn_tails_total"); got != 1 {
		t.Errorf("torn tails = %d, want 1", got)
	}
}

// TestCompactionMetricsDeltas: explicit Compact calls must be mirrored
// one-for-one by the compaction counter and its duration histogram.
func TestCompactionMetricsDeltas(t *testing.T) {
	reg := obs.NewRegistry()
	st := newKV()
	e, err := Open(Options{Dir: t.TempDir(), Sync: SyncNever, CompactEvery: -1, Metrics: reg}, []ShardState{st})
	if err != nil {
		t.Fatal(err)
	}
	const compactions = 3
	for i := 0; i < compactions; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := e.Mutate(0, func() ([]byte, error) {
			st.m[key] = "v"
			return kvRecord(key, "v"), nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.Compact(0); err != nil {
			t.Fatal(err)
		}
	}
	before := reg.Snapshot()
	e.Close() // already compact (since == 0): Close must not add a cycle
	s := reg.Snapshot()
	if got := s.Counter("storage_compactions_total"); got != compactions {
		t.Errorf("compactions = %d, want %d", got, compactions)
	}
	if got := s.CounterDelta(before, "storage_compactions_total"); got != 0 {
		t.Errorf("Close added %d compactions on an already-compact shard", got)
	}
	h := s.Histograms["storage_compaction_duration_us"]
	if h.Count != compactions {
		t.Errorf("compaction duration observations = %d, want %d", h.Count, compactions)
	}
}

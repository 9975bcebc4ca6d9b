package storage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
)

// viewerKV is kvState plus the off-lock snapshot extensions: the reference
// state for the two-phase compaction paths. SnapshotView captures the
// encoding eagerly (cheap at test scale), so the returned encoder is a pure
// function of the state at capture time — exactly the contract the engine
// relies on.
type viewerKV struct {
	kvState
}

func newViewerKV() *viewerKV { return &viewerKV{kvState{m: map[string]string{}}} }

func (s *viewerKV) SnapshotView() (func(io.Writer) error, func(), error) {
	payload, err := json.Marshal(s.m)
	if err != nil {
		return nil, nil, err
	}
	encode := func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}
	return encode, func() {}, nil
}

func (s *viewerKV) RestoreStream(r io.Reader) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return s.Restore(b)
}

// gatedKV additionally blocks its encoder until the test releases it, which
// freezes a compaction in its off-lock persist phase.
type gatedKV struct {
	viewerKV
	entered  chan struct{} // closed when the encoder first runs
	release  chan struct{} // encoder blocks until this closes
	enterOne sync.Once     // Close may compact (and encode) again later
}

func newGatedKV() *gatedKV {
	return &gatedKV{
		viewerKV: viewerKV{kvState{m: map[string]string{}}},
		entered:  make(chan struct{}),
		release:  make(chan struct{}),
	}
}

func (s *gatedKV) SnapshotView() (func(io.Writer) error, func(), error) {
	payload, err := json.Marshal(s.m)
	if err != nil {
		return nil, nil, err
	}
	encode := func(w io.Writer) error {
		s.enterOne.Do(func() { close(s.entered) })
		<-s.release
		_, err := w.Write(payload)
		return err
	}
	return encode, func() {}, nil
}

func TestChunkedSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, snapName(1))
	// Multi-chunk payload: bigger than snapChunkSize, not chunk-aligned.
	big := bytes.Repeat([]byte("pmware"), (snapChunkSize/6)+1234)
	payload, err := json.Marshal(map[string]string{"big": string(big), "small": "x"})
	if err != nil {
		t.Fatal(err)
	}
	n, err := writeSnapshotFile(path, func(w io.Writer) error {
		// Dribble the payload through odd-sized writes to exercise chunk
		// boundary handling.
		for off := 0; off < len(payload); off += 7777 {
			end := min(off+7777, len(payload))
			if _, err := w.Write(payload[off:end]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(payload)) {
		t.Fatalf("payload bytes = %d, want %d", n, len(payload))
	}

	// Restore through the streaming path and the legacy []byte path.
	for _, state := range []ShardState{newViewerKV(), newKV()} {
		if err := restoreSnapshotFile(path, state); err != nil {
			t.Fatalf("%T restore: %v", state, err)
		}
	}
	st := newViewerKV()
	if err := restoreSnapshotFile(path, st); err != nil {
		t.Fatal(err)
	}
	if st.m["small"] != "x" || st.m["big"] != string(big) {
		t.Fatal("restored state does not match encoded payload")
	}
}

func TestChunkedSnapshotRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, snapName(1))
	payload, _ := json.Marshal(map[string]string{"k": "v"})
	if _, err := writeSnapshotFile(path, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Every strict byte-level prefix must be rejected (missing end marker or
	// torn frame), never half-restored.
	for cut := 0; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := restoreSnapshotFile(path, newViewerKV()); err == nil {
			t.Fatalf("truncation at %d/%d bytes restored without error", cut, len(full))
		}
	}

	// A flipped payload byte must be rejected too.
	corrupt := append([]byte(nil), full...)
	corrupt[len(snapMagic)+frameHeaderSize] ^= 0x40
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := restoreSnapshotFile(path, newViewerKV()); err == nil {
		t.Fatal("corrupt chunk restored without error")
	}

	// Trailing garbage after the end marker is not what the writer produced.
	if err := os.WriteFile(path, append(append([]byte(nil), full...), 0xFF), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := restoreSnapshotFile(path, newViewerKV()); err == nil {
		t.Fatal("trailing garbage restored without error")
	}
}

// copyDir snapshots a shard directory's files (no subdirs) into a fresh dir.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func openShardDirKV(t *testing.T, dir string) map[string]string {
	t.Helper()
	st := newViewerKV()
	sh, err := openShard(dir, st, Options{Sync: SyncNever, SyncEvery: DefaultSyncEvery}, newEngineMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	sh.w.Close()
	return st.m
}

// TestOffLockCompactionCrashProperty is the tentpole's recovery property:
// freeze a compaction in its off-lock persist phase, keep writing (proving
// writers are not stalled), and then check that a crash at ANY byte offset
// of the in-flight snapshot file recovers the full acknowledged state —
// generation N's snapshot/WAL plus every wal-(N+1) record appended while the
// snapshot was being written.
func TestOffLockCompactionCrashProperty(t *testing.T) {
	dir := t.TempDir()
	st := newGatedKV()
	e, err := Open(Options{Dir: dir, Sync: SyncAlways, CompactEvery: -1}, []ShardState{st})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	put := func(k, v string) {
		t.Helper()
		if err := e.Mutate(0, func() ([]byte, error) {
			st.m[k] = v
			return kvRecord(k, v), nil
		}); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	for i := 0; i < 30; i++ {
		put(fmt.Sprintf("pre%02d", i), "a")
	}

	compactErr := make(chan error, 1)
	go func() { compactErr <- e.Compact(0) }()
	<-st.entered // persist phase running, encoder frozen, lock released

	// Writers proceed on wal-1 while the snapshot is in flight. If the lock
	// were held through the encode these Mutates would deadlock against the
	// gated encoder and the test would time out — this is the stall-free
	// assertion in its sharpest form.
	for i := 0; i < 10; i++ {
		put(fmt.Sprintf("mid%02d", i), "b")
	}

	shardDir := filepath.Join(dir, "shard-000")
	mid := copyDir(t, shardDir) // crash before snapshot-1 landed
	close(st.release)
	if err := <-compactErr; err != nil {
		t.Fatal(err)
	}
	post := copyDir(t, shardDir) // snapshot-1 durable, generation 0 retired

	// Crash while snapshot-1.tmp was mid-write: wal-0 + wal-1 chain replay.
	if got := openShardDirKV(t, mid); !reflect.DeepEqual(got, want) {
		t.Fatalf("mid-compaction crash recovery: got %d keys, want %d", len(got), len(want))
	}

	// Crash with snapshot-1 cut at every byte offset: an intact prefix of the
	// chunked file must never pass validation, so recovery falls back to the
	// wal-0 + wal-1 chain; the complete file restores and replays wal-1.
	snapData, err := os.ReadFile(filepath.Join(post, snapName(1)))
	if err != nil {
		t.Fatal(err)
	}
	walData, err := os.ReadFile(filepath.Join(mid, walName(0)))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(snapData); cut++ {
		caseDir := copyDir(t, post)
		// Re-add the retained generation-0 log the completed compaction
		// deleted: mid-persist both generations are on disk.
		if err := os.WriteFile(filepath.Join(caseDir, walName(0)), walData, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(caseDir, snapName(1)), snapData[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if got := openShardDirKV(t, caseDir); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d/%d: recovered %d keys, want %d", cut, len(snapData), len(got), len(want))
		}
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// And the clean post-compaction layout recovers too.
	re := newViewerKV()
	e2, err := Open(Options{Dir: dir, Sync: SyncAlways}, []ShardState{re})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if !reflect.DeepEqual(re.m, want) {
		t.Fatal("clean reopen lost state")
	}
}

// TestWritersRacingCompaction runs concurrent writers against continuous
// explicit compactions (meaningful under -race: the off-lock encoder reads
// its captured view while writers mutate the live map) and pins recovery to
// the byte-identical serialized expectation.
func TestWritersRacingCompaction(t *testing.T) {
	dir := t.TempDir()
	st := newViewerKV()
	e, err := Open(Options{Dir: dir, Sync: SyncNever, CompactEvery: -1}, []ShardState{st})
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for wkr := 0; wkr < writers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := fmt.Sprintf("w%d-%04d", wkr, i)
				if err := e.Mutate(0, func() ([]byte, error) {
					st.m[k] = "v"
					return kvRecord(k, "v"), nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(wkr)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		if err := e.Compact(0); err != nil {
			t.Error(err)
			break
		}
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Serialized control: every (writer, i) key exactly once.
	want := map[string]string{}
	for wkr := 0; wkr < writers; wkr++ {
		for i := 0; i < perWriter; i++ {
			want[fmt.Sprintf("w%d-%04d", wkr, i)] = "v"
		}
	}
	re := newViewerKV()
	e2, err := Open(Options{Dir: dir, Sync: SyncNever}, []ShardState{re})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	gotJSON, _ := json.Marshal(re.m)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("recovered state diverged: %d keys, want %d", len(re.m), len(want))
	}
}

// TestParallelOpenEquivalence pins the worker-pool recovery to the serial
// baseline: same directory, same recovered state, for both a viewer and a
// legacy state, at several worker counts.
func TestParallelOpenEquivalence(t *testing.T) {
	dir := t.TempDir()
	const shards = 5
	e, kvs := openKV(t, dir, shards, Options{Sync: SyncNever, CompactEvery: 10})
	want := make([]map[string]string, shards)
	for i := 0; i < shards; i++ {
		want[i] = map[string]string{}
		for j := 0; j < 25; j++ {
			k := fmt.Sprintf("s%d-%d", i, j)
			kvSet(t, e, i, kvs[i], k, "v")
			want[i][k] = "v"
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Leave replay work behind each snapshot: append records straight to the
	// current log of every shard, as an unclean shutdown would.
	for i := 0; i < shards; i++ {
		shardDir := filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
		ents, err := os.ReadDir(shardDir)
		if err != nil {
			t.Fatal(err)
		}
		var cur uint64
		for _, ent := range ents {
			if seq, err := parseSeq(ent.Name(), "wal-", ".log"); err == nil && seq > cur {
				cur = seq
			}
		}
		w, err := createWAL(filepath.Join(shardDir, walName(cur)), SyncNever, DefaultSyncEvery, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			k := fmt.Sprintf("tail%d-%d", i, j)
			if err := w.Append(kvRecord(k, "t")); err != nil {
				t.Fatal(err)
			}
			want[i][k] = "t"
		}
		w.Close()
	}

	for _, workers := range []int{1, 2, 8} {
		re, rekvs := openKV(t, dir, shards, Options{Sync: SyncNever, RecoverWorkers: workers})
		for i := 0; i < shards; i++ {
			if !reflect.DeepEqual(rekvs[i].m, want[i]) {
				t.Fatalf("workers=%d shard %d: got %d keys, want %d", workers, i, len(rekvs[i].m), len(want[i]))
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelOpenFirstErrorWins: when several shards fail to recover, Open
// reports the lowest-index failure deterministically and releases whatever
// did open.
func TestParallelOpenFirstErrorWins(t *testing.T) {
	dir := t.TempDir()
	const shards = 4
	e, kvs := openKV(t, dir, shards, Options{Sync: SyncNever, CompactEvery: -1})
	for i := 0; i < shards; i++ {
		kvSet(t, e, i, kvs[i], "k", "v")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Poison shards 1 and 3 with a record the state rejects (no separator):
	// an intact frame whose apply fails is a real recovery error. Close
	// compacted each shard to generation 1, so wal-1 is what replay reads.
	for _, i := range []int{1, 3} {
		w, err := createWAL(filepath.Join(dir, fmt.Sprintf("shard-%03d", i), walName(1)), SyncNever, DefaultSyncEvery, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append([]byte("malformed")); err != nil {
			t.Fatal(err)
		}
		w.Close()
	}
	for _, workers := range []int{1, 4} {
		_, err := Open(Options{Dir: dir, Sync: SyncNever, RecoverWorkers: workers}, func() []ShardState {
			states := make([]ShardState, shards)
			for i := range states {
				states[i] = newKV()
			}
			return states
		}())
		if err == nil {
			t.Fatalf("workers=%d: Open succeeded over a poisoned WAL", workers)
		}
		if want := "shard 1:"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Fatalf("workers=%d: first error = %q, want lowest failing shard (%q)", workers, err, want)
		}
	}
}

// TestOffLockMetricsDeltas pins the new pci_storage_* families: one pause +
// one encode + one size observation per completed compaction, one boot
// observation per shard recovered.
func TestOffLockMetricsDeltas(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	st := newViewerKV()
	e, err := Open(Options{Dir: dir, Sync: SyncNever, CompactEvery: -1, Metrics: reg}, []ShardState{st})
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Histograms["pci_storage_boot_recover_us"].Count; got != 1 {
		t.Errorf("boot recover observations = %d, want 1", got)
	}
	const compactions = 3
	for i := 0; i < compactions; i++ {
		k := fmt.Sprintf("k%d", i)
		if err := e.Mutate(0, func() ([]byte, error) {
			st.m[k] = "v"
			return kvRecord(k, "v"), nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.Compact(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	s = reg.Snapshot()
	for _, name := range []string{"pci_storage_compact_pause_us", "pci_storage_compact_encode_us", "pci_storage_snapshot_bytes"} {
		if got := s.Histograms[name].Count; got != compactions {
			t.Errorf("%s observations = %d, want %d", name, got, compactions)
		}
	}
	if got := s.Counter("storage_compactions_total"); got != compactions {
		t.Errorf("compactions = %d, want %d", got, compactions)
	}
}

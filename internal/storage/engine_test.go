package storage

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// kvState is the reference ShardState for engine tests: a string map whose
// records are "key\x00value" pairs and whose snapshot is JSON.
type kvState struct {
	m map[string]string
}

func newKV() *kvState { return &kvState{m: map[string]string{}} }

func kvRecord(k, v string) []byte { return []byte(k + "\x00" + v) }

func (s *kvState) Apply(rec []byte) error {
	k, v, ok := strings.Cut(string(rec), "\x00")
	if !ok {
		return fmt.Errorf("kv: malformed record %q", rec)
	}
	s.m[k] = v
	return nil
}

func (s *kvState) Snapshot() ([]byte, error) { return json.Marshal(s.m) }

func (s *kvState) Restore(snap []byte) error {
	fresh := map[string]string{}
	if err := json.Unmarshal(snap, &fresh); err != nil {
		return err
	}
	s.m = fresh
	return nil
}

// set journals one key through the engine.
func kvSet(t *testing.T, e *Engine, shard int, st *kvState, k, v string) {
	t.Helper()
	err := e.Mutate(shard, func() ([]byte, error) {
		st.m[k] = v
		return kvRecord(k, v), nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func openKV(t *testing.T, dir string, shards int, opts Options) (*Engine, []*kvState) {
	t.Helper()
	opts.Dir = dir
	states := make([]ShardState, shards)
	kvs := make([]*kvState, shards)
	for i := range states {
		kvs[i] = newKV()
		states[i] = kvs[i]
	}
	e, err := Open(opts, states)
	if err != nil {
		t.Fatal(err)
	}
	return e, kvs
}

func TestEngineMemoryOnly(t *testing.T) {
	e, kvs := openKV(t, "", 2, Options{})
	kvSet(t, e, 0, kvs[0], "a", "1")
	kvSet(t, e, 1, kvs[1], "b", "2")
	for i, s := range e.shards {
		if s.w != nil || s.c != nil {
			t.Fatalf("shard %d of a memory-only engine has a WAL open", i)
		}
	}
	var got string
	e.View(0, func() { got = kvs[0].m["a"] })
	if got != "1" {
		t.Errorf("view = %q", got)
	}
	if err := e.Compact(0); err != nil {
		t.Errorf("memory compact: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("memory close: %v", err)
	}
}

func TestEnginePersistAndRecover(t *testing.T) {
	dir := t.TempDir()
	e, kvs := openKV(t, dir, 3, Options{Sync: SyncAlways})
	for i := 0; i < 30; i++ {
		shard := i % 3
		kvSet(t, e, shard, kvs[shard], fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
	}
	// No Close: simulate a hard kill (fsync=always means everything is on disk).

	e2, kvs2 := openKV(t, dir, 3, Options{Sync: SyncAlways})
	defer e2.Close()
	total := 0
	for i, kv := range kvs2 {
		e2.View(i, func() { total += len(kv.m) })
	}
	if total != 30 {
		t.Fatalf("recovered %d keys, want 30", total)
	}
	var v string
	e2.View(2, func() { v = kvs2[2].m["k29"] })
	if v != "v29" {
		t.Errorf("k29 = %q", v)
	}
}

func TestEngineCompactionAndRecovery(t *testing.T) {
	dir := t.TempDir()
	// CompactEvery=5: 23 writes force several rotations.
	e, kvs := openKV(t, dir, 1, Options{Sync: SyncAlways, CompactEvery: 5})
	for i := 0; i < 23; i++ {
		kvSet(t, e, 0, kvs[0], fmt.Sprintf("k%02d", i), "v")
	}
	// Exactly one generation should remain in the shard dir.
	shardDir := filepath.Join(dir, "shard-000")
	ents, err := os.ReadDir(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps, wals int
	for _, ent := range ents {
		switch {
		case strings.HasSuffix(ent.Name(), ".snap"):
			snaps++
		case strings.HasSuffix(ent.Name(), ".log"):
			wals++
		default:
			t.Errorf("unexpected file %s", ent.Name())
		}
	}
	if snaps != 1 || wals != 1 {
		t.Fatalf("shard dir has %d snapshots, %d wals; want 1 each", snaps, wals)
	}

	e2, kvs2 := openKV(t, dir, 1, Options{Sync: SyncAlways, CompactEvery: 5})
	defer e2.Close()
	n := 0
	e2.View(0, func() { n = len(kvs2[0].m) })
	if n != 23 {
		t.Fatalf("recovered %d keys after compaction, want 23", n)
	}
}

// TestEngineRecoveryAfterPartialCompaction: a crash between "new snapshot
// durable" and "old generation deleted" leaves both generations on disk;
// recovery must pick the newer one and sweep the rest.
func TestEngineRecoveryAfterPartialCompaction(t *testing.T) {
	dir := t.TempDir()
	e, kvs := openKV(t, dir, 1, Options{Sync: SyncAlways})
	kvSet(t, e, 0, kvs[0], "a", "1")
	kvSet(t, e, 0, kvs[0], "b", "2")
	if err := e.Close(); err != nil { // Close compacts: generation rotates to 1
		t.Fatal(err)
	}
	shardDir := filepath.Join(dir, "shard-000")
	// Recreate the "crash before delete" layout: resurrect a stale old
	// generation alongside the valid new one.
	if err := os.WriteFile(filepath.Join(shardDir, walName(0)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	writeSnapPayload(t, filepath.Join(shardDir, snapName(0)), []byte(`{"stale":"yes"}`))
	// And a leftover temp file from a torn snapshot write.
	if err := os.WriteFile(filepath.Join(shardDir, snapName(2)+".tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	e2, kvs2 := openKV(t, dir, 1, Options{Sync: SyncAlways})
	defer e2.Close()
	var a, b, stale string
	e2.View(0, func() { a, b, stale = kvs2[0].m["a"], kvs2[0].m["b"], kvs2[0].m["stale"] })
	if a != "1" || b != "2" || stale != "" {
		t.Fatalf("recovered a=%q b=%q stale=%q", a, b, stale)
	}
	// Stale generation and temp file swept.
	for _, name := range []string{walName(0), snapName(0), snapName(2) + ".tmp"} {
		if _, err := os.Stat(filepath.Join(shardDir, name)); !os.IsNotExist(err) {
			t.Errorf("%s not swept during recovery", name)
		}
	}
}

// writeSnapPayload writes payload as a complete chunked snapshot at path.
func writeSnapPayload(t *testing.T, path string, payload []byte) {
	t.Helper()
	if _, err := writeSnapshotFile(path, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineCorruptSnapshotFallsBack: an unreadable newest snapshot falls
// back to an older intact generation rather than failing the boot. A file
// without the PMSNAP02 magic is unreadable even when it is a well-formed
// single-frame (u32 len | u32 crc | payload) snapshot of the retired v1
// layout: its payload must never reach the state.
func TestEngineCorruptSnapshotFallsBack(t *testing.T) {
	v1Payload := []byte(`{"a":"from-v1","v1":"yes"}`)
	v1 := binary.LittleEndian.AppendUint32(nil, uint32(len(v1Payload)))
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(v1Payload))
	v1 = append(v1, v1Payload...)
	for name, newest := range map[string][]byte{"garbage": []byte("garbage"), "v1 single frame": v1} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			e, kvs := openKV(t, dir, 1, Options{Sync: SyncAlways})
			kvSet(t, e, 0, kvs[0], "a", "1")
			if err := e.Compact(0); err != nil { // generation 1: snapshot holds a=1
				t.Fatal(err)
			}
			kvSet(t, e, 0, kvs[0], "b", "2")  // lives in wal-1
			if err := e.Close(); err != nil { // generation 2
				t.Fatal(err)
			}
			shardDir := filepath.Join(dir, "shard-000")
			// Corrupt the newest snapshot.
			if err := os.WriteFile(filepath.Join(shardDir, snapName(2)), newest, 0o644); err != nil {
				t.Fatal(err)
			}
			// Resurrect generation 1 (snapshot a=1 + wal with b=2) as the fallback.
			snap1, err := (&kvState{m: map[string]string{"a": "1"}}).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			writeSnapPayload(t, filepath.Join(shardDir, snapName(1)), snap1)
			w, err := createWAL(filepath.Join(shardDir, walName(1)), SyncAlways, DefaultSyncEvery, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(kvRecord("b", "2")); err != nil {
				t.Fatal(err)
			}
			w.Close()

			e2, kvs2 := openKV(t, dir, 1, Options{Sync: SyncAlways})
			defer e2.Close()
			var a, b, fromV1 string
			e2.View(0, func() { a, b, fromV1 = kvs2[0].m["a"], kvs2[0].m["b"], kvs2[0].m["v1"] })
			if a != "1" || b != "2" || fromV1 != "" {
				t.Fatalf("fallback recovery: a=%q b=%q v1=%q, want 1/2/empty", a, b, fromV1)
			}
		})
	}
}

func TestEngineManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	e, _ := openKV(t, dir, 4, Options{Sync: SyncNever})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	states := []ShardState{newKV(), newKV()}
	if _, err := Open(Options{Dir: dir}, states); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	n, ok, err := ReadManifest(dir)
	if err != nil || !ok || n != 4 {
		t.Fatalf("ReadManifest = %d, %v, %v", n, ok, err)
	}
	if _, ok, err := ReadManifest(t.TempDir()); ok || err != nil {
		t.Fatalf("fresh dir manifest = %v, %v", ok, err)
	}
}

// TestEngineFormatMismatch: the owner's record format is pinned like the
// shard count. A directory created without one is format 1 and its manifest
// carries no number (what every directory written before the field existed
// looks like); a mismatch in either direction fails Open naming both numbers,
// before a shard is touched.
func TestEngineFormatMismatch(t *testing.T) {
	open := func(dir string, format int) error {
		e, err := Open(Options{Dir: dir, Sync: SyncNever, Format: format}, []ShardState{newKV(), newKV()})
		if err == nil {
			err = e.Close()
		}
		return err
	}
	v1, v2 := t.TempDir(), t.TempDir()
	if err := open(v1, 0); err != nil {
		t.Fatal(err)
	}
	if err := open(v2, 2); err != nil {
		t.Fatal(err)
	}
	for dir, want := range map[string]string{v1: `{"shards":2}`, v2: `{"shards":2,"format":2}`} {
		if got, _ := os.ReadFile(filepath.Join(dir, manifestName)); string(got) != want {
			t.Fatalf("manifest = %s, want %s", got, want)
		}
	}
	if err := open(v1, 1); err != nil {
		t.Fatalf("format 1 over a directory with no number: %v", err)
	}
	if err := open(v2, 2); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(v1, "shard-000")
	if err := os.RemoveAll(shard); err != nil {
		t.Fatal(err)
	}
	if err := open(v1, 2); err == nil || !strings.Contains(err.Error(), "holds record format 1") || !strings.Contains(err.Error(), "format 2 only") {
		t.Fatalf("format 2 over a format 1 directory: %v", err)
	}
	if _, err := os.Stat(shard); !os.IsNotExist(err) {
		t.Fatal("refused open still created a shard directory")
	}
	if err := open(v2, 0); err == nil || !strings.Contains(err.Error(), "holds record format 2") {
		t.Fatalf("format 1 over a format 2 directory: %v", err)
	}
}

func TestEngineMutateApplyError(t *testing.T) {
	dir := t.TempDir()
	e, kvs := openKV(t, dir, 1, Options{Sync: SyncNever})
	defer e.Close()
	wantErr := fmt.Errorf("rejected")
	if err := e.Mutate(0, func() ([]byte, error) { return nil, wantErr }); err != wantErr {
		t.Fatalf("Mutate = %v", err)
	}
	// A rejected mutation journals nothing and does not poison the shard.
	kvSet(t, e, 0, kvs[0], "a", "1")
}

func TestEngineNilRecordSkipsJournal(t *testing.T) {
	dir := t.TempDir()
	e, _ := openKV(t, dir, 1, Options{Sync: SyncNever})
	if err := e.Mutate(0, func() ([]byte, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, kvs2 := openKV(t, dir, 1, Options{Sync: SyncNever})
	defer e2.Close()
	n := -1
	e2.View(0, func() { n = len(kvs2[0].m) })
	if n != 0 {
		t.Errorf("no-op mutation persisted %d keys", n)
	}
}

// TestEngineConcurrentShards: concurrent writers on distinct shards make
// progress without data races (run under -race) and all writes land.
func TestEngineConcurrentShards(t *testing.T) {
	const shards, perShard = 8, 50
	dir := t.TempDir()
	e, kvs := openKV(t, dir, shards, Options{Sync: SyncNever})
	var wg sync.WaitGroup
	for sIdx := 0; sIdx < shards; sIdx++ {
		wg.Add(1)
		go func(sIdx int) {
			defer wg.Done()
			for i := 0; i < perShard; i++ {
				k := fmt.Sprintf("s%d-k%d", sIdx, i)
				if err := e.Mutate(sIdx, func() ([]byte, error) {
					kvs[sIdx].m[k] = "v"
					return kvRecord(k, "v"), nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(sIdx)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, kvs2 := openKV(t, dir, shards, Options{Sync: SyncNever})
	defer e2.Close()
	total := 0
	for i := range kvs2 {
		e2.View(i, func() { total += len(kvs2[i].m) })
	}
	if total != shards*perShard {
		t.Fatalf("recovered %d keys, want %d", total, shards*perShard)
	}
}

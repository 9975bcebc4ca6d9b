package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// ApplyShipped is the receiver's apply path: one group-commit wait for a
// whole run of shipped records instead of one per record. These tests pin
// that how a stream is cut into runs does not show on disk — same WAL, same
// state — because the replication suite's byte-identical-replica claim rests
// on that, and that a run is in state as soon as the call returns.

func dirBytes(t *testing.T, root string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		b, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		files[rel] = string(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestApplyShippedEquivalentToSerial drives the same record run through N
// one-record ApplyShipped calls and through one N-record call, and requires
// byte-identical directories and equal state.
func TestApplyShippedEquivalentToSerial(t *testing.T) {
	const shards = 2
	recs := make([][][]byte, shards)
	for i := 0; i < shards; i++ {
		for j := 0; j < 25; j++ {
			recs[i] = append(recs[i], kvRecord(fmt.Sprintf("k%d-%02d", i, j), fmt.Sprintf("v%d", j)))
		}
	}
	opts := Options{Sync: SyncAlways}

	serialDir, batchDir := t.TempDir(), t.TempDir()
	serial, _ := openKV(t, serialDir, shards, opts)
	for i := range recs {
		for _, rec := range recs[i] {
			if err := serial.ApplyShipped(i, [][]byte{rec}); err != nil {
				t.Fatalf("serial apply: %v", err)
			}
		}
	}

	batch, _ := openKV(t, batchDir, shards, opts)
	for i := range recs {
		if err := batch.ApplyShipped(i, recs[i]); err != nil {
			t.Fatalf("batch apply: %v", err)
		}
	}

	// Close both (each compacts, snapshotting the state) and compare bytes.
	if err := serial.Close(); err != nil {
		t.Fatal(err)
	}
	if err := batch.Close(); err != nil {
		t.Fatal(err)
	}
	a, b := dirBytes(t, serialDir), dirBytes(t, batchDir)
	if len(a) != len(b) {
		t.Fatalf("file sets differ: serial %d files, batch %d", len(a), len(b))
	}
	for name, want := range a {
		got, ok := b[name]
		if !ok {
			t.Errorf("batch dir missing %s", name)
			continue
		}
		if got != want {
			t.Errorf("%s differs between serial (%d bytes) and batch (%d bytes)", name, len(want), len(got))
		}
	}

	// The batch path's records must survive recovery like any journaled write.
	re, rkvs := openKV(t, batchDir, shards, opts)
	defer re.Close()
	var v string
	re.View(1, func() { v = rkvs[1].m["k1-24"] })
	if v != "v24" {
		t.Fatalf("recovered k1-24 = %q, want v24", v)
	}
}

// TestApplyShippedMemoryOnly pins the memory-only mode: the same apply loop
// with nothing to journal.
func TestApplyShippedMemoryOnly(t *testing.T) {
	e, kvs := openKV(t, "", 1, Options{})
	defer e.Close()
	if err := e.ApplyShipped(0, [][]byte{kvRecord("a", "1"), kvRecord("b", "2")}); err != nil {
		t.Fatal(err)
	}
	var a, b string
	e.View(0, func() { a, b = kvs[0].m["a"], kvs[0].m["b"] })
	if a != "1" || b != "2" {
		t.Fatalf("memory batch state = %q/%q", a, b)
	}
	if err := e.ApplyShipped(0, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestApplyShippedVisibleOnReturn pins apply-on-receipt on a durable engine:
// a shipped run is readable through View as soon as the call returns, with
// no catch-up step, and it is in the WAL — a reopen without a clean close
// (so no compaction snapshot) replays it.
func TestApplyShippedVisibleOnReturn(t *testing.T) {
	dir := t.TempDir()
	e, kvs := openKV(t, dir, 1, Options{Sync: SyncAlways, CompactEvery: -1})
	if err := e.ApplyShipped(0, [][]byte{kvRecord("a", "1"), kvRecord("b", "2")}); err != nil {
		t.Fatal(err)
	}
	var a, b string
	e.View(0, func() { a, b = kvs[0].m["a"], kvs[0].m["b"] })
	if a != "1" || b != "2" {
		t.Fatalf("state after ApplyShipped = %q/%q, want 1/2", a, b)
	}
	// Crash: no Close, so no final compaction snapshot.

	re, rkvs := openKV(t, dir, 1, Options{Sync: SyncAlways})
	defer re.Close()
	re.View(0, func() { a, b = rkvs[0].m["a"], rkvs[0].m["b"] })
	if a != "1" || b != "2" {
		t.Fatalf("replayed state = %q/%q, want 1/2", a, b)
	}
}

// TestApplyShippedStopsAtFailingRecord pins the partial-run contract: when
// record k fails to apply, records before it are applied, journaled and
// committed, the error is returned, and nothing from record k on is kept.
func TestApplyShippedStopsAtFailingRecord(t *testing.T) {
	dir := t.TempDir()
	e, kvs := openKV(t, dir, 1, Options{Sync: SyncAlways, CompactEvery: -1})
	run := [][]byte{kvRecord("a", "1"), kvRecord("b", "2"), []byte("malformed"), kvRecord("c", "3")}
	if err := e.ApplyShipped(0, run); err == nil {
		t.Fatal("run with a malformed record applied without error")
	}
	check := func(what string, kv *kvState) {
		t.Helper()
		if kv.m["a"] != "1" || kv.m["b"] != "2" {
			t.Errorf("%s: prefix a/b = %q/%q, want 1/2", what, kv.m["a"], kv.m["b"])
		}
		if _, ok := kv.m["c"]; ok {
			t.Errorf("%s: record after the failing one was applied", what)
		}
	}
	e.View(0, func() { check("live", kvs[0]) })
	// Crash: no Close — the prefix must already be durable.

	re, rkvs := openKV(t, dir, 1, Options{Sync: SyncAlways})
	defer re.Close()
	re.View(0, func() { check("replayed", rkvs[0]) })
}

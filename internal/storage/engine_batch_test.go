package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// AppendShippedBatch is the receiver's journal path: one group-commit wait
// for a whole run of shipped records instead of one per record. These tests pin that how a stream is cut into runs does not
// show on disk — same WAL, same state — because the replication suite's
// byte-identical-replica claim rests on that.

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

// TestAppendShippedBatchEquivalentToSerial drives the same record run
// through N one-record AppendShippedBatch calls and through one N-record
// call, and requires byte-identical directories and equal materialized state.
func TestAppendShippedBatchEquivalentToSerial(t *testing.T) {
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
			if err := serial.AppendShippedBatch(i, [][]byte{rec}); err != nil {
				t.Fatalf("serial append: %v", err)
			}
		}
	}
	if err := serial.MaterializeAll(); err != nil {
		t.Fatal(err)
	}

	batch, _ := openKV(t, batchDir, shards, opts)
	for i := range recs {
		if err := batch.AppendShippedBatch(i, recs[i]); err != nil {
			t.Fatalf("batch append: %v", err)
		}
	}
	if err := batch.MaterializeAll(); err != nil {
		t.Fatal(err)
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

// TestAppendShippedBatchMemoryOnly pins the memory-only fallback: no WAL to
// defer behind, so the run is applied eagerly and visible without
// Materialize.
func TestAppendShippedBatchMemoryOnly(t *testing.T) {
	e, kvs := openKV(t, "", 1, Options{})
	defer e.Close()
	if err := e.AppendShippedBatch(0, [][]byte{kvRecord("a", "1"), kvRecord("b", "2")}); err != nil {
		t.Fatal(err)
	}
	var a, b string
	e.View(0, func() { a, b = kvs[0].m["a"], kvs[0].m["b"] })
	if a != "1" || b != "2" {
		t.Fatalf("memory batch state = %q/%q", a, b)
	}
	if err := e.AppendShippedBatch(0, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

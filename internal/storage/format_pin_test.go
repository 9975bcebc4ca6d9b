package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestParentFormatPin is the cross-commit format pin: testdata/parent/datadir
// was written by the commit before internal/frame existed (two shards, each
// a PMSNAP02 snapshot plus a WAL tail). Every file must
// re-encode byte-for-byte through today's writers, and the directory must
// open as a live engine.
func TestParentFormatPin(t *testing.T) {
	const src = "testdata/parent/datadir"
	live := t.TempDir()
	for _, shard := range []string{"shard-000", "shard-001"} {
		if err := os.MkdirAll(filepath.Join(live, shard), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{snapName(1), walName(1)} {
			data, err := os.ReadFile(filepath.Join(src, shard, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(live, shard, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		st := newKV()
		if err := restoreSnapshotFile(filepath.Join(src, shard, snapName(1)), st); err != nil {
			t.Fatalf("%s: parent snapshot does not restore: %v", shard, err)
		}
		payload, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		resnap := filepath.Join(t.TempDir(), "re.snap")
		writeSnapPayload(t, resnap, payload)
		assertSameFile(t, filepath.Join(src, shard, snapName(1)), resnap)

		var recs [][]byte
		n, torn, err := replayWAL(filepath.Join(live, shard, walName(1)), func(rec []byte) error {
			recs = append(recs, append([]byte(nil), rec...))
			return nil
		})
		if err != nil || torn || n == 0 {
			t.Fatalf("%s: parent WAL replayed %d records, torn=%v, err=%v", shard, n, torn, err)
		}
		rewal := filepath.Join(t.TempDir(), "re.log")
		w, err := createWAL(rewal, SyncNever, DefaultSyncEvery, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
		w.Close()
		assertSameFile(t, filepath.Join(src, shard, walName(1)), rewal)
	}

	manifest, err := os.ReadFile(filepath.Join(src, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(live, manifestName), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	e, kvs := openKV(t, live, 2, Options{Sync: SyncNever})
	defer e.Close()
	var k0, k19 string
	var hasEmpty bool
	e.View(0, func() { k0 = kvs[0].m["key-00"] })
	e.View(1, func() { k19 = kvs[1].m["key-19"]; _, hasEmpty = kvs[1].m["empty"] })
	if k0 != "overwritten" || len(k19) != 22 || !hasEmpty {
		t.Fatalf("parent data dir recovered key-00=%q key-19=%q empty=%v", k0, k19, hasEmpty)
	}
}

func assertSameFile(t *testing.T, want, got string) {
	t.Helper()
	a, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("%s re-encodes to different bytes (%d vs %d)", want, len(a), len(b))
	}
}

package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func tmpWAL(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "wal-0000000000000000.log")
}

func appendAll(t *testing.T, path string, recs [][]byte, policy SyncPolicy) {
	t.Helper()
	w, err := createWAL(path, policy, DefaultSyncEvery, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func collectReplay(t *testing.T, path string) [][]byte {
	t.Helper()
	var got [][]byte
	n, _, err := replayWAL(path, func(rec []byte) error {
		got = append(got, bytes.Clone(rec))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(got) {
		t.Fatalf("replay reported %d records, delivered %d", n, len(got))
	}
	return got
}

func TestWALRoundTrip(t *testing.T) {
	path := tmpWAL(t)
	recs := [][]byte{[]byte("alpha"), []byte(""), []byte("gamma-gamma-gamma"), {0x00, 0xff, 0x10}}
	appendAll(t, path, recs, SyncAlways)
	got := collectReplay(t, path)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], recs[i])
		}
	}
}

func TestWALReplayMissingFile(t *testing.T) {
	n, torn, err := replayWAL(filepath.Join(t.TempDir(), "nope.log"), func([]byte) error { return nil })
	if err != nil || n != 0 || torn {
		t.Fatalf("missing file: n=%d torn=%v err=%v", n, torn, err)
	}
}

// TestWALTornTailProperty is the core recovery property: for EVERY byte-level
// truncation of a valid log, replay recovers exactly the records fully
// contained in the prefix, and truncates the torn remainder so a subsequent
// append produces a clean log again.
func TestWALTornTailProperty(t *testing.T) {
	dir := t.TempDir()
	master := filepath.Join(dir, "master.log")
	var recs [][]byte
	var frameEnds []int64 // cumulative offset after each record
	off := int64(0)
	for i := 0; i < 25; i++ {
		rec := []byte(fmt.Sprintf("record-%02d-%s", i, bytes.Repeat([]byte{'x'}, i*3)))
		recs = append(recs, rec)
		off += int64(frameHeaderSize + len(rec))
		frameEnds = append(frameEnds, off)
	}
	appendAll(t, master, recs, SyncNever)
	full, err := os.ReadFile(master)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != off {
		t.Fatalf("log size %d, want %d", len(full), off)
	}

	for cut := 0; cut <= len(full); cut++ {
		path := filepath.Join(dir, "cut.log")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := collectReplay(t, path)
		// Expected: all records whose frame ends at or before the cut.
		want := 0
		for _, end := range frameEnds {
			if end <= int64(cut) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(got), want)
		}
		for i := 0; i < want; i++ {
			if !bytes.Equal(got[i], recs[i]) {
				t.Fatalf("cut at %d: record %d corrupted", cut, i)
			}
		}
		// The torn tail must be gone: the file now ends at the last intact frame.
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		wantSize := int64(0)
		if want > 0 {
			wantSize = frameEnds[want-1]
		}
		if st.Size() != wantSize {
			t.Fatalf("cut at %d: file size %d after recovery, want %d", cut, st.Size(), wantSize)
		}
	}
}

// TestWALCorruptMiddle: a bit-flip mid-log stops replay at the corrupted
// record; everything before it survives.
func TestWALCorruptMiddle(t *testing.T) {
	path := tmpWAL(t)
	recs := [][]byte{[]byte("aaaa"), []byte("bbbb"), []byte("cccc")}
	appendAll(t, path, recs, SyncNever)
	data, _ := os.ReadFile(path)
	// Flip a payload byte inside the second record.
	data[frameHeaderSize+4+frameHeaderSize+1] ^= 0x80
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got := collectReplay(t, path)
	if len(got) != 1 || !bytes.Equal(got[0], recs[0]) {
		t.Fatalf("recovered %d records after mid-log corruption, want 1 intact", len(got))
	}
}

// TestWALGarbageLength: an absurd length prefix reads as a torn tail, not an
// allocation attempt.
func TestWALGarbageLength(t *testing.T) {
	path := tmpWAL(t)
	appendAll(t, path, [][]byte{[]byte("ok")}, SyncNever)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// length = 0xFFFFFFFF, bogus CRC, a few junk bytes
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 9, 9}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got := collectReplay(t, path)
	if len(got) != 1 {
		t.Fatalf("recovered %d records, want 1", len(got))
	}
}

func TestWALAppendRejectsOversized(t *testing.T) {
	w, err := createWAL(tmpWAL(t), SyncNever, DefaultSyncEvery, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(make([]byte, MaxRecordSize+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"never", SyncNever}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "v2" {
		t.Fatalf("read %q, %v", data, err)
	}
	// No temp droppings.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Errorf("directory has %d entries, want 1", len(ents))
	}
}

// TestWriteFileAtomicFailures covers the failure branches reachable without
// a filesystem seam: the temp file cannot be created in a missing directory,
// and the rename cannot replace a non-empty directory. Neither leaves a temp
// file behind, and the failed rename leaves its target as it was. The write,
// sync and close failures need an injected filesystem (ROADMAP item 19).
func TestWriteFileAtomicFailures(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "no-such-dir", "f")
	if err := WriteFileAtomic(missing, []byte("v1"), 0o644); err == nil {
		t.Fatal("WriteFileAtomic into a missing directory succeeded")
	}
	if _, err := os.Stat(filepath.Dir(missing)); !os.IsNotExist(err) {
		t.Fatalf("the missing directory now exists (stat: %v)", err)
	}

	target := filepath.Join(dir, "target")
	inner := filepath.Join(target, "keep")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(inner, []byte("kept"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(target, []byte("v2"), 0o644); err == nil {
		t.Fatal("WriteFileAtomic renamed a file over a non-empty directory")
	}
	if _, err := os.Stat(target + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("the failed rename left its temp file behind (stat: %v)", err)
	}
	ents, err := os.ReadDir(target)
	if err != nil || len(ents) != 1 || ents[0].Name() != "keep" {
		t.Fatalf("target directory holds %v (%v), want only keep", ents, err)
	}
	if data, err := os.ReadFile(inner); err != nil || string(data) != "kept" {
		t.Fatalf("target's file reads %q, %v; want \"kept\"", data, err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("test directory has %d entries, want only target", len(ents))
	}
}

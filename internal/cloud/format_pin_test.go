package cloud

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/frame"
)

// TestParentFormatPin is the cross-commit format pin for the streamed wire:
// testdata/parent/discover.bin is a binary discover upload (header, two
// observation blocks, end marker) captured from the client of the commit
// before internal/frame existed. Today's server decodes it and today's
// client re-encodes the decoded request to the same bytes.
func TestParentFormatPin(t *testing.T) {
	want, err := os.ReadFile("testdata/parent/discover.bin")
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{maxBody: DefaultMaxBodyBytes}
	var req DiscoverPlacesRequest
	w := httptest.NewRecorder()
	if !s.decodeDiscoverBinary(w, httptest.NewRequest(http.MethodPost, PathPlacesDiscover, bytes.NewReader(want)), &req) {
		t.Fatalf("parent upload refused: %d %s", w.Code, w.Body)
	}
	if !req.Delta || req.Cursor != 41 || req.PrefixHash != 0x0123456789abcdef || len(req.Observations) != 700 {
		t.Fatalf("parent upload decoded to delta=%v cursor=%d hash=%x with %d observations",
			req.Delta, req.Cursor, req.PrefixHash, len(req.Observations))
	}
	var got bytes.Buffer
	if err := writeDiscoverFrames(&got, &req); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("parent upload re-encodes to different bytes (%d vs %d)", got.Len(), len(want))
	}
}

// TestJSONEraDirRefused: testdata/parent/jsonstore was written by the commit
// before the record codec (2 data shards; JSON snapshots, JSON WAL tails, data
// and traces; MANIFEST.json without a format number). There is no reader for
// it, and shard recovery would take its snapshots for corrupt ones and open
// empty — so the open must fail before any shard is read, naming the format
// found and the one wanted, and leave every file as it was.
func TestJSONEraDirRefused(t *testing.T) {
	const src = "testdata/parent/jsonstore"
	dir := t.TempDir()
	copyTree(t, src, dir)
	for name, open := range map[string]func() error{
		"OpenStore": func() error {
			s, err := OpenStore(dir, StoreConfig{})
			if err == nil {
				s.Close()
			}
			return err
		},
		"NewClusterNode": func() error {
			self := cluster.Node{ID: "n0", URL: "http://127.0.0.1:1"}
			cn, err := NewClusterNode(dir, StoreConfig{}, ClusterNodeConfig{Self: self, Peers: []cluster.Node{self}})
			if err == nil {
				cn.Close()
				cn.Store().Close()
			}
			return err
		},
	} {
		err := open()
		if err == nil || !strings.Contains(err.Error(), "holds record format 1") || !strings.Contains(err.Error(), "format 2 only") {
			t.Fatalf("%s over a JSON-era directory: err = %v, want a refusal naming formats 1 and 2", name, err)
		}
		var files int
		err = filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			files++
			rel, _ := filepath.Rel(src, path)
			want, _ := os.ReadFile(path)
			if got, err := os.ReadFile(filepath.Join(dir, rel)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s changed %s (%v)", name, rel, err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var after int
		filepath.Walk(dir, func(_ string, info os.FileInfo, _ error) error {
			if !info.IsDir() {
				after++
			}
			return nil
		})
		if files != 10 || after != files {
			t.Fatalf("%s: fixture has %d files, directory %d afterwards; want 10 and 10", name, files, after)
		}
	}
}

// TestFormat2StorePin is the cross-commit pin for trace state on disk:
// testdata/parent/format2store was written by the commit that held a user's
// trace as decoded observations (2 data and 2 trace shards): one snapshot per
// trace shard, then a WAL tail of trace_append, trace_replace and trace_drop
// records. testdata/parent/format2final holds the Snapshot() bytes that
// commit rendered for each trace shard after the tail. Today each committed
// snapshot restores to a state that snapshots back to the same bytes, and the
// reopened store holds every user's trace position and renders each trace
// shard's Snapshot() exactly as that commit did.
func TestFormat2StorePin(t *testing.T) {
	const src = "testdata/parent/format2store"
	missing := map[op]bool{opTraceAppend: true, opTraceReplace: true, opTraceDrop: true}
	for i := 0; i < 2; i++ {
		shard := filepath.Join(src, "traces", fmt.Sprintf("shard-%03d", i))
		want := snapshotFilePayload(t, filepath.Join(shard, "snapshot-0000000000000001.snap"))
		ts := newTraceState()
		if err := ts.Restore(want); err != nil {
			t.Fatal(err)
		}
		if got, err := ts.Snapshot(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("trace shard %d: committed snapshot re-renders to different bytes (%d vs %d, %v)", i, len(got), len(want), err)
		}
		for _, o := range walOps(t, filepath.Join(shard, "wal-0000000000000001.log")) {
			delete(missing, o)
		}
	}
	if len(missing) != 0 {
		t.Fatalf("fixture WAL tails lack %v", missing)
	}

	dir := t.TempDir()
	copyTree(t, src, dir)
	s, err := OpenStore(dir, StoreConfig{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for uid, want := range map[string]TraceStatus{
		"user-0001": {Len: 170, Hash: 0xbb2928cb6a162cc0}, // snapshot + trace_append (delta)
		"user-0002": {Len: 166, Hash: 0xc54c2e9f85e27269}, // snapshot + trace_append (stream)
		"user-0003": {Len: 130, Hash: 0x09310e5570b79fe5}, // snapshot, then trace_replace
		"user-0004": {Len: 0, Hash: EmptyTraceHash()},     // snapshot, then trace_drop
		"user-0005": {Len: 65, Hash: 0x4bdd5f7715f0c0ce},  // trace_replace only
	} {
		if got := s.TraceStatusFor(uid); got.Len != want.Len || got.Hash != want.Hash {
			t.Errorf("%s: trace (%d, %#x), want (%d, %#x)", uid, got.Len, got.Hash, want.Len, want.Hash)
		}
	}
	for i, ts := range s.traces {
		want, err := os.ReadFile(fmt.Sprintf("testdata/parent/format2final/shard-%03d.snap", i))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := ts.Snapshot(); err != nil || !bytes.Equal(got, want) {
			t.Errorf("trace shard %d: reopened store snapshots to different bytes (%d vs %d, %v)", i, len(got), len(want), err)
		}
	}
}

// snapshotFilePayload returns the shard-state bytes inside a storage snapshot
// file: the payloads of the fixed frames between the magic and the end marker.
func snapshotFilePayload(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const magic = "PMSNAP02"
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(f, head); err != nil || string(head) != magic {
		t.Fatalf("%s: magic %q, %v", path, head, err)
	}
	var out, scratch []byte
	for {
		b, err := frame.ReadFixed(f, 4<<20, frame.EndSum(magic), &scratch)
		if errors.Is(err, frame.ErrEnd) {
			return out
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, b...)
	}
}

// walOps returns the ops of the records in a WAL file.
func walOps(t *testing.T, path string) []op {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ops []op
	var scratch []byte
	for {
		b, err := frame.ReadFixed(f, 1<<20, 0, &scratch)
		if err == io.EOF {
			return ops
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		rec, err := decodeRecord(b)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		ops = append(ops, rec.Op)
	}
}

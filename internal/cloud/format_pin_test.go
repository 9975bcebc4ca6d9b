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
	"repro/internal/storage"
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

// TestJSONEraDirRefused: there is no reader for a directory another
// commit's layout wrote, the JSON era's or the two-engine one's. testdata/parent/jsonstore was written by the commit
// before the record codec (2 data shards; JSON snapshots, JSON WAL tails, data
// and traces; MANIFEST.json without a format number). testdata/parent/
// format2store was written by the commit that kept traces in a second engine
// under traces/ (2 data and 2 trace shards, format 2). Shard recovery would
// take their snapshots for corrupt ones, or their trace shards for data
// shards, and open wrong — so the open must fail before any shard is read,
// naming the format found and the one wanted, and leave every file, traces/
// included, as it was.
func TestJSONEraDirRefused(t *testing.T) {
	for _, fx := range []struct {
		src    string
		format int
		files  int
	}{
		{"testdata/parent/jsonstore", 1, 10},
		{"testdata/parent/format2store", 2, 12},
	} {
		dir := t.TempDir()
		copyTree(t, fx.src, dir)
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
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("holds record format %d", fx.format)) || !strings.Contains(err.Error(), "format 3 only") {
				t.Fatalf("%s over %s: err = %v, want a refusal naming formats %d and 3", name, fx.src, err, fx.format)
			}
			var files int
			err = filepath.Walk(fx.src, func(path string, info os.FileInfo, err error) error {
				if err != nil || info.IsDir() {
					return err
				}
				files++
				rel, _ := filepath.Rel(fx.src, path)
				want, _ := os.ReadFile(path)
				if got, err := os.ReadFile(filepath.Join(dir, rel)); err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s changed %s of %s (%v)", name, rel, fx.src, err)
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
			if files != fx.files || after != files {
				t.Fatalf("%s over %s: fixture has %d files, directory %d afterwards; want %d and %d", name, fx.src, files, after, fx.files, fx.files)
			}
		}
	}
}

// TestFormat2StorePin pins trace snapshot bytes across the two-engine
// layout: testdata/parent/format2store was written by the commit that held a
// user's trace as decoded observations (2 data and 2 trace shards): one
// snapshot per trace shard, then a WAL tail of trace_append, trace_replace
// and trace_drop records. testdata/parent/format2final holds the Snapshot()
// bytes that commit rendered for each trace shard after the tail. The
// directory itself is refused now (TestJSONEraDirRefused), so the tail is
// replayed here straight through traceState.apply: each committed snapshot
// restores to a state that snapshots back to the same bytes, and after its
// tail each trace shard holds every user's trace position and renders its
// Snapshot() exactly as that commit did.
func TestFormat2StorePin(t *testing.T) {
	const src = "testdata/parent/format2store"
	missing := map[op]bool{opTraceAppend: true, opTraceReplace: true, opTraceDrop: true}
	var shards []*traceState
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
		for _, rec := range walRecords(t, filepath.Join(shard, "wal-0000000000000001.log")) {
			delete(missing, rec.Op)
			if err := ts.apply(rec); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(fmt.Sprintf("testdata/parent/format2final/shard-%03d.snap", i))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := ts.Snapshot(); err != nil || !bytes.Equal(got, want) {
			t.Errorf("trace shard %d: snapshot after the WAL tail differs (%d vs %d, %v)", i, len(got), len(want), err)
		}
		shards = append(shards, ts)
	}
	if len(missing) != 0 {
		t.Fatalf("fixture WAL tails lack %v", missing)
	}
	for uid, want := range map[string]TraceStatus{
		"user-0001": {Len: 170, Hash: 0xbb2928cb6a162cc0}, // snapshot + trace_append (delta)
		"user-0002": {Len: 166, Hash: 0xc54c2e9f85e27269}, // snapshot + trace_append (stream)
		"user-0003": {Len: 130, Hash: 0x09310e5570b79fe5}, // snapshot, then trace_replace
		"user-0004": {Len: 0, Hash: EmptyTraceHash()},     // snapshot, then trace_drop
		"user-0005": {Len: 65, Hash: 0x4bdd5f7715f0c0ce},  // trace_replace only
	} {
		got := TraceStatus{Hash: EmptyTraceHash()}
		if u := shards[shardHash(uid)%2].users[uid]; u != nil {
			got = u.status()
		}
		if got.Len != want.Len || got.Hash != want.Hash {
			t.Errorf("%s: trace (%d, %#x), want (%d, %#x)", uid, got.Len, got.Hash, want.Len, want.Hash)
		}
	}
}

// TestFormat3StorePin is the cross-commit pin for the one-engine layout:
// testdata/parent/format3store was written by the commit that moved traces
// into the data engine (2 data shards, so 5 shard directories: registration,
// data 1–2, traces 3–4), each shard a snapshot and then a WAL tail of
// register, set_places, label_place, put_profile, trace_append,
// trace_replace and trace_drop records. testdata/parent/format3final holds
// the Snapshot() bytes that commit rendered for each shard after reopening.
// Today the directory opens, every user's places and trace position are as
// that commit left them, and every shard snapshots to the same bytes.
func TestFormat3StorePin(t *testing.T) {
	const src = "testdata/parent/format3store"
	missing := map[op]bool{opRegister: true, opSetPlaces: true, opLabelPlace: true, opPutProfile: true,
		opTraceAppend: true, opTraceReplace: true, opTraceDrop: true}
	for i := 0; i < 5; i++ {
		for _, rec := range walRecords(t, filepath.Join(src, fmt.Sprintf("shard-%03d", i), "wal-0000000000000001.log")) {
			delete(missing, rec.Op)
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
	if s.ShardCount() != 2 || s.eng.NumShards() != 5 {
		t.Fatalf("reopened with %d data shards in %d, want 2 in 5", s.ShardCount(), s.eng.NumShards())
	}
	for uid, want := range map[string]struct {
		trace  TraceStatus
		places string
	}{
		"user-0001": {TraceStatus{Len: 140, Hash: 0xa186fb972ad03228}, "1:home 2:"}, // snapshot + trace_append (delta); label_place
		"user-0002": {TraceStatus{Len: 160, Hash: 0x499c51a89f1e5b01}, "21: 22:"},   // snapshot + trace_append (stream); set_places
		"user-0003": {TraceStatus{Len: 70, Hash: 0x9f24a46d6305af7d}, "1: 2:"},      // snapshot, then trace_replace
		"user-0004": {TraceStatus{Len: 0, Hash: EmptyTraceHash()}, "1: 2:"},         // snapshot, then trace_drop
		"user-0005": {TraceStatus{Len: 65, Hash: 0x496b5a77d9a8ad37}, "1: 2:"},      // trace_replace only
		"user-0006": {TraceStatus{Len: 33, Hash: 0x56b8b8813d2b2239}, "11: 12:"},    // register, set_places, trace_append in the tail
	} {
		if got := s.TraceStatusFor(uid); got.Len != want.trace.Len || got.Hash != want.trace.Hash {
			t.Errorf("%s: trace (%d, %#x), want (%d, %#x)", uid, got.Len, got.Hash, want.trace.Len, want.trace.Hash)
		}
		var ids []string
		for _, p := range s.Places(uid) {
			ids = append(ids, fmt.Sprintf("%d:%s", p.ID, p.Label))
		}
		if got := strings.Join(ids, " "); got != want.places {
			t.Errorf("%s: places %q, want %q", uid, got, want.places)
		}
	}
	states := []storage.ShardState{s.meta, s.data[0], s.data[1], s.traces[0], s.traces[1]}
	for i, st := range states {
		want, err := os.ReadFile(fmt.Sprintf("testdata/parent/format3final/shard-%03d.snap", i))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := st.Snapshot(); err != nil || !bytes.Equal(got, want) {
			t.Errorf("shard %d: reopened store snapshots to different bytes (%d vs %d, %v)", i, len(got), len(want), err)
		}
	}
}

// TestFreshStoreLayout: a new data directory holds one MANIFEST.json and
// the 1+2D shard directories of one engine, and nothing else.
func TestFreshStoreLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreConfig{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	want := "MANIFEST.json shard-000 shard-001 shard-002 shard-003 shard-004 shard-005 shard-006"
	if strings.Join(got, " ") != want {
		t.Fatalf("fresh store directory holds %v, want %s", got, want)
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

// walRecords decodes the records of a WAL file.
func walRecords(t *testing.T, path string) []*record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []*record
	var scratch []byte
	for {
		b, err := frame.ReadFixed(f, 1<<20, 0, &scratch)
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		rec, err := decodeRecord(b)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		recs = append(recs, rec)
	}
}

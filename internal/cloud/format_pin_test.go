package cloud

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
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

package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// The crash readers parse whatever a crash, a torn write or bit rot left on
// disk. Their fuzzers are seeded from the committed format-pin directories —
// this package's own and the cloud store's one-engine layout — plus a torn
// and a bit-flipped copy of each file, and check each reader against the
// frame layout directly: a fixed frame is u32 length, u32 CRC-32 (IEEE) of
// the payload, payload, all little-endian.

// addFixtureSeeds adds every committed shard file matching pattern, a torn
// half of it and a copy with one bit flipped mid-file.
func addFixtureSeeds(f *testing.F, pattern string) {
	for _, root := range []string{"testdata/parent/datadir", "../cloud/testdata/parent/format3store"} {
		paths, err := filepath.Glob(filepath.Join(root, "shard-*", pattern))
		if err != nil || len(paths) == 0 {
			f.Fatalf("no %s fixtures under %s (%v)", pattern, root, err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
			f.Add(data[:len(data)/2])
			if len(data) > 0 {
				flipped := bytes.Clone(data)
				flipped[len(flipped)/2] ^= 0x10
				f.Add(flipped)
			}
		}
	}
}

// FuzzReplayWAL: replaying any file never panics, applies only payloads
// that sit at the next frame boundary of the input under a header whose
// length and CRC match them, reports exactly the records it applied, and
// leaves the file cut at the end of the last one applied.
func FuzzReplayWAL(f *testing.F) {
	addFixtureSeeds(f, "wal-*.log")
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), walName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		off, applied := 0, 0
		n, torn, err := replayWAL(path, func(p []byte) error {
			if len(data)-off < frameHeaderSize+len(p) {
				t.Fatalf("record %d: %d payload bytes applied from %d input bytes left", applied, len(p), len(data)-off)
			}
			hdr := data[off : off+frameHeaderSize]
			if int(binary.LittleEndian.Uint32(hdr)) != len(p) || binary.LittleEndian.Uint32(hdr[4:]) != crc32.ChecksumIEEE(p) ||
				!bytes.Equal(data[off+frameHeaderSize:off+frameHeaderSize+len(p)], p) {
				t.Fatalf("record %d at offset %d applied without a matching length and CRC", applied, off)
			}
			off += frameHeaderSize + len(p)
			applied++
			return nil
		})
		if err != nil {
			t.Fatalf("replay failed with an accepting apply: %v", err)
		}
		if n != applied {
			t.Fatalf("reported %d records, applied %d", n, applied)
		}
		if torn != (off != len(data)) {
			t.Fatalf("torn = %v with %d of %d bytes replayed", torn, off, len(data))
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(off) {
			t.Fatalf("file left at %v bytes (%v), want the %d replayed", fi.Size(), err, off)
		}
	})
}

// restoreRecorder is a ShardState that keeps the payload it is restored from.
type restoreRecorder struct {
	got    []byte
	called bool
}

func (r *restoreRecorder) Apply([]byte) error        { return nil }
func (r *restoreRecorder) Snapshot() ([]byte, error) { return nil, nil }
func (r *restoreRecorder) Restore(snap []byte) error {
	return r.RestoreStream(bytes.NewReader(snap))
}
func (r *restoreRecorder) RestoreStream(rd io.Reader) (err error) {
	r.called = true
	r.got, err = io.ReadAll(rd)
	return err
}

// FuzzSnapshotReader: restoring any file never panics and either fails
// before a byte reaches the state, or the file is exactly magic, intact
// non-empty chunks and the end marker — and the state received the chunks'
// payloads, in order, and nothing else.
func FuzzSnapshotReader(f *testing.F) {
	addFixtureSeeds(f, "snapshot-*.snap")
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), snapName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec := &restoreRecorder{}
		if err := restoreSnapshotFile(path, rec); err != nil {
			if rec.called {
				t.Fatalf("refused snapshot (%v) reached the state", err)
			}
			return
		}
		if !bytes.HasPrefix(data, []byte(snapMagic)) {
			t.Fatal("restored a file without the magic")
		}
		var want []byte
		rest := data[len(snapMagic):]
		for {
			if len(rest) < frameHeaderSize {
				t.Fatalf("restored a file that ends inside a frame header")
			}
			n, sum := binary.LittleEndian.Uint32(rest), binary.LittleEndian.Uint32(rest[4:])
			rest = rest[frameHeaderSize:]
			if n == 0 {
				if sum != snapEnd || len(rest) != 0 {
					t.Fatalf("restored past a bad end marker or %d trailing bytes", len(rest))
				}
				break
			}
			if uint64(n) > uint64(len(rest)) || crc32.ChecksumIEEE(rest[:n]) != sum {
				t.Fatal("restored a chunk whose length or CRC does not match")
			}
			want = append(want, rest[:n]...)
			rest = rest[n:]
		}
		if !bytes.Equal(rec.got, want) {
			t.Fatalf("state received %d bytes, the chunks hold %d", len(rec.got), len(want))
		}
	})
}

// FuzzReadManifest: reading any MANIFEST.json never panics, and an engine of
// record format 3 opens over it only when the file is a JSON object naming
// format 3 and the engine's shard count — never over a format-1 manifest
// (which names no format), a format-2 one, or any other number. Seeded from
// every committed MANIFEST: this package's pin and the cloud store's
// format-1, format-2 and format-3 directories.
func FuzzReadManifest(f *testing.F) {
	var seeds []string
	for _, pattern := range []string{
		"testdata/parent/*/MANIFEST.json",
		"../cloud/testdata/parent/*/MANIFEST.json",
		"../cloud/testdata/parent/*/*/MANIFEST.json",
	} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, paths...)
	}
	if len(seeds) < 6 {
		f.Fatalf("found %d committed MANIFESTs, want the 6 format pins", len(seeds))
	}
	for _, p := range seeds {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if m, ok, err := readManifest(dir); err == nil && (!ok || m.Shards <= 0 || m.Format <= 0) {
			t.Fatalf("readManifest accepted %q as %+v (ok=%v)", data, m, ok)
		}

		// What the file names, decoded on its own: Open below is given the
		// shard count it names (when small), so only the format decides.
		var named struct {
			Shards int  `json:"shards"`
			Format *int `json:"format"`
		}
		decodeErr := json.Unmarshal(data, &named)
		shards := 1
		if decodeErr == nil && named.Shards >= 1 && named.Shards <= 8 {
			shards = named.Shards
		}
		states := make([]ShardState, shards)
		for i := range states {
			states[i] = &restoreRecorder{}
		}
		e, err := Open(Options{Dir: dir, Format: 3}, states)
		if err != nil {
			return
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if decodeErr != nil || named.Format == nil || *named.Format != 3 || named.Shards != shards {
			t.Fatalf("a format-3 engine with %d shards opened over MANIFEST %q", shards, data)
		}
	})
}

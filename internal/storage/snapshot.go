package storage

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"

	"repro/internal/frame"
)

// Chunked snapshot layout (DESIGN.md §16):
//
//	| magic "PMSNAP02" | chunk* | end marker |
//
// where a chunk is a non-empty fixed-shape frame and the end marker the
// fixed shape's, keyed by the magic (internal/frame) — the same frame header
// as the WAL. The encoder streams the state straight into chunk frames, so
// neither writer nor reader ever holds the whole shard as one []byte; the
// explicit end marker distinguishes "complete snapshot" from "crash truncated
// the file mid-write", which the off-lock compaction protocol depends on. A
// file that does not start with the magic is a corrupt snapshot.
const snapMagic = "PMSNAP02"

// snapChunkSize is the encoder's target chunk payload size. Large enough to
// amortize framing and Write syscalls, small enough that the reader's
// per-chunk buffer stays cheap.
const snapChunkSize = 256 << 10

// maxSnapChunk bounds a single chunk on read; a larger length prefix means a
// corrupt file (the writer never produces one above snapChunkSize).
const maxSnapChunk = 4 << 20

// snapEnd is the check field of the end marker.
var snapEnd = frame.EndSum(snapMagic)

// snapshotWriter chunk-frames a payload stream into an *os.File. Not
// concurrency-safe; exactly one encoder writes to it.
type snapshotWriter struct {
	f       *os.File
	buf     []byte
	hdr     [frameHeaderSize]byte
	payload int64 // payload bytes accepted via Write
}

func newSnapshotWriter(f *os.File) (*snapshotWriter, error) {
	if _, err := f.Write([]byte(snapMagic)); err != nil {
		return nil, err
	}
	return &snapshotWriter{f: f, buf: make([]byte, 0, snapChunkSize)}, nil
}

func (sw *snapshotWriter) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		room := snapChunkSize - len(sw.buf)
		if room == 0 {
			if err := sw.flushChunk(); err != nil {
				return 0, err
			}
			room = snapChunkSize
		}
		n := min(room, len(p))
		sw.buf = append(sw.buf, p[:n]...)
		p = p[n:]
	}
	sw.payload += int64(total)
	return total, nil
}

func (sw *snapshotWriter) flushChunk() error {
	if len(sw.buf) == 0 {
		return nil
	}
	if _, err := sw.f.Write(frame.AppendFixedHeader(sw.hdr[:0], sw.buf)); err != nil {
		return err
	}
	_, err := sw.f.Write(sw.buf)
	sw.buf = sw.buf[:0]
	return err
}

// finish flushes the final partial chunk and writes the end marker.
func (sw *snapshotWriter) finish() error {
	if err := sw.flushChunk(); err != nil {
		return err
	}
	_, err := sw.f.Write(frame.AppendFixedEnd(sw.hdr[:0], snapEnd))
	return err
}

// writeSnapshotFile streams encode's output into path as a chunked v2
// snapshot, via temp file + fsync + rename + directory fsync, so a crash at
// any point leaves either no snapshot-<N+1> or a complete one — and a crash
// after the rename but before the directory fsync leaves a file that recovery
// validates before trusting. Returns the payload byte count (pre-framing).
func writeSnapshotFile(path string, encode func(io.Writer) error) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	fail := func(err error) (int64, error) {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	sw, err := newSnapshotWriter(f)
	if err != nil {
		return fail(err)
	}
	if err := encode(sw); err != nil {
		return fail(err)
	}
	if err := sw.finish(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := syncDir(path); err != nil {
		return 0, err
	}
	return sw.payload, nil
}

// snapChunkScanner iterates the chunk frames of a v2 snapshot. next returns
// each chunk's payload, io.EOF at a valid end marker with nothing after it,
// and any other error on a torn or corrupt frame. The returned payload
// aliases an internal buffer reused by the next call.
type snapChunkScanner struct {
	r   *bufio.Reader
	buf []byte
}

func newSnapChunkScanner(r io.Reader) *snapChunkScanner {
	return &snapChunkScanner{r: bufio.NewReaderSize(r, 64<<10)}
}

func (sc *snapChunkScanner) next() ([]byte, error) {
	payload, err := frame.ReadFixed(sc.r, maxSnapChunk, snapEnd, &sc.buf)
	switch err {
	case nil:
		return payload, nil
	case frame.ErrEnd:
		// Nothing may follow the end marker; trailing bytes mean the file is
		// not what the writer produced.
		if _, err := sc.r.ReadByte(); err != io.EOF {
			return nil, fmt.Errorf("storage: snapshot has trailing data")
		}
		return nil, io.EOF
	case io.EOF: // ended at a chunk boundary, before the end marker
		err = frame.ErrTruncated
	}
	return nil, fmt.Errorf("storage: snapshot: %w", err)
}

// validateSnapV2 scans every chunk of an already-magic-matched v2 snapshot
// stream, requiring intact CRCs and a terminal end marker.
func validateSnapV2(r io.Reader) error {
	sc := newSnapChunkScanner(r)
	for {
		if _, err := sc.next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// snapPayloadReader exposes a validated v2 stream's chunk payloads as one
// contiguous io.Reader for streaming decoders.
type snapPayloadReader struct {
	sc   *snapChunkScanner
	rest []byte
	err  error // sticky: io.EOF once the end marker was read
}

func (pr *snapPayloadReader) Read(p []byte) (int, error) {
	for len(pr.rest) == 0 {
		if pr.err != nil {
			return 0, pr.err
		}
		pr.rest, pr.err = pr.sc.next()
	}
	n := copy(p, pr.rest)
	pr.rest = pr.rest[n:]
	return n, nil
}

// restoreSnapshotFile validates the snapshot at path and loads it into
// state: the file is CRC-scanned end to end (magic and end marker required)
// before a byte reaches the state, preserving Restore's all-or-nothing
// contract, then streamed through RestoreStream when the state supports it
// and buffered into Restore otherwise. Any framing damage — a missing magic,
// truncation at any byte offset, bit rot, a missing end marker — is an
// error, so openShard falls back to an older generation.
func restoreSnapshotFile(path string, state ShardState) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(f, magic); err != nil || !bytes.Equal(magic, []byte(snapMagic)) {
		return fmt.Errorf("storage: snapshot has no %s magic", snapMagic)
	}
	// Pass 1: validate framing without touching the state.
	if err := validateSnapV2(f); err != nil {
		return err
	}
	if _, err := f.Seek(int64(len(snapMagic)), io.SeekStart); err != nil {
		return err
	}
	// Pass 2: decode. The file was just validated, but the reader still
	// re-checks CRCs — a concurrent modification or short read should fail,
	// not feed garbage to the decoder.
	if sr, ok := state.(StreamRestorer); ok {
		return sr.RestoreStream(&snapPayloadReader{sc: newSnapChunkScanner(f)})
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(&snapPayloadReader{sc: newSnapChunkScanner(f)}); err != nil {
		return err
	}
	return state.Restore(buf.Bytes())
}

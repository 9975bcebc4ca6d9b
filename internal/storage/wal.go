// Package storage implements the PMWare Cloud Instance's durable, sharded
// storage engine (DESIGN.md §8). The paper's PCI "stores long term mobility
// patterns" as the system of record; this package provides the substrate
// that makes those patterns survive a crash:
//
//   - an append-only write-ahead log per shard, with CRC32-framed,
//     length-prefixed records and a configurable fsync policy;
//   - periodic snapshot + log compaction (snapshot written via temp file +
//     rename; the old generation is deleted only after the new snapshot is
//     durable);
//   - corruption-tolerant recovery that truncates a torn WAL tail instead
//     of refusing to start.
//
// The engine is generic: shard state is anything implementing ShardState
// (apply a journaled record, encode/decode a snapshot). The typed layer in
// internal/cloud journals its mutations as records and replays them here.
package storage

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/frame"
)

// SyncPolicy controls when WAL appends reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged write is
	// durable. This is the default and the policy the crash-recovery
	// guarantees assume.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per SyncEvery: on the first append an
	// interval or more after the last fsync, and — by the committer's tail
	// timer — one interval after an append that left an unsynced tail. A
	// crash can lose up to one interval of acknowledged writes but never
	// corrupts the log.
	SyncInterval
	// SyncNever leaves flushing to the OS — for simulations and benchmarks
	// where the process, not the machine, is the failure domain.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses the CLI spelling of a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("storage: unknown fsync policy %q (want always, interval, or never)", s)
}

// A WAL record is one fixed-shape frame (internal/frame) with no end marker:
// a torn header, torn payload, or mismatched CRC all read as "the log ends
// here".
const frameHeaderSize = frame.FixedHeaderSize

// MaxRecordSize bounds a single WAL record. Recovery treats a larger length
// prefix as a torn/corrupt tail (a garbage length would otherwise make it
// try to allocate gigabytes).
const MaxRecordSize = 64 << 20

// wal is a single append-only log file. Not safe for concurrent use; in the
// engine exactly one goroutine touches it at a time — the holder of the
// committer's flush mutex, or a rotation/close path that already swapped it
// out of the committer.
type wal struct {
	f        *os.File
	path     string
	policy   SyncPolicy
	every    time.Duration
	lastSync time.Time
	dirty    bool // SyncInterval only: appended since the last fsync
	size     int64
	m        *engineMetrics
	frame    []byte    // reused append buffer
	single   [1][]byte // reused one-record batch for Append
}

// createWAL opens (creating if needed) the log at path for appending.
func createWAL(path string, policy SyncPolicy, every time.Duration, m *engineMetrics) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat wal: %w", err)
	}
	if m == nil {
		m = newEngineMetrics(nil)
	}
	return &wal{f: f, path: path, policy: policy, every: every, size: st.Size(), m: m}, nil
}

// Append journals one record and applies the fsync policy.
func (w *wal) Append(rec []byte) error {
	w.single[0] = rec
	return w.AppendBatch(w.single[:])
}

// AppendBatch journals a group of records as one frame sequence, issued with
// a single Write call and (under SyncAlways) a single fsync — the group
// commit primitive: N coalesced commits cost one write and one sync instead
// of N of each. A crash tears at most the tail of the batch, so replay
// recovers a strict prefix of it in order, never an interleaving.
func (w *wal) AppendBatch(recs [][]byte) error {
	need := 0
	for _, rec := range recs {
		if len(rec) > MaxRecordSize {
			return fmt.Errorf("storage: record of %d bytes exceeds MaxRecordSize", len(rec))
		}
		need += frameHeaderSize + len(rec)
	}
	if need == 0 {
		return nil
	}
	if cap(w.frame) < need {
		w.frame = make([]byte, 0, need)
	}
	w.frame = w.frame[:0]
	for _, rec := range recs {
		w.frame = frame.AppendFixed(w.frame, rec)
	}
	if _, err := w.f.Write(w.frame); err != nil {
		return fmt.Errorf("storage: append wal: %w", err)
	}
	w.size += int64(need)
	w.m.walAppendRecords.Add(uint64(len(recs)))
	w.m.walAppendBytes.Add(uint64(need))
	switch w.policy {
	case SyncAlways:
		return w.Sync()
	case SyncInterval:
		if time.Since(w.lastSync) >= w.every {
			return w.Sync()
		}
		w.dirty = true
	}
	return nil
}

// Sync flushes the log to stable storage.
func (w *wal) Sync() error {
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("storage: sync wal: %w", err)
	}
	w.lastSync = time.Now()
	w.dirty = false
	w.m.fsyncs.Inc()
	w.m.fsyncDur.ObserveDuration(w.lastSync.Sub(start))
	return nil
}

// Close syncs (unless SyncNever) and closes the file.
func (w *wal) Close() error {
	var firstErr error
	if w.policy != SyncNever {
		firstErr = w.Sync()
	}
	if err := w.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// replayReadAhead bounds the buffer replayWAL reads a log through; a smaller
// log gets a buffer of its own size.
const replayReadAhead = 64 << 10

// replayWAL reads every intact record in the log at path, feeding each
// payload to apply, and truncates the file at the first torn or corrupt
// frame (partial header, impossible length, short payload, CRC mismatch).
// Recovery is therefore total: any byte-level prefix of a valid log recovers
// to exactly the records fully contained in it. An apply error is a real
// failure (the record was intact but the state rejected it) and aborts.
// truncated reports whether a torn tail was cut off.
func replayWAL(path string, apply func([]byte) error) (records int, truncated bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("storage: open wal for replay: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, false, fmt.Errorf("storage: stat wal for replay: %w", err)
	}
	// ReadFixed makes two reads a record; through the read-ahead they are
	// not two syscalls. good counts frame sizes, so the read-ahead does not
	// move it.
	br := bufio.NewReaderSize(f, int(min(fi.Size(), replayReadAhead)))

	var good int64 // offset after the last intact record
	var scratch []byte
	torn := false
	for {
		payload, err := frame.ReadFixed(br, MaxRecordSize, 0, &scratch)
		if err != nil {
			torn = err != io.EOF // anything but a clean end at a frame boundary
			break
		}
		if err := apply(payload); err != nil {
			return records, false, fmt.Errorf("storage: replay record %d: %w", records, err)
		}
		good += int64(frameHeaderSize + len(payload))
		records++
	}
	if torn {
		if err := f.Truncate(good); err != nil {
			return records, true, fmt.Errorf("storage: truncate torn wal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return records, true, fmt.Errorf("storage: sync truncated wal: %w", err)
		}
	}
	return records, torn, nil
}

// WriteFileAtomic writes data to path via a temp file in the same directory
// plus rename, fsyncing both the file and the directory, so a crash at any
// point leaves either the old file or the new one — never a torn mix.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(path)
}

// syncDir fsyncs the directory containing path, making a rename or create
// within it durable.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

package cloud

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/trace"
)

// TestTraceBlocksProperty: a trace grown by appends of random sizes (across
// the K-observation block boundaries, through both the live apply and the
// replay decode, with replaces mixed in) is held as blocks that, laid end to
// end, are trace.AppendObservations' element bytes for the whole trace — one
// block per K observations, a checkpoint before every block but the first —
// and decode(from, to) is the whole decode's [from:to] for every pair on
// short traces.
func TestTraceBlocksProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := &modelTraces{r: r, ends: map[string]time.Time{"u": simclock.Epoch}}
		ts := newTraceState()
		var model []trace.GSMObservation
		for step := 0; step < 30; step++ {
			rec := &record{Op: opTraceAppend, UserID: "u"}
			if r.Intn(8) == 0 {
				rec.Op = opTraceReplace
				m.ends["u"] = simclock.Epoch
			}
			n := m.size()
			if r.Intn(4) == 0 {
				n = r.Intn(6 * traceCheckpointEvery)
			}
			rec.Observations = m.batch("u", n)
			var err error
			if r.Intn(2) == 0 {
				err = ts.apply(rec)
			} else {
				err = ts.Apply(encodeRecord(rec))
			}
			if err != nil {
				t.Fatal(err)
			}
			if rec.Op == opTraceReplace {
				model = nil
			}
			model = append(model, canonical(rec.Observations)...)
			checkTraceBlocks(t, fmt.Sprintf("seed %d step %d (%v of %d)", seed, step, rec.Op, n), ts.users["u"], model)
		}
	}
}

func checkTraceBlocks(t *testing.T, step string, u *userTrace, model []trace.GSMObservation) {
	t.Helper()
	var e frame.Encoder
	trace.AppendObservations(&e, model)
	_, w := binary.Uvarint(e.Buf)
	if got, want := bytes.Join(u.blocks, nil), e.Buf[w:]; !bytes.Equal(got, want) {
		t.Fatalf("after %s: blocks hold %d bytes unlike the %d of the encoded trace", step, len(got), len(want))
	}
	nb := (len(model) + traceCheckpointEvery - 1) / traceCheckpointEvery
	if u.n != len(model) || len(u.blocks) != nb || len(u.ckpts) != max(nb-1, 0) {
		t.Fatalf("after %s: %d observations in %d blocks with %d checkpoints, model %d", step, u.n, len(u.blocks), len(u.ckpts), len(model))
	}
	if whole := u.decode(nil, 0, u.n); !slices.Equal(whole, model) {
		t.Fatalf("after %s: the whole trace decodes unlike the model", step)
	}
	if len(model) > 2*traceCheckpointEvery+2 {
		return
	}
	for from := 0; from <= len(model); from++ {
		for to := from; to <= len(model); to++ {
			if got := u.decode(nil, from, to); !slices.Equal(got, model[from:to]) {
				t.Fatalf("after %s: decode(%d, %d) of %d is unlike the model", step, from, to, len(model))
			}
		}
	}
}

// traceHeavyStore writes a store of users whose traces grow by many small
// appends, the way streaming ingest journals them, and returns a copy of its
// data directory taken before Close could compact it — every append is still
// in a WAL — and the bytes its traces encode to.
func traceHeavyStore(tb testing.TB, users, appends int) (string, int) {
	dir := tb.TempDir()
	s, err := OpenStore(dir, traceHeavyConfig())
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	r := rand.New(rand.NewSource(1))
	m := &modelTraces{r: r, ends: map[string]time.Time{}}
	var uids []string
	for i := 0; i < users; i++ {
		reg, err := s.Register(fmt.Sprintf("imei-%d", i), "replay@test")
		if err != nil {
			tb.Fatal(err)
		}
		uids = append(uids, reg.UserID)
		m.ends[reg.UserID] = simclock.Epoch
	}
	for i := 0; i < appends; i++ {
		uid := uids[r.Intn(len(uids))]
		if _, err := s.AppendTrace(uid, m.batch(uid, 1+r.Intn(traceCheckpointEvery))); err != nil {
			tb.Fatal(err)
		}
	}
	size := 0
	for _, ts := range s.traces {
		b, err := ts.Snapshot()
		if err != nil {
			tb.Fatal(err)
		}
		size += len(b)
	}
	journal := tb.TempDir()
	copyTree(tb, dir, journal)
	return journal, size
}

func traceHeavyConfig() StoreConfig {
	return StoreConfig{Shards: 2, Sync: storage.SyncNever, CompactEvery: -1}
}

// TestTraceReplayAllocs: reopening a store rebuilds its traces from their
// journaled appends without materialising each record's observations or
// re-copying a trace as it grows, so the reopen allocates at most twice the
// bytes the traces encode to.
func TestTraceReplayAllocs(t *testing.T) {
	dir, size := traceHeavyStore(t, 8, 3000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := OpenStore(dir, traceHeavyConfig())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	alloc := after.TotalAlloc - before.TotalAlloc
	if ratio := float64(alloc) / float64(size); ratio > 2 {
		t.Fatalf("reopen allocated %d bytes for %d bytes of trace: %.2fx, over 2x", alloc, size, ratio)
	}
	t.Logf("reopen allocated %d bytes for %d bytes of trace: %.2fx", alloc, size, float64(alloc)/float64(size))
}

// BenchmarkTraceReplay times reopening a store whose traces are many small
// appends, all replayed from the WAL.
func BenchmarkTraceReplay(b *testing.B) {
	journal, size := traceHeavyStore(b, 8, 3000)
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		copyTree(b, journal, dir)
		b.StartTimer()
		s, err := OpenStore(dir, traceHeavyConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

package cloud

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/world"
)

// The resident trace representation (tracestate.go) against a reference
// model: each user's trace as a plain []GSMObservation. Random sequences of
// every trace mutation the store makes — stream appends, deltas, retried
// deltas with overlap, full replaces, identical no-op replaces, drops,
// snapshot → restore — run against both, and after every step:
//   - every suffix decode [from, n) equals model[from:];
//   - TraceStatusFor is (len(model), TraceHash(model));
//   - each trace shard's Snapshot() is what the record codec writes for the
//     model, so every snapshot record is byte-identical to
//     encodeRecord(&record{Op: opTraceReplace, ..., Observations: model});
//   - the resync/handoff export carries that same record, and applying the
//     export to fresh shards rebuilds the same snapshot.
//
// Batch sizes straddle the checkpoint interval: 0, 1, K-1, K and K+1 as well
// as random ones.

// modelTraces drives one Store and keeps the model beside it.
type modelTraces struct {
	t     *testing.T
	r     *rand.Rand
	s     *Store
	model map[string][]trace.GSMObservation // canonical (instant) form
	sent  map[string][]trace.GSMObservation // as uploaded: zoned timestamps
	ends  map[string]time.Time
	cell  world.CellID
}

var checkpointBatches = []int{0, 1, traceCheckpointEvery - 1, traceCheckpointEvery, traceCheckpointEvery + 1}

// batch returns n observations continuing uid's trace, in a zone other than
// UTC and with cells that move in every field, up and down.
func (m *modelTraces) batch(uid string, n int) []trace.GSMObservation {
	zone := time.FixedZone("IST", 19800)
	obs := make([]trace.GSMObservation, n)
	at := m.ends[uid]
	for i := range obs {
		at = at.Add(time.Duration(m.r.Int63n(int64(10 * time.Minute))))
		switch m.r.Intn(5) {
		case 0:
			m.cell.CID = m.r.Intn(70000)
		case 1:
			m.cell = world.CellID{MCC: 400 + m.r.Intn(20), MNC: m.r.Intn(99), LAC: m.r.Intn(9000), CID: m.r.Intn(70000)}
		}
		obs[i] = trace.GSMObservation{At: at.In(zone), Cell: m.cell, SignalDBM: -40 - 70*m.r.Float64()}
	}
	m.ends[uid] = at
	return obs
}

func (m *modelTraces) size() int {
	if m.r.Intn(2) == 0 {
		return checkpointBatches[m.r.Intn(len(checkpointBatches))]
	}
	return m.r.Intn(3 * traceCheckpointEvery)
}

func canonical(obs []trace.GSMObservation) []trace.GSMObservation {
	out := make([]trace.GSMObservation, len(obs))
	for i, o := range obs {
		o.At = instant(o.At)
		out[i] = o
	}
	return out
}

func (m *modelTraces) extend(uid string, obs []trace.GSMObservation) {
	m.model[uid] = append(m.model[uid], canonical(obs)...)
	m.sent[uid] = append(m.sent[uid], obs...)
}

func (m *modelTraces) replace(uid string, obs []trace.GSMObservation) {
	m.model[uid], m.sent[uid] = canonical(obs), slices.Clone(obs)
}

// step makes one random mutation; it returns its name for failure messages.
func (m *modelTraces) step(uid string) string {
	t := m.t
	t.Helper()
	have := m.model[uid]
	k := m.r.Intn(8)
	if k < 7 {
		// Every op but a drop creates the user's (empty) trace first.
		m.model[uid], m.sent[uid] = have, m.sent[uid]
	}
	switch k {
	case 0, 1: // stream append
		obs := m.batch(uid, m.size())
		st, err := m.s.AppendTrace(uid, obs)
		if err != nil {
			t.Fatal(err)
		}
		m.extend(uid, obs)
		if st.Len != int64(len(m.model[uid])) {
			t.Fatalf("stream append: len %d, model %d", st.Len, len(m.model[uid]))
		}
		return fmt.Sprintf("stream append of %d", len(obs))
	case 2, 3: // delta
		obs := m.batch(uid, m.size())
		_, n, err := m.s.SyncTrace(uid, true, int64(len(have)), TraceHash(have), obs)
		if err != nil || n != len(obs) {
			t.Fatalf("delta of %d: appended %d, %v", len(obs), n, err)
		}
		m.extend(uid, obs)
		return fmt.Sprintf("delta of %d", len(obs))
	case 4: // a retried delta: the cursor is behind, the upload overlaps
		cursor := len(have) - m.r.Intn(min(len(have), 2*traceCheckpointEvery+2)+1)
		obs := m.batch(uid, m.size())
		upload := append(slices.Clone(m.sent[uid][cursor:]), obs...)
		_, n, err := m.s.SyncTrace(uid, true, int64(cursor), TraceHash(have[:cursor]), upload)
		if err != nil || n != len(obs) {
			t.Fatalf("retried delta at %d of %d: appended %d of %d, %v", cursor, len(have), n, len(obs), err)
		}
		m.extend(uid, obs)
		return fmt.Sprintf("retried delta at %d/%d with %d new", cursor, len(have), len(obs))
	case 5: // full replace
		m.ends[uid] = simclock.Epoch.Add(time.Duration(m.r.Int63n(int64(time.Hour))))
		obs := m.batch(uid, m.size()+m.r.Intn(2)*m.size())
		if _, _, err := m.s.SyncTrace(uid, false, 0, 0, obs); err != nil {
			t.Fatal(err)
		}
		m.replace(uid, obs)
		return fmt.Sprintf("replace with %d", len(obs))
	case 6: // an identical full upload changes nothing, generation included
		before := m.s.TraceStatusFor(uid)
		st, n, err := m.s.SyncTrace(uid, false, 0, 0, m.sent[uid])
		if before.Gen == 0 { // there was no trace: it now exists, empty
			before.Gen = st.Gen
		}
		if err != nil || n != 0 || st != before {
			t.Fatalf("identical replace: %+v appended %d, %v; before %+v", st, n, err, before)
		}
		return "identical replace"
	default: // drop
		idx, ts := m.s.traceFor(uid)
		err := m.s.eng.Mutate(idx, func() ([]byte, error) {
			rec := &record{Op: opTraceDrop, UserID: uid}
			return encodeRecord(rec), ts.apply(rec)
		})
		if err != nil {
			t.Fatal(err)
		}
		delete(m.model, uid)
		delete(m.sent, uid)
		return "drop"
	}
}

// restore rebuilds every trace shard from its own snapshot, which leaves
// empty traces out.
func (m *modelTraces) restore() {
	for uid, obs := range m.model {
		if len(obs) == 0 {
			delete(m.model, uid)
			delete(m.sent, uid)
		}
	}
	for i, ts := range m.s.traces {
		b, err := ts.Snapshot()
		if err != nil {
			m.t.Fatal(err)
		}
		err = m.s.eng.Mutate(1+len(m.s.data)+i, func() ([]byte, error) { return nil, ts.Restore(b) })
		if err != nil {
			m.t.Fatal(err)
		}
	}
}

// check compares the store with the model after step.
func (m *modelTraces) check(uids []string, step string) {
	t := m.t
	t.Helper()
	for _, uid := range uids {
		want := m.model[uid]
		if st := m.s.TraceStatusFor(uid); st.Len != int64(len(want)) || st.Hash != TraceHash(want) {
			t.Fatalf("after %s: %s status (%d, %#x), model (%d, %#x)", step, uid, st.Len, st.Hash, len(want), TraceHash(want))
		}
		froms := []int{0, 1, len(want) - 1, len(want), len(want) + 1, m.r.Intn(len(want) + 1)}
		for _, k := range checkpointBatches {
			froms = append(froms, k, len(want)-k)
		}
		m.s.viewTrace(uid, func(v *traceView) {
			for _, from := range froms {
				if from < 0 || from > len(want) {
					continue
				}
				if got := v.From(from); !slices.Equal(got, want[from:]) {
					t.Fatalf("after %s: %s decodes [%d, %d) to %d observations unlike the model's %d", step, uid, from, len(want), len(got), len(want)-from)
				}
			}
		})
	}

	// Snapshots: per shard, the records the codec writes for the model.
	for i, ts := range m.s.traces {
		var ids []string
		for uid, obs := range m.model {
			if m.s.traceShard(uid) == 1+len(m.s.data)+i && len(obs) > 0 {
				ids = append(ids, uid)
			}
		}
		var want bytes.Buffer
		err := writeSnapshot(&want, ids, func(dst []byte, id string) []byte {
			return append(dst, encodeRecord(&record{Op: opTraceReplace, UserID: id, Observations: m.model[id]})...)
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := ts.Snapshot(); err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("after %s: trace shard %d snapshots to %d bytes unlike the model's %d (%v)", step, i, len(got), want.Len(), err)
		}
	}

	// Export: one trace record per user, and it rebuilds the same shards.
	m.s.gate.Lock()
	recs, err := m.s.exportUsersLocked(func(string) bool { return true })
	m.s.gate.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([]*traceState, len(m.s.traces))
	for i := range fresh {
		fresh[i] = newTraceState()
	}
	for _, sr := range recs {
		if sr.Shard <= len(m.s.data) {
			continue
		}
		rec, err := decodeRecord(sr.Rec)
		if err != nil {
			t.Fatal(err)
		}
		want := encodeRecord(&record{Op: opTraceDrop, UserID: rec.UserID})
		if _, ok := m.model[rec.UserID]; ok {
			want = encodeRecord(&record{Op: opTraceReplace, UserID: rec.UserID, Observations: m.model[rec.UserID]})
		}
		if !bytes.Equal(sr.Rec, want) {
			t.Fatalf("after %s: %s exports a %v record unlike the model's", step, rec.UserID, rec.Op)
		}
		if err := fresh[sr.Shard-1-len(m.s.data)].Apply(sr.Rec); err != nil {
			t.Fatal(err)
		}
	}
	for i, ts := range fresh {
		got, _ := ts.Snapshot()
		live, _ := m.s.traces[i].Snapshot()
		if !bytes.Equal(got, live) {
			t.Fatalf("after %s: trace shard %d rebuilt from the export snapshots differently", step, i)
		}
	}
}

func TestTraceStateModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		m := &modelTraces{
			t: t, r: rand.New(rand.NewSource(seed)), s: NewStore(nil),
			model: map[string][]trace.GSMObservation{},
			sent:  map[string][]trace.GSMObservation{},
			ends:  map[string]time.Time{},
		}
		var uids []string
		for i := 0; i < 3; i++ {
			reg, err := m.s.Register(fmt.Sprintf("imei-%d", i), "model@test")
			if err != nil {
				t.Fatal(err)
			}
			uids = append(uids, reg.UserID)
			m.ends[reg.UserID] = simclock.Epoch
		}
		for i := 0; i < 60; i++ {
			step := m.step(uids[m.r.Intn(len(uids))])
			if m.r.Intn(6) == 0 {
				m.restore()
				step += ", then snapshot → restore"
			}
			m.check(uids, fmt.Sprintf("seed %d step %d (%s)", seed, i, step))
		}
	}
}

// TestShardHashMatchesFNV: placement is hash/fnv's FNV-1a-32, so data
// directories written before the inline hash keep their users on the same
// shards — and computing it allocates nothing.
func TestShardHashMatchesFNV(t *testing.T) {
	ids := []string{"", "a", "user-0001", "user-0263", "u0000000000000000", "imei|mail@example.org", "ü-ñ-日本"}
	for i := 0; i < 200; i++ {
		ids = append(ids, fmt.Sprintf("u%016x", uint64(i)*0x9e3779b97f4a7c15))
	}
	for _, id := range ids {
		h := fnv.New32a()
		h.Write([]byte(id))
		if got, want := shardHash(id), h.Sum32(); got != want {
			t.Fatalf("shardHash(%q) = %#x, hash/fnv says %#x", id, got, want)
		}
	}
	s := NewStore(nil)
	if n := testing.AllocsPerRun(100, func() { _ = s.dataShard("user-0042") + s.traceShard("user-0042") }); n != 0 {
		t.Fatalf("shard placement allocates %.0f times per call", n)
	}
}

// benchTraceView times one read of a 2 000-observation trace, built by
// day-sized deltas the way nightly sync grows it, decoding from the
// observation suffix(n) names.
func benchTraceView(b *testing.B, suffix func(n int) int) {
	s := NewStore(nil)
	obs := synthDays(19)[:2000]
	for day := 0; day < len(obs); day += 110 {
		have := obs[:day]
		if _, _, err := s.SyncTrace("u", true, int64(len(have)), TraceHash(have), obs[day:min(day+110, len(obs))]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.viewTrace("u", func(v *traceView) {
			if got := v.From(suffix(int(v.Len))); len(got) != int(v.Len)-suffix(int(v.Len)) {
				b.Fatalf("decoded %d observations", len(got))
			}
		})
	}
}

// BenchmarkTraceViewTail is the incremental discovery/stream read: the
// 64-observation suffix past a cached pipeline's length.
func BenchmarkTraceViewTail(b *testing.B) { benchTraceView(b, func(n int) int { return n - 64 }) }

// BenchmarkTraceViewCold is a pipeline rebuild's read: the whole trace.
func BenchmarkTraceViewCold(b *testing.B) { benchTraceView(b, func(int) int { return 0 }) }

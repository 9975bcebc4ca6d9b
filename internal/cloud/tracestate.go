package cloud

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/frame"
	"repro/internal/trace"
	"repro/internal/world"
)

// This file is the journaling side of the per-user GSM trace keyspace: the
// server-side half of the delta sync protocol. Traces live on shards of
// their own in the store's engine (D+1 … 2D), so a compaction of a user's
// places and profiles never rewrites the user's trace. The record it applies
// is record.go's.

// traceCheckpointEvery is K: a trace keeps its delta-chain position before
// every K-th observation, so decoding a suffix parses at most K-1
// observations it does not return.
const traceCheckpointEvery = 64

// traceCheckpoint is the chain position before one observation of a run.
type traceCheckpoint struct {
	off  int          // the observation's byte offset in the run
	ns   int64        // the previous observation's instant (UnixNano)
	cell world.CellID // and cell
}

// userTrace is one user's persisted trace, held as its own encoding, plus
// the derived state the delta protocol needs: the chained hash of the whole
// trace and a generation that bumps on every wholesale replace, so cached
// discovery pipelines built over a previous generation can never be extended
// across a rewrite. The run only ever grows in place (append) or is swapped
// for a fresh one (replace), which is what lets a snapshot view share it.
type userTrace struct {
	// run is the trace's element bytes: exactly what trace.AppendObservations
	// writes after its count, chained from time 0 and the zero cell.
	run    []byte
	n      int               // observations in run
	lastNs int64             // the last observation's instant and
	last   world.CellID      // cell: where the next append's chain continues
	ckpts  []traceCheckpoint // ckpts[j-1] is the position before observation j*K
	hash   uint64            // TraceHash of the trace, maintained incrementally
	gen    uint64            // replace generation; derived, never journaled
}

func (u *userTrace) status() TraceStatus {
	return TraceStatus{Len: int64(u.n), Hash: u.hash, Gen: u.gen}
}

// extend encodes obs onto the end of the run, checkpointing every K-th
// observation. Instants are all the encoding keeps, so the trace's copy of
// an upload is canonical (instant) by construction.
func (u *userTrace) extend(obs []trace.GSMObservation) {
	e := frame.Encoder{Buf: u.run}
	e.SetChain(u.lastNs)
	for len(obs) > 0 {
		if u.n > 0 && u.n%traceCheckpointEvery == 0 {
			u.ckpts = append(u.ckpts, traceCheckpoint{off: len(e.Buf), ns: u.lastNs, cell: u.last})
		}
		k := min(len(obs), traceCheckpointEvery-u.n%traceCheckpointEvery)
		trace.AppendObservationElems(&e, &u.last, obs[:k])
		u.n += k
		u.lastNs = obs[k-1].At.UnixNano()
		obs = obs[k:]
	}
	u.run = e.Buf
}

// decode appends observations [from, to) of the trace to dst, starting at
// the last checkpoint at or before from.
func (u *userTrace) decode(dst []trace.GSMObservation, from, to int) []trace.GSMObservation {
	if from >= to {
		return dst
	}
	j := from / traceCheckpointEvery
	var cp traceCheckpoint
	if j > 0 {
		cp = u.ckpts[j-1]
	}
	d := frame.NewDecoder(u.run[cp.off:])
	d.SetChain(cp.ns)
	base := j * traceCheckpointEvery
	dst = trace.DecodeObservationElems(d, &cp.cell, dst, from-base, to-base)
	if d.Err() != nil {
		panic(fmt.Sprintf("cloud: resident trace run does not decode: %v", d.Err()))
	}
	return dst
}

// traceView is one user's trace as viewTrace hands it out: its position,
// and suffix decodes into a buffer pooled with the view. It is valid only
// until released.
type traceView struct {
	TraceStatus
	u   *userTrace // nil: no trace persisted
	buf []trace.GSMObservation
}

var viewPool = sync.Pool{New: func() any { return new(traceView) }}

// maxPooledObs bounds the buffer a pooled view keeps: one outsized trace must
// not pin its decode buffer for good.
const maxPooledObs = 1 << 16

// openView returns a pooled view of u (nil: no trace).
func openView(u *userTrace) *traceView {
	v := viewPool.Get().(*traceView)
	v.TraceStatus, v.u = TraceStatus{Hash: EmptyTraceHash()}, u
	if u != nil {
		v.TraceStatus = u.status()
	}
	return v
}

func (v *traceView) release() {
	v.u = nil
	if cap(v.buf) > maxPooledObs {
		v.buf = nil
	}
	viewPool.Put(v)
}

// From returns observations [from, Len) of the trace. The slice is reused by
// the view's next decode and recycled with the view: the caller must neither
// retain nor mutate it.
func (v *traceView) From(from int) []trace.GSMObservation { return v.decode(from, int(v.Len)) }

// decode returns observations [from, to) in the view's buffer.
func (v *traceView) decode(from, to int) []trace.GSMObservation {
	if v.u == nil {
		return nil
	}
	v.buf = v.u.decode(v.buf[:0], from, to)
	return v.buf
}

// traceState is one shard of the trace keyspace.
type traceState struct {
	users   map[string]*userTrace
	gens    uint64 // shard-wide generation source; only ever grows
	scratch []byte // replace's encode buffer; apply runs under the shard lock
}

func newTraceState() *traceState {
	return &traceState{users: map[string]*userTrace{}}
}

func (t *traceState) ensure(userID string) *userTrace {
	u := t.users[userID]
	if u == nil {
		t.gens++
		u = &userTrace{hash: EmptyTraceHash(), gen: t.gens}
		t.users[userID] = u
	}
	return u
}

// apply is the single mutation path: live SyncTrace calls and crash-recovery
// replay both go through it.
func (t *traceState) apply(rec *record) error {
	switch rec.Op {
	case opTraceAppend:
		u := t.ensure(rec.UserID)
		u.extend(rec.Observations)
		u.hash = ExtendTraceHash(u.hash, rec.Observations)
	case opTraceReplace:
		u := t.ensure(rec.UserID)
		t.gens++
		// A fresh run, never the old one's array: a snapshot view may still
		// be reading it. Encoded in scratch, then copied to its exact size.
		fresh := userTrace{run: t.scratch[:0], hash: TraceHash(rec.Observations), gen: t.gens}
		fresh.extend(rec.Observations)
		t.scratch = fresh.run
		fresh.run = bytes.Clone(fresh.run)
		*u = fresh
	case opTraceDrop:
		delete(t.users, rec.UserID)
		t.gens++
	default:
		return fmt.Errorf("cloud: trace shard cannot apply a %v record", rec.Op)
	}
	return nil
}

func (t *traceState) Apply(b []byte) error { return applyEncoded(b, t.apply) }

func (t *traceState) Snapshot() ([]byte, error) { return snapshotBytes(t) }

func (t *traceState) Restore(b []byte) error { return t.RestoreStream(bytes.NewReader(b)) }

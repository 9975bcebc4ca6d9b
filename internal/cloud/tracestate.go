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

// traceCheckpointEvery is K: a trace is stored in blocks of K observations
// and keeps its delta-chain position before each block, so decoding a suffix
// parses at most K-1 observations it does not return.
const traceCheckpointEvery = 64

// traceCheckpoint is the chain position before one block of a trace.
type traceCheckpoint struct {
	ns   int64        // the previous observation's instant (UnixNano)
	cell world.CellID // and cell
}

// userTrace is one user's persisted trace, held as its own encoding, plus
// the derived state the delta protocol needs: the chained hash of the whole
// trace and a generation that bumps on every wholesale replace, so cached
// discovery pipelines built over a previous generation can never be extended
// across a rewrite. Only the last block ever grows in place (append), and a
// replace swaps in fresh blocks, which is what lets a snapshot view share
// them.
type userTrace struct {
	// blocks[j] holds the elements of observations [jK, jK+K), all encoded
	// on one chain from time 0 and the zero cell: laid end to end, the
	// blocks are exactly what trace.AppendObservations writes after its
	// count. A trace grows block by block, so no append copies what an
	// earlier one encoded.
	blocks [][]byte
	n      int               // observations in blocks
	lastNs int64             // the last observation's instant and
	last   world.CellID      // cell: where the next append's chain continues
	ckpts  []traceCheckpoint // ckpts[j-1] is the position before blocks[j]
	hash   uint64            // TraceHash of the trace, maintained incrementally
	gen    uint64            // replace generation; derived, never journaled
}

func (u *userTrace) status() TraceStatus {
	return TraceStatus{Len: int64(u.n), Hash: u.hash, Gen: u.gen}
}

// extend encodes obs onto the end of the trace, opening a block (and a
// checkpoint) at every K-th observation. Instants are all the encoding
// keeps, so the trace's copy of an upload is canonical (instant) by
// construction.
func (u *userTrace) extend(obs []trace.GSMObservation) {
	for len(obs) > 0 {
		if u.n%traceCheckpointEvery == 0 {
			var b []byte
			if j := len(u.blocks); j > 0 {
				u.ckpts = append(u.ckpts, traceCheckpoint{ns: u.lastNs, cell: u.last})
				// Size the block like the one before it, with an eighth to
				// spare for observations that encode longer.
				prev := len(u.blocks[j-1])
				b = make([]byte, 0, prev+prev/8)
			}
			u.blocks = append(u.blocks, b)
		}
		k := min(len(obs), traceCheckpointEvery-u.n%traceCheckpointEvery)
		b := &u.blocks[len(u.blocks)-1]
		e := frame.Encoder{Buf: *b}
		e.SetChain(u.lastNs)
		trace.AppendObservationElems(&e, &u.last, obs[:k])
		*b = e.Buf
		u.n += k
		u.lastNs = obs[k-1].At.UnixNano()
		obs = obs[k:]
	}
}

// decode appends observations [from, to) of the trace to dst, starting at
// the block that holds from.
func (u *userTrace) decode(dst []trace.GSMObservation, from, to int) []trace.GSMObservation {
	if from >= to {
		return dst
	}
	for j := from / traceCheckpointEvery; j*traceCheckpointEvery < to; j++ {
		var cp traceCheckpoint
		if j > 0 {
			cp = u.ckpts[j-1]
		}
		d := frame.NewDecoder(u.blocks[j])
		d.SetChain(cp.ns)
		base := j * traceCheckpointEvery
		dst = trace.DecodeObservationElems(d, &cp.cell, dst, max(from-base, 0), min(to-base, traceCheckpointEvery))
		if d.Err() != nil {
			panic(fmt.Sprintf("cloud: resident trace block %d does not decode: %v", j, d.Err()))
		}
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
	users map[string]*userTrace
	gens  uint64 // shard-wide generation source; only ever grows
	// rec is Apply's decode target. Apply runs under the shard lock, and
	// apply never retains a record's observations, so replay decodes every
	// record into it and its one observation array.
	rec record
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
// replay both go through it. It encodes rec.Observations and never retains
// them.
func (t *traceState) apply(rec *record) error {
	switch rec.Op {
	case opTraceAppend:
		u := t.ensure(rec.UserID)
		u.extend(rec.Observations)
		u.hash = ExtendTraceHash(u.hash, rec.Observations)
	case opTraceReplace:
		u := t.ensure(rec.UserID)
		t.gens++
		// Fresh blocks, never the old ones: a snapshot view may still be
		// reading them.
		*u = userTrace{hash: TraceHash(rec.Observations), gen: t.gens}
		u.extend(rec.Observations)
	case opTraceDrop:
		delete(t.users, rec.UserID)
		t.gens++
	default:
		return fmt.Errorf("cloud: trace shard cannot apply a %v record", rec.Op)
	}
	return nil
}

// maxKeptObs bounds the observation array a trace shard keeps for its next
// Apply: day-sized appends reuse it, and one outsized replace must not pin
// its array for good.
const maxKeptObs = 1 << 12

func (t *traceState) Apply(b []byte) error {
	if cap(t.rec.Observations) > maxKeptObs {
		t.rec.Observations = nil
	}
	if err := t.rec.decode(b); err != nil {
		return err
	}
	return t.apply(&t.rec)
}

func (t *traceState) Snapshot() ([]byte, error) { return snapshotBytes(t) }

func (t *traceState) Restore(b []byte) error { return t.RestoreStream(bytes.NewReader(b)) }

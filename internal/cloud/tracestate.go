package cloud

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/trace"
)

// This file is the journaling side of the per-user GSM trace keyspace: the
// server-side half of the delta sync protocol. Traces live in their own
// storage engine (under <data-dir>/traces) so trace churn never competes with
// place/profile writes for a WAL. The record it applies is record.go's.

// userTrace is one user's persisted trace plus the derived state the delta
// protocol needs: the chained hash of the whole trace and a generation that
// bumps on every wholesale replace, so cached discovery pipelines built over
// a previous generation can never be extended across a rewrite.
type userTrace struct {
	obs  []trace.GSMObservation
	hash uint64 // TraceHash(obs), maintained incrementally
	gen  uint64 // replace generation; derived, never journaled
}

// traceState is one shard of the trace keyspace.
type traceState struct {
	users map[string]*userTrace
	gens  uint64 // shard-wide generation source; only ever grows
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

// appendInstants appends obs to dst with every timestamp canonicalised
// (instant): the trace's copy of an upload is where its record is built from.
func appendInstants(dst, obs []trace.GSMObservation) []trace.GSMObservation {
	dst = slices.Grow(dst, len(obs))
	for _, o := range obs {
		o.At = instant(o.At)
		dst = append(dst, o)
	}
	return dst
}

// apply is the single mutation path: live SyncTrace calls and crash-recovery
// replay both go through it.
func (t *traceState) apply(rec *record) error {
	switch rec.Op {
	case opTraceAppend:
		u := t.ensure(rec.UserID)
		u.obs = appendInstants(u.obs, rec.Observations)
		u.hash = ExtendTraceHash(u.hash, rec.Observations)
	case opTraceReplace:
		u := t.ensure(rec.UserID)
		u.obs = appendInstants(nil, rec.Observations)
		u.hash = TraceHash(u.obs)
		t.gens++
		u.gen = t.gens
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

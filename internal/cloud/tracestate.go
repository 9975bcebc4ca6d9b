package cloud

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/trace"
)

// This file is the journaling side of the per-user GSM trace keyspace: the
// server-side half of the delta sync protocol. Traces live in their own
// storage engine (under <data-dir>/traces) so adding the keyspace never
// disturbs the main engine's manifest-pinned shard layout on existing data
// directories.

// Trace WAL op codes. These are a persistence format: renaming one breaks
// replay of existing data directories.
const (
	opTraceAppend  = "trace_append"  // extend the user's trace
	opTraceReplace = "trace_replace" // replace it wholesale (full upload)
	opTraceDrop    = "trace_drop"    // cluster handoff: remove the user's trace
)

// traceRecord is the journaled form of every trace mutation.
type traceRecord struct {
	Op           string                 `json:"op"`
	UserID       string                 `json:"user_id"`
	Observations []trace.GSMObservation `json:"observations"`
}

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

// apply is the single mutation path: live SyncTrace calls and crash-recovery
// replay both go through it.
func (t *traceState) apply(rec *traceRecord) error {
	switch rec.Op {
	case opTraceAppend:
		u := t.ensure(rec.UserID)
		u.obs = append(u.obs, rec.Observations...)
		u.hash = ExtendTraceHash(u.hash, rec.Observations)
	case opTraceReplace:
		u := t.ensure(rec.UserID)
		u.obs = append([]trace.GSMObservation(nil), rec.Observations...)
		u.hash = TraceHash(u.obs)
		t.gens++
		u.gen = t.gens
	case opTraceDrop:
		delete(t.users, rec.UserID)
		t.gens++
	default:
		return fmt.Errorf("cloud: trace shard cannot apply op %q", rec.Op)
	}
	return nil
}

func (t *traceState) Apply(b []byte) error {
	var rec traceRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return fmt.Errorf("cloud: decode trace record: %w", err)
	}
	return t.apply(&rec)
}

// traceSnapshot is the persisted form of traceState. Hashes and generations
// are derived and rebuilt on restore.
type traceSnapshot struct {
	Users map[string][]trace.GSMObservation `json:"users"`
}

func (t *traceState) Snapshot() ([]byte, error) {
	snap := traceSnapshot{Users: make(map[string][]trace.GSMObservation, len(t.users))}
	for id, u := range t.users {
		snap.Users[id] = u.obs
	}
	return json.Marshal(snap)
}

func (t *traceState) Restore(b []byte) error { return t.RestoreStream(bytes.NewReader(b)) }

package cloud

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/trace"
)

// ErrTraceConflict reports a delta upload whose cursor/hash claim does not
// match the server's persisted trace. The server answers 409 and the client
// falls back to a full upload.
var ErrTraceConflict = errors.New("cloud: trace cursor conflict")

// TraceStatus is the server's post-sync trace position for one user: the
// cursor acknowledgement returned to the client, plus the replace generation
// the discovery pipeline cache keys on.
type TraceStatus struct {
	Len  int64
	Hash uint64
	Gen  uint64
}

// traceShard maps a user to its trace shard's engine index (D+1 … 2D).
func (s *Store) traceShard(userID string) int {
	return s.dataShard(userID) + len(s.data)
}

func (s *Store) traceFor(userID string) (int, *traceState) {
	idx := s.traceShard(userID)
	return idx, s.traces[idx-1-len(s.data)]
}

// SyncTrace is the server side of the delta sync protocol. A full upload
// (delta false) replaces the user's persisted trace with obs; a delta upload
// claims the server holds a cursor-observation prefix hashing to prefixHash
// and appends the rest. It returns the post-sync status plus how many
// observations were actually appended (0 on deduplicated retries), and
// journals exactly what it appends — WAL-durable, replayed on boot.
//
// Retry safety: a delta whose cursor lies before the persisted length is
// checked observation-by-observation against the overlap and only the
// genuinely new tail is appended, so a client retrying a request whose
// response was lost appends nothing. A full upload identical to the stored
// trace is likewise a no-op (the replace generation is not bumped), keeping
// memoized discovery results valid across retries.
func (s *Store) SyncTrace(userID string, delta bool, cursor int64, prefixHash uint64, obs []trace.GSMObservation) (TraceStatus, int, error) {
	if err := s.admitWrite(userID); err != nil {
		return TraceStatus{}, 0, err
	}
	defer s.gate.RUnlock()
	idx, t := s.traceFor(userID)
	var status TraceStatus
	appended := 0
	err := s.eng.Mutate(idx, func() ([]byte, error) {
		u := t.ensure(userID)
		var rec *record
		if delta {
			tail, err := deltaTail(u, cursor, prefixHash, obs)
			if err != nil {
				return nil, err
			}
			if len(tail) > 0 {
				rec = &record{Op: opTraceAppend, UserID: userID, Observations: tail}
			}
		} else if len(obs) != u.n || TraceHash(obs) != u.hash {
			rec = &record{Op: opTraceReplace, UserID: userID, Observations: obs}
		}
		if rec == nil {
			status = u.status()
			return nil, nil // nothing new: nothing to journal
		}
		if err := t.apply(rec); err != nil {
			return nil, err
		}
		if rec.Op == opTraceAppend {
			appended = len(rec.Observations)
		}
		status = u.status()
		return encodeRecord(rec), nil
	})
	if err != nil {
		return TraceStatus{}, 0, err
	}
	return status, appended, nil
}

// ErrObservationOrder reports a streamed append whose observations would
// break the trace's time order — the invariant every incremental consumer
// (discovery pipelines, event detectors) extends under.
var ErrObservationOrder = errors.New("cloud: observations out of time order")

// AppendTrace extends the user's persisted trace unconditionally — the
// streaming ingest path, where the device ships observations as they happen
// and the cursor dance of SyncTrace would add a round trip per batch. The
// append is journaled through the same opTraceAppend record the delta
// protocol uses, so the chained hash keeps extending and a later delta or
// full sync interoperates. Observations must continue the stored trace's
// time order; a violation appends nothing and returns ErrObservationOrder.
func (s *Store) AppendTrace(userID string, obs []trace.GSMObservation) (TraceStatus, error) {
	if err := s.admitWrite(userID); err != nil {
		return TraceStatus{}, err
	}
	defer s.gate.RUnlock()
	idx, t := s.traceFor(userID)
	var status TraceStatus
	err := s.eng.Mutate(idx, func() ([]byte, error) {
		u := t.ensure(userID)
		if len(obs) == 0 {
			status = u.status()
			return nil, nil
		}
		last := obs[0].At
		if u.n > 0 {
			last = time.Unix(0, u.lastNs).UTC()
		}
		for i := range obs {
			if obs[i].At.Before(last) {
				return nil, fmt.Errorf("%w: observation %d at %s precedes %s",
					ErrObservationOrder, i, obs[i].At, last)
			}
			last = obs[i].At
		}
		rec := &record{Op: opTraceAppend, UserID: userID, Observations: obs}
		if err := t.apply(rec); err != nil {
			return nil, err
		}
		status = u.status()
		return encodeRecord(rec), nil
	})
	if err != nil {
		return TraceStatus{}, err
	}
	return status, nil
}

// deltaTail validates a delta upload against the stored trace and returns
// the observations that genuinely extend it.
func deltaTail(u *userTrace, cursor int64, prefixHash uint64, obs []trace.GSMObservation) ([]trace.GSMObservation, error) {
	have := int64(u.n)
	switch {
	case cursor < 0 || cursor > have:
		return nil, fmt.Errorf("%w: cursor %d, server holds %d observations", ErrTraceConflict, cursor, have)
	case cursor == have:
		if prefixHash != u.hash {
			return nil, fmt.Errorf("%w: prefix hash mismatch at cursor %d", ErrTraceConflict, cursor)
		}
		return obs, nil
	default:
		// Retry path: the server is already past the cursor. Verify the
		// claimed prefix, dedup the overlap, and append only the tail — the
		// one writer that decodes the stored trace, and only this far.
		overlap := min(have-cursor, int64(len(obs)))
		v := openView(u)
		defer v.release()
		stored := v.decode(0, int(cursor+overlap))
		if prefixHash != TraceHash(stored[:cursor]) {
			return nil, fmt.Errorf("%w: prefix hash mismatch at cursor %d", ErrTraceConflict, cursor)
		}
		for i := int64(0); i < overlap; i++ {
			a, b := stored[cursor+i], obs[i]
			if !a.At.Equal(b.At) || a.Cell != b.Cell || a.SignalDBM != b.SignalDBM {
				return nil, fmt.Errorf("%w: overlap diverges at observation %d", ErrTraceConflict, cursor+i)
			}
		}
		return obs[overlap:], nil
	}
}

// viewTrace runs fn with a view of the user's persisted trace under the
// user's trace shard's read lock: its status without decoding anything, and
// suffix decodes (traceView.From) — how the discovery workers and stream
// detectors extend their cached pipelines by only what is new. fn must not
// retain what the view decodes, and must not call back into the store.
func (s *Store) viewTrace(userID string, fn func(v *traceView)) {
	idx, t := s.traceFor(userID)
	s.eng.View(idx, func() {
		v := openView(t.users[userID])
		defer v.release()
		fn(v)
	})
}

// TraceStatusFor returns the user's current trace position (len 0 and the
// empty hash when no trace is persisted).
func (s *Store) TraceStatusFor(userID string) TraceStatus {
	var st TraceStatus
	s.viewTrace(userID, func(v *traceView) { st = v.TraceStatus })
	return st
}

package cloud

import (
	"errors"
	"fmt"
	"hash/fnv"

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

// traceShard maps a user to its trace-engine shard index.
func (s *Store) traceShard(userID string) int {
	h := fnv.New32a()
	h.Write([]byte(userID))
	return int(h.Sum32() % uint32(len(s.traces)))
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
	idx := s.traceShard(userID)
	t := s.traces[idx]
	var status TraceStatus
	appended := 0
	err := s.traceEng.Mutate(idx, func() ([]byte, error) {
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
		} else if int64(len(obs)) != int64(len(u.obs)) || TraceHash(obs) != u.hash {
			rec = &record{Op: opTraceReplace, UserID: userID, Observations: obs}
		}
		if rec == nil {
			status = TraceStatus{Len: int64(len(u.obs)), Hash: u.hash, Gen: u.gen}
			return nil, nil // nothing new: nothing to journal
		}
		if err := t.apply(rec); err != nil {
			return nil, err
		}
		if rec.Op == opTraceAppend {
			appended = len(rec.Observations)
		}
		status = TraceStatus{Len: int64(len(u.obs)), Hash: u.hash, Gen: u.gen}
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
	idx := s.traceShard(userID)
	t := s.traces[idx]
	var status TraceStatus
	err := s.traceEng.Mutate(idx, func() ([]byte, error) {
		u := t.ensure(userID)
		if len(obs) == 0 {
			status = TraceStatus{Len: int64(len(u.obs)), Hash: u.hash, Gen: u.gen}
			return nil, nil
		}
		last := obs[0].At
		if len(u.obs) > 0 {
			last = u.obs[len(u.obs)-1].At
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
		status = TraceStatus{Len: int64(len(u.obs)), Hash: u.hash, Gen: u.gen}
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
	have := int64(len(u.obs))
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
		// claimed prefix, dedup the overlap, and append only the tail.
		if prefixHash != TraceHash(u.obs[:cursor]) {
			return nil, fmt.Errorf("%w: prefix hash mismatch at cursor %d", ErrTraceConflict, cursor)
		}
		overlap := have - cursor
		if overlap > int64(len(obs)) {
			overlap = int64(len(obs))
		}
		for i := int64(0); i < overlap; i++ {
			a, b := u.obs[cursor+i], obs[i]
			if !a.At.Equal(b.At) || a.Cell != b.Cell || a.SignalDBM != b.SignalDBM {
				return nil, fmt.Errorf("%w: overlap diverges at observation %d", ErrTraceConflict, cursor+i)
			}
		}
		return obs[overlap:], nil
	}
}

// viewTrace runs fn with the user's live persisted trace under the owning
// trace shard's read lock. The copy-free read path the discovery workers
// extend their pipelines from: fn must not retain or mutate the slice, and
// must not call back into the store.
func (s *Store) viewTrace(userID string, fn func(obs []trace.GSMObservation, hash uint64, gen uint64)) {
	idx := s.traceShard(userID)
	t := s.traces[idx]
	s.traceEng.View(idx, func() {
		u := t.users[userID]
		if u == nil {
			fn(nil, EmptyTraceHash(), 0)
			return
		}
		fn(u.obs, u.hash, u.gen)
	})
}

// TraceStatusFor returns the user's current trace position (len 0 and the
// empty hash when no trace is persisted).
func (s *Store) TraceStatusFor(userID string) TraceStatus {
	var st TraceStatus
	s.viewTrace(userID, func(obs []trace.GSMObservation, hash, gen uint64) {
		st = TraceStatus{Len: int64(len(obs)), Hash: hash, Gen: gen}
	})
	return st
}

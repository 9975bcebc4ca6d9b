package cloud

import (
	"io"
	"maps"
	"slices"
	"sync/atomic"

	"repro/internal/storage"
)

// This file implements the storage engine's off-lock snapshot extensions
// (storage.SnapshotViewer / storage.StreamRestorer, DESIGN.md §16) for the
// three shard-state kinds. A snapshot is per-user records in key order
// (record.go). SnapshotView captures shallow clones of the top-level maps
// under the shard write lock — O(keys), no encoding — and the returned
// encoder writes one user's record at a time off the lock, so the encode
// neither stalls writers nor doubles the shard's memory. RestoreStream applies
// the records to a fresh state, swapped in only when every one decoded.

// appendKeys appends m's keys to keys.
func appendKeys[V any](keys []string, m map[string]V) []string {
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

func (m *metaState) SnapshotView() (func(io.Writer) error, func(), error) {
	// A shallow clone freezes the key set; *User values are never mutated in
	// place after registration, so sharing them with the live map is safe.
	users := maps.Clone(m.users)
	encode := func(w io.Writer) error {
		return writeSnapshot(w, appendKeys(nil, users), func(dst []byte, id string) []byte {
			return appendRecord(dst, &record{Op: opRegister, UserID: id, IMEI: users[id].IMEI, Email: users[id].Email})
		})
	}
	return encode, func() {}, nil
}

func (m *metaState) RestoreStream(r io.Reader) error {
	fresh := newMetaState()
	if err := readSnapshot(r, opRegister, fresh.apply); err != nil {
		return err
	}
	*m = *fresh
	return nil
}

func (d *dataState) SnapshotView() (func(io.Writer) error, func(), error) {
	// Top-level clones freeze each user's entry. Values stay shared with the
	// live state, which is safe against every mutation apply can make while
	// the view is outstanding: whole-value replacement and delete touch only
	// the live (un-cloned) top-level maps; opAddContacts appends past the
	// view's slice length; opLabelPlace clones before writing; and
	// opPutProfile copy-on-writes the inner day map while snapViews > 0 —
	// the one shared structure apply would otherwise write into.
	places := maps.Clone(d.places)
	routes := maps.Clone(d.routes)
	profiles := maps.Clone(d.profiles)
	contacts := maps.Clone(d.contacts)
	views := d.snapViews
	atomic.AddInt32(views, 1)
	encode := func(w io.Writer) error {
		users := appendKeys(appendKeys(appendKeys(appendKeys(nil, places), routes), profiles), contacts)
		return writeSnapshot(w, users, func(dst []byte, id string) []byte {
			return appendRecord(dst, syncUserRecord(id, places[id], routes[id], profiles[id], contacts[id]))
		})
	}
	return encode, func() { atomic.AddInt32(views, -1) }, nil
}

func (d *dataState) RestoreStream(r io.Reader) error {
	fresh := newDataState()
	// ver keeps growing across the restore so no (user, gen) pair issued
	// before it can collide with one issued after.
	fresh.ver = d.ver
	if err := readSnapshot(r, opSyncUser, fresh.apply); err != nil {
		return err
	}
	*d = *fresh
	return nil
}

func (t *traceState) SnapshotView() (func(io.Writer) error, func(), error) {
	// Copying each trace's block headers (and count) freezes its length:
	// opTraceAppend only writes past the last block's frozen length (or into
	// a grown array or a new block the copy doesn't reference) and
	// opTraceReplace swaps in fresh blocks, so no copy-on-write flag is
	// needed. The encoder writes the blocks verbatim — laid end to end they
	// are the record's body, so nothing is re-encoded. An empty trace
	// restores to nothing and is left out.
	type frozen struct {
		n      int
		blocks [][]byte
	}
	users := make(map[string]frozen, len(t.users))
	for id, u := range t.users {
		if u.n > 0 {
			users[id] = frozen{u.n, slices.Clone(u.blocks)}
		}
	}
	encode := func(w io.Writer) error {
		return writeSnapshot(w, appendKeys(nil, users), func(dst []byte, id string) []byte {
			return appendTraceReplace(dst, id, users[id].n, users[id].blocks)
		})
	}
	return encode, func() {}, nil
}

func (t *traceState) RestoreStream(r io.Reader) error {
	fresh := newTraceState()
	// Generations keep growing across the restore, for the same reason.
	fresh.gens = t.gens
	if err := readSnapshot(r, opTraceReplace, fresh.apply); err != nil {
		return err
	}
	*t = *fresh
	return nil
}

// All three states implement both off-lock snapshot extensions.
var _, _, _ interface {
	storage.SnapshotViewer
	storage.StreamRestorer
} = (*metaState)(nil), (*dataState)(nil), (*traceState)(nil)

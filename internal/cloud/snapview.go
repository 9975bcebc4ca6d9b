package cloud

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"sort"
	"sync/atomic"

	"repro/internal/storage"
	"repro/internal/trace"
)

// This file implements the storage engine's off-lock snapshot extensions
// (storage.SnapshotViewer / storage.StreamRestorer, DESIGN.md §16) for the
// three shard-state kinds. SnapshotView captures shallow clones of the
// top-level maps under the shard write lock — O(keys), no encoding — and the
// returned encoder streams JSON off the lock, marshaling one user's worth of
// data at a time, so snapshot encode neither stalls writers nor doubles the
// shard's memory. RestoreStream decodes straight from the (already
// CRC-validated) snapshot file for the same peak-memory reason.
//
// The encoders must produce exactly the bytes Snapshot() would have produced
// at capture time: cluster equivalence tests compare data directories
// byte-for-byte across primary and follower. That holds because encoding/json
// renders a map as its keys in sorted order — the same order writeJSONMap
// walks — and each key/value here is rendered by json.Marshal itself.

// writeJSONMap streams m to w exactly as json.Marshal would render it
// (keys sorted bytewise), marshaling one entry at a time so peak memory is
// O(largest value), not O(map).
func writeJSONMap[V any](w io.Writer, m map[string]V) error {
	if m == nil {
		_, err := io.WriteString(w, "null")
		return err
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, k := range keys {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		kb, err := json.Marshal(k)
		if err != nil {
			return err
		}
		if _, err := w.Write(kb); err != nil {
			return err
		}
		if _, err := io.WriteString(w, ":"); err != nil {
			return err
		}
		vb, err := json.Marshal(m[k])
		if err != nil {
			return err
		}
		if _, err := w.Write(vb); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}")
	return err
}

// decodeJSONStream decodes exactly one JSON value from r into v, rejecting
// trailing data — the same strictness json.Unmarshal gives the []byte path.
func decodeJSONStream(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("cloud: trailing data after snapshot payload")
	}
	return nil
}

// --- metaState ---

func (m *metaState) SnapshotView() (func(io.Writer) error, func(), error) {
	// Shallow clones freeze the key set; *User values are never mutated in
	// place after registration, so sharing them with the live map is safe.
	users := maps.Clone(m.users)
	byDevice := maps.Clone(m.byDevice)
	encode := func(w io.Writer) error {
		// Field order mirrors metaSnapshot.
		if _, err := io.WriteString(w, `{"users":`); err != nil {
			return err
		}
		if err := writeJSONMap(w, users); err != nil {
			return err
		}
		if _, err := io.WriteString(w, `,"by_device":`); err != nil {
			return err
		}
		if err := writeJSONMap(w, byDevice); err != nil {
			return err
		}
		_, err := io.WriteString(w, "}")
		return err
	}
	return encode, func() {}, nil
}

func (m *metaState) RestoreStream(r io.Reader) error {
	var snap metaSnapshot
	if err := decodeJSONStream(r, &snap); err != nil {
		return fmt.Errorf("cloud: decode meta snapshot: %w", err)
	}
	fresh := newMetaState()
	if snap.Users != nil {
		fresh.users = snap.Users
	}
	if snap.ByDevice != nil {
		fresh.byDevice = snap.ByDevice
	}
	*m = *fresh
	return nil
}

// --- dataState ---

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
		// Field order mirrors dataSnapshot.
		if _, err := io.WriteString(w, `{"places":`); err != nil {
			return err
		}
		if err := writeJSONMap(w, places); err != nil {
			return err
		}
		if _, err := io.WriteString(w, `,"routes":`); err != nil {
			return err
		}
		if err := writeJSONMap(w, routes); err != nil {
			return err
		}
		if _, err := io.WriteString(w, `,"profiles":`); err != nil {
			return err
		}
		if err := writeJSONMap(w, profiles); err != nil {
			return err
		}
		if _, err := io.WriteString(w, `,"contacts":`); err != nil {
			return err
		}
		if err := writeJSONMap(w, contacts); err != nil {
			return err
		}
		_, err := io.WriteString(w, "}")
		return err
	}
	release := func() { atomic.AddInt32(views, -1) }
	return encode, release, nil
}

func (d *dataState) RestoreStream(r io.Reader) error {
	var snap dataSnapshot
	if err := decodeJSONStream(r, &snap); err != nil {
		return fmt.Errorf("cloud: decode data snapshot: %w", err)
	}
	d.install(&snap)
	return nil
}

// --- traceState ---

func (t *traceState) SnapshotView() (func(io.Writer) error, func(), error) {
	// Copying the slice headers freezes each trace's length; opTraceAppend
	// only writes past that length (or swaps in a grown backing array the
	// view doesn't reference) and opTraceReplace swaps in a fresh slice, so
	// no copy-on-write flag is needed.
	users := make(map[string][]trace.GSMObservation, len(t.users))
	for id, u := range t.users {
		users[id] = u.obs
	}
	encode := func(w io.Writer) error {
		// Field order mirrors traceSnapshot.
		if _, err := io.WriteString(w, `{"users":`); err != nil {
			return err
		}
		if err := writeJSONMap(w, users); err != nil {
			return err
		}
		_, err := io.WriteString(w, "}")
		return err
	}
	return encode, func() {}, nil
}

func (t *traceState) RestoreStream(r io.Reader) error {
	var snap traceSnapshot
	if err := decodeJSONStream(r, &snap); err != nil {
		return fmt.Errorf("cloud: decode trace snapshot: %w", err)
	}
	fresh := newTraceState()
	// Generations keep growing across the restore so no (user, gen) pair
	// issued before it can collide with one issued after.
	fresh.gens = t.gens
	for id, obs := range snap.Users {
		fresh.gens++
		fresh.users[id] = &userTrace{obs: obs, hash: TraceHash(obs), gen: fresh.gens}
	}
	*t = *fresh
	return nil
}

// Interface conformance: all three states implement both off-lock snapshot
// extensions.
var (
	_ storage.SnapshotViewer = (*metaState)(nil)
	_ storage.StreamRestorer = (*metaState)(nil)
	_ storage.SnapshotViewer = (*dataState)(nil)
	_ storage.StreamRestorer = (*dataState)(nil)
	_ storage.SnapshotViewer = (*traceState)(nil)
	_ storage.StreamRestorer = (*traceState)(nil)
)

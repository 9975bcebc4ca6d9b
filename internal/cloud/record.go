package cloud

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/frame"
	"repro/internal/profile"
	"repro/internal/storage"
	"repro/internal/trace"
)

// The record codec (DESIGN.md §8, "Record layout"): the one payload inside
// every WAL frame, replication batch, resync, handoff and snapshot. A record
// is
//
//	op byte | uvarint len, user id | body
//
// on internal/frame's field codec, the bodies built from the binary wire's
// encoders (wire.go, trace.AppendObservations). The codec is pure and
// stateless: counts are bounded by the bytes remaining, a zero count decodes
// to nil, trailing bytes are an error, and timestamps are instants (UnixNano,
// decoded as UTC) — which is why every record is built from canonicalised
// timestamps (instant) before it is applied.

// recordFormat is the storage.Options.Format of the store's engine: the
// number MANIFEST.json carries for this record and shard layout. Format 1 (no
// number) was the reflection-JSON records; format 2 was these records in two
// engines, traces under <data-dir>/traces. There is no reader for either.
const recordFormat = 3

// op is a record's first byte. The values are a persistence and replication
// format: renumbering one breaks replay of existing data directories.
type op byte

const (
	opRegister     op = iota + 1 // meta: create the user
	opSetPlaces                  // replace the user's places
	opLabelPlace                 // tag one place
	opSetRoutes                  // replace the user's routes
	opPutProfile                 // upsert one day profile
	opAddContacts                // append encounters
	opSyncUser                   // resync/handoff/snapshot: replace one user's data wholesale
	opDropUser                   // handoff: remove one user's data from this node
	opDropMeta                   // handoff: remove one user's registration
	opTraceAppend                // extend the user's trace
	opTraceReplace               // replace it wholesale (full upload, resync, snapshot)
	opTraceDrop                  // handoff: remove the user's trace
	opEnd                        // first unassigned value
)

var opNames = [opEnd]string{"invalid", "register", "set_places", "label_place", "set_routes", "put_profile",
	"add_contacts", "sync_user", "drop_user", "drop_meta", "trace_append", "trace_replace", "trace_drop"}

func (o op) String() string {
	if o < opEnd {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// record is the journaled form of every Store mutation, one struct for all
// twelve ops; each op reads only its own fields.
type record struct {
	Op     op
	UserID string

	IMEI, Email  string                 // register
	Places       []PlaceWire            // set_places, sync_user
	PlaceID      int                    // label_place
	Label        string                 // label_place
	Routes       []RouteWire            // set_routes, sync_user
	Profile      *profile.DayProfile    // put_profile
	Profiles     []*profile.DayProfile  // sync_user: the whole history, dates strictly ascending
	Encounters   []profile.Encounter    // add_contacts, sync_user
	Observations []trace.GSMObservation // trace_append, trace_replace
}

// appendRecord appends r's encoding to dst.
func appendRecord(dst []byte, r *record) []byte {
	e := frame.Encoder{Buf: append(dst, byte(r.Op))}
	e.String(r.UserID)
	switch r.Op {
	case opRegister:
		e.String(r.IMEI)
		e.String(r.Email)
	case opSetPlaces:
		appendPlaces(&e, r.Places)
	case opLabelPlace:
		e.Varint(int64(r.PlaceID))
		e.String(r.Label)
	case opSetRoutes:
		appendRoutes(&e, r.Routes)
	case opPutProfile:
		appendProfileBody(&e, r.Profile)
	case opAddContacts:
		appendEncounters(&e, &wireTimeChain{}, r.Encounters)
	case opSyncUser:
		appendPlaces(&e, r.Places)
		appendRoutes(&e, r.Routes)
		e.Uvarint(uint64(len(r.Profiles)))
		for _, p := range r.Profiles {
			appendProfileBody(&e, p)
		}
		appendEncounters(&e, &wireTimeChain{}, r.Encounters)
	case opTraceAppend, opTraceReplace:
		trace.AppendObservations(&e, r.Observations)
	}
	return e.Buf
}

// appendTraceReplace appends the opTraceReplace record of a whole trace held
// as its count and element blocks (userTrace.blocks): appendRecord's bytes
// for the same observations, with the blocks copied back to back instead of
// re-encoded.
func appendTraceReplace(dst []byte, userID string, n int, blocks [][]byte) []byte {
	size := 1 + 2*binary.MaxVarintLen64 + len(userID)
	for _, b := range blocks {
		size += len(b)
	}
	e := frame.Encoder{Buf: append(slices.Grow(dst, size), byte(opTraceReplace))}
	e.String(userID)
	e.Uvarint(uint64(n))
	for _, b := range blocks {
		e.Buf = append(e.Buf, b...)
	}
	return e.Buf
}

// encodeRecord returns r's encoding in a buffer of its own — what the engine
// journals and the shipper sends both keep it.
func encodeRecord(r *record) []byte {
	return appendRecord(make([]byte, 0, 64+len(r.UserID)+20*len(r.Observations)), r)
}

// applyEncoded is every shard state's Apply: decode, then the state's apply.
func applyEncoded(b []byte, apply func(*record) error) error {
	rec, err := decodeRecord(b)
	if err != nil {
		return err
	}
	return apply(rec)
}

// decodeRecord parses one record into a record of its own. Nothing in the
// result aliases b.
func decodeRecord(b []byte) (*record, error) {
	r := new(record)
	if err := r.decode(b); err != nil {
		return nil, err
	}
	return r, nil
}

// decode parses one record into r, replacing every field. Nothing in r then
// aliases b or r's previous fields, except that a trace record's
// observations are decoded into the array r.Observations held: the
// caller-owned buffer a replaying trace shard reuses from record to record,
// so nothing may retain Observations past r's next decode.
func (r *record) decode(b []byte) error {
	obs := r.Observations
	d := frame.NewDecoder(b)
	*r = record{Op: op(d.Byte()), UserID: d.String()}
	switch r.Op {
	case opRegister:
		r.IMEI, r.Email = d.String(), d.String()
	case opSetPlaces:
		r.Places = decodePlaces(d)
	case opLabelPlace:
		r.PlaceID, r.Label = int(d.Varint()), d.String()
	case opSetRoutes:
		r.Routes = decodeRoutes(d)
	case opPutProfile:
		r.Profile = &profile.DayProfile{}
		decodeProfileBody(d, r.Profile)
	case opAddContacts:
		r.Encounters = decodeEncounters(d, &wireTimeChain{})
	case opSyncUser:
		r.Places = decodePlaces(d)
		r.Routes = decodeRoutes(d)
		// A day costs at least two string lengths, three counts and a flag.
		for i, n := 0, d.Count(6); i < n && d.Err() == nil; i++ {
			p := &profile.DayProfile{}
			decodeProfileBody(d, p)
			if i > 0 && d.Err() == nil && p.Date <= r.Profiles[i-1].Date {
				return fmt.Errorf("cloud: sync_user record: day %q does not follow %q", p.Date, r.Profiles[i-1].Date)
			}
			r.Profiles = append(r.Profiles, p)
		}
		r.Encounters = decodeEncounters(d, &wireTimeChain{})
	case opDropUser, opDropMeta, opTraceDrop:
	case opTraceAppend, opTraceReplace:
		r.Observations = trace.DecodeObservationsInto(d, obs)
	default:
		if len(b) > 0 {
			// The leading bytes say what it is instead — a record of the
			// JSON era opens {"op":"...
			return fmt.Errorf("cloud: unknown record %v, beginning %q", r.Op, b[:min(len(b), 32)])
		}
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("cloud: %v record: %w", r.Op, err)
	}
	if d.Rest() != 0 {
		return fmt.Errorf("cloud: %d trailing bytes after %v record", d.Rest(), r.Op)
	}
	return nil
}

// A snapshot is the same thing (DESIGN.md §8): per-user records in key order,
// each in one of internal/frame's var-shape frames, ended by the end of the
// stream. The bytes are a pure function of the state, which is what keeps a
// follower's data directory byte-identical to its primary's.

// maxSnapshotRecord bounds one snapshot record: a user's whole history.
const maxSnapshotRecord = 1 << 30

// writeSnapshot writes the record appendRec(dst, id) appends for every user
// id, sorted here and each once.
func writeSnapshot(w io.Writer, ids []string, appendRec func(dst []byte, id string) []byte) error {
	slices.Sort(ids)
	var buf, fr []byte
	for _, id := range slices.Compact(ids) {
		if buf = appendRec(buf[:0], id); len(buf) > maxSnapshotRecord {
			return fmt.Errorf("cloud: user %s snapshots to a %d-byte record, over the %d-byte bound", id, len(buf), maxSnapshotRecord)
		}
		fr = frame.AppendVar(fr[:0], buf)
		if _, err := w.Write(fr); err != nil {
			return err
		}
	}
	return nil
}

// readSnapshot decodes a snapshot stream of want records into apply, one
// record in memory at a time: every record is decoded into the same one, so
// apply must not retain a trace record's observations.
func readSnapshot(r io.Reader, want op, apply func(*record) error) error {
	br := bufio.NewReader(r)
	var scratch []byte
	var rec record
	for {
		b, err := frame.ReadVar(br, maxSnapshotRecord, &scratch)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("cloud: %v snapshot: %w", want, err)
		}
		err = rec.decode(b)
		if err == nil && rec.Op != want {
			err = fmt.Errorf("cloud: %v record in a %v snapshot", rec.Op, want)
		}
		if err == nil {
			err = apply(&rec)
		}
		if err != nil {
			return err
		}
	}
}

// snapshotBytes renders a state's snapshot through its own off-lock view, so
// Snapshot() and the view cannot differ.
func snapshotBytes(v storage.SnapshotViewer) ([]byte, error) {
	encode, release, err := v.SnapshotView()
	if err != nil {
		return nil, err
	}
	defer release()
	var buf bytes.Buffer
	err = encode(&buf)
	return buf.Bytes(), err
}

// instant is the canonical form of a timestamp inside a record: the codec
// carries UnixNano only, so a record is built from exactly what its decoding
// yields, and live state, replayed state and a follower's state hold — and
// both wires render — the same values.
func instant(t time.Time) time.Time { return time.Unix(0, t.UnixNano()).UTC() }

func instantPair(a, b *time.Time) { *a, *b = instant(*a), instant(*b) }

// instants canonicalises, in place, every timestamp a data record carries
// (a trace record's need nothing: apply keeps them encoded, and the encoding
// is of the instant).
func (r *record) instants() {
	visits := func(vs []VisitWire) {
		for i := range vs {
			instantPair(&vs[i].Arrive, &vs[i].Depart)
		}
	}
	encounters := func(es []profile.Encounter) {
		for i := range es {
			instantPair(&es[i].Start, &es[i].End)
		}
	}
	for i := range r.Places {
		visits(r.Places[i].Visits)
	}
	for i := range r.Routes {
		visits(r.Routes[i].Trips)
	}
	encounters(r.Encounters)
	if p := r.Profile; p != nil {
		for i := range p.Places {
			instantPair(&p.Places[i].Arrive, &p.Places[i].Depart)
		}
		for i := range p.Routes {
			instantPair(&p.Routes[i].Start, &p.Routes[i].End)
		}
		encounters(p.Contacts)
	}
}

package cloud

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/world"
)

// goldenRecords is one record per op, in op order, with the bytes it is
// pinned to. The hex is the on-disk and on-the-wire format: a change here is
// a format change (recordFormat, replWireVersion), not a refactor.
func goldenRecords() []struct {
	rec *record
	hex string
} {
	t0 := time.Date(2014, 3, 1, 8, 0, 0, 0, time.UTC)
	cell := world.CellID{MCC: 262, MNC: 1, LAC: 7, CID: 100}
	place := PlaceWire{ID: 3, Signature: []world.CellID{cell}, Cells: []world.CellID{cell, {MCC: 262, MNC: 1, LAC: 7, CID: 101}},
		Visits: []VisitWire{{Arrive: t0, Depart: t0.Add(time.Hour)}}, Label: "home"}
	route := RouteWire{ID: 1, Cells: []world.CellID{cell}, Trips: []VisitWire{{Arrive: t0.Add(time.Hour), Depart: t0.Add(2 * time.Hour)}}}
	day := &profile.DayProfile{UserID: "u1", Date: "2014-03-01",
		Places:   []profile.PlaceVisit{{PlaceID: "3", Label: "home", Arrive: t0, Depart: t0.Add(time.Hour)}},
		Routes:   []profile.RouteUse{{RouteID: "1", Start: t0.Add(time.Hour), End: t0.Add(2 * time.Hour)}},
		Contacts: []profile.Encounter{{ContactID: "u2", PlaceID: "3", Start: t0, End: t0.Add(time.Minute)}},
		Activity: &profile.ActivitySummary{MovingMinutes: 60, StillMinutes: 600}}
	enc := profile.Encounter{ContactID: "u2", PlaceID: "3", Start: t0, End: t0.Add(time.Minute + time.Nanosecond)}
	obs := []trace.GSMObservation{{At: t0, Cell: cell, SignalDBM: -60}, {At: t0.Add(30 * time.Second), Cell: cell, SignalDBM: -61.5}}
	return []struct {
		rec *record
		hex string
	}{
		{&record{Op: opRegister, UserID: "u1", IMEI: "imei-1", Email: "a@b.c"},
			"0102753106696d65692d31056140622e63"},
		{&record{Op: opSetPlaces, UserID: "u1", Places: []PlaceWire{place}}, "020275310106018c04020ec801028c04020ec801000000020180809896a3c7a3d7268080c58bc6d10104686f6d65"},
		{&record{Op: opLabelPlace, UserID: "u1", PlaceID: 3, Label: "home"}, "030275310604686f6d65"},
		{&record{Op: opSetRoutes, UserID: "u1", Routes: []RouteWire{route}}, "040275310102018c04020ec801018080dda1e998a5d7268080c58bc6d101"},
		{&record{Op: opPutProfile, UserID: "u1", Profile: day}, "050275310275310a323031342d30332d303101013304686f6d650180ce8cb10a01a038010131010001a03801027532013301bf7001780178b009"},
		{&record{Op: opAddContacts, UserID: "u1", Encounters: []profile.Encounter{enc}}, "060275310102753201330180ce8cb10a0082e0ba84bf03"},
		{&record{Op: opSyncUser, UserID: "u1", Places: []PlaceWire{place}, Routes: []RouteWire{route},
			Profiles: []*profile.DayProfile{day, {UserID: "u1", Date: "2014-03-02"}}, Encounters: []profile.Encounter{enc}}, "070275310106018c04020ec801028c04020ec801000000020180809896a3c7a3d7268080c58bc6d10104686f6d650102018c04020ec80101008080c58bc6d101020275310a323031342d30332d303101013304686f6d650180ce8cb10a01a038010131010001a03801027532013301bf7001780178b0090275310a323031342d30332d3032000000000102753201330180ce8cb10a0082e0ba84bf03"},
		{&record{Op: opDropUser, UserID: "u1"}, "08027531"},
		{&record{Op: opDropMeta, UserID: "u1"}, "09027531"},
		{&record{Op: opTraceAppend, UserID: "u1", Observations: obs}, "0a0275310280809896a3c7a3d7268c04020ec8010000000000004ec080b09dc2df01000000000000000000c04ec0"},
		{&record{Op: opTraceReplace, UserID: "u1", Observations: obs[:1]}, "0b0275310180809896a3c7a3d7268c04020ec8010000000000004ec0"},
		{&record{Op: opTraceDrop, UserID: "u1"}, "0c027531"},
	}
}

// TestRecordGoldenBytes pins every op's encoding to literal bytes, and the
// bytes back to the record.
func TestRecordGoldenBytes(t *testing.T) {
	golden := goldenRecords()
	if len(golden) != int(opEnd)-1 {
		t.Fatalf("%d golden records for %d ops", len(golden), opEnd-1)
	}
	for i, g := range golden {
		if g.rec.Op != op(i+1) {
			t.Fatalf("golden record %d is a %v", i, g.rec.Op)
		}
		got := hex.EncodeToString(encodeRecord(g.rec))
		if got != g.hex {
			t.Errorf("%v encodes to\n  %s\nwant\n  %s", g.rec.Op, got, g.hex)
			continue
		}
		want, _ := hex.DecodeString(g.hex)
		back, err := decodeRecord(want)
		if err != nil {
			t.Errorf("%v: golden bytes refused: %v", g.rec.Op, err)
		} else if !reflect.DeepEqual(back, g.rec) {
			t.Errorf("%v: golden bytes decode to %+v, want %+v", g.rec.Op, back, g.rec)
		}
	}
}

// randRecord draws a record of the given op for one of a few users, with
// UTC instants (what the store builds records from).
func randRecord(r *rand.Rand, o op) *record {
	rec := &record{Op: o, UserID: fmt.Sprintf("u%d", r.Intn(4))}
	encounters := func() []profile.Encounter { return randProfile(r).Contacts }
	observations := func() []trace.GSMObservation {
		var out []trace.GSMObservation
		for i, n := 0, r.Intn(6); i < n; i++ {
			out = append(out, trace.GSMObservation{At: randWireTime(r), Cell: world.CellID{MCC: r.Intn(1000), MNC: r.Intn(1000), LAC: r.Intn(1 << 16), CID: r.Intn(1 << 28)}, SignalDBM: -float64(r.Intn(110))})
		}
		return out
	}
	routes := func() []RouteWire {
		var out []RouteWire
		for _, p := range randDiscoverResponse(r).Places {
			out = append(out, RouteWire{ID: p.ID, Cells: p.Cells, Trips: p.Visits})
		}
		return out
	}
	switch o {
	case opRegister:
		rec.IMEI, rec.Email = "imei-"+rec.UserID, randString(r)
	case opSetPlaces:
		rec.Places = randDiscoverResponse(r).Places
		for i := range rec.Places {
			rec.Places[i].ID = i // so a label_place below usually finds its place
		}
	case opLabelPlace:
		rec.PlaceID, rec.Label = r.Intn(3), randString(r)
	case opSetRoutes:
		rec.Routes = routes()
	case opPutProfile:
		rec.Profile = randProfile(r)
	case opAddContacts:
		rec.Encounters = encounters()
	case opSyncUser:
		rec.Places, rec.Routes, rec.Encounters = randDiscoverResponse(r).Places, routes(), encounters()
		for d, n := 1, r.Intn(4); d <= n; d++ {
			p := randProfile(r)
			p.Date = fmt.Sprintf("2026-02-%02d", d)
			rec.Profiles = append(rec.Profiles, p)
		}
	case opTraceAppend, opTraceReplace:
		rec.Observations = observations()
	}
	return rec
}

// recordStates is one state of each kind, so a record of any op has a home.
type recordStates struct {
	meta  *metaState
	data  *dataState
	trace *traceState
}

func newRecordStates() *recordStates {
	return &recordStates{newMetaState(), newDataState(), newTraceState()}
}

func (s *recordStates) apply(rec *record) error {
	switch rec.Op {
	case opRegister, opDropMeta:
		return s.meta.apply(rec)
	case opTraceAppend, opTraceReplace, opTraceDrop:
		return s.trace.apply(rec)
	}
	return s.data.apply(rec)
}

func (s *recordStates) snapshot(t *testing.T) []byte {
	t.Helper()
	var all []byte
	for _, st := range []interface{ Snapshot() ([]byte, error) }{s.meta, s.data, s.trace} {
		b, err := st.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		all = append(append(all, b...), 0xff)
	}
	return all
}

// TestRecordCodecProperty: over random histories of all twelve ops, a state
// that applies decode(encode(rec)) — what replay and a follower do — holds
// the same snapshot bytes as one that applies rec directly, the way the live
// store does (apply, then encode); a restored snapshot snapshots to itself;
// and every strict prefix of a record, and the record with a byte appended,
// is refused.
func TestRecordCodecProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for round := 0; round < 40; round++ {
		live, replayed := newRecordStates(), newRecordStates()
		for i := 0; i < 60; i++ {
			rec := randRecord(r, op(1+r.Intn(int(opEnd)-1)))
			if live.apply(rec) != nil {
				continue // label_place for a place the user does not have: nothing journaled
			}
			enc := encodeRecord(rec)
			back, err := decodeRecord(enc)
			if err != nil {
				t.Fatalf("%v record refused: %v", rec.Op, err)
			}
			if err := replayed.apply(back); err != nil {
				t.Fatalf("replaying %v: %v", rec.Op, err)
			}
			if re := encodeRecord(back); !bytes.Equal(re, enc) {
				t.Fatalf("%v record re-encodes to different bytes", rec.Op)
			}
			for cut := 0; cut < len(enc); cut++ {
				if _, err := decodeRecord(enc[:cut]); err == nil {
					t.Fatalf("%d-byte prefix of a %d-byte %v record accepted", cut, len(enc), rec.Op)
				}
			}
			if _, err := decodeRecord(append(enc[:len(enc):len(enc)], 0)); err == nil {
				t.Fatalf("%v record with a trailing byte accepted", rec.Op)
			}
		}
		want := live.snapshot(t)
		if got := replayed.snapshot(t); !bytes.Equal(got, want) {
			t.Fatalf("round %d: replayed state snapshots to %d bytes that differ from the live state's %d", round, len(got), len(want))
		}
		restored := newRecordStates()
		for _, p := range []struct {
			from interface{ Snapshot() ([]byte, error) }
			to   interface{ Restore([]byte) error }
		}{{live.meta, restored.meta}, {live.data, restored.data}, {live.trace, restored.trace}} {
			b, _ := p.from.Snapshot()
			if err := p.to.Restore(b); err != nil {
				t.Fatal(err)
			}
		}
		if got := restored.snapshot(t); !bytes.Equal(got, want) {
			t.Fatalf("round %d: restored state snapshots to different bytes", round)
		}
	}
}

// recordElems counts the slice elements a decoded record holds.
func recordElems(r *record) int {
	n := len(r.Places) + len(r.Routes) + len(r.Profiles) + len(r.Encounters) + len(r.Observations)
	for _, p := range r.Places {
		n += len(p.Signature) + len(p.Cells) + len(p.Visits)
	}
	for _, rt := range r.Routes {
		n += len(rt.Cells) + len(rt.Trips)
	}
	for _, p := range append(r.Profiles, r.Profile) {
		if p != nil {
			n += len(p.Places) + len(p.Routes) + len(p.Contacts)
		}
	}
	return n
}

// FuzzDecodeRecord: arbitrary bytes never panic the record decoder; a record
// it accepts holds no more slice elements than it has bytes, and re-encodes
// to the input.
func FuzzDecodeRecord(f *testing.F) {
	for _, g := range goldenRecords() {
		enc := encodeRecord(g.rec)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		f.Add(append(enc, 0))
	}
	f.Add([]byte(`{"op":"put_profile","user_id":"u1"}`)) // a record of the JSON era
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		if err != nil {
			return
		}
		if n := recordElems(rec); n > len(data) {
			t.Fatalf("%d elements from %d bytes", n, len(data))
		}
		re := encodeRecord(rec)
		if !bytes.Equal(re, data) {
			// Non-minimal varints, and a time delta carried at the other
			// scale than the encoder picks (nanoseconds for whole seconds,
			// seconds from an instant that is not on one), are the ways two
			// inputs share a meaning; the re-encoding is the one they all
			// decode to.
			rec2, err := decodeRecord(re)
			if err != nil {
				t.Fatalf("re-encoding of accepted input refused: %v", err)
			}
			if !bytes.Equal(encodeRecord(rec2), re) {
				t.Fatal("accepted input does not round-trip")
			}
		}
	})
}

package cloud

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/world"
)

// The off-lock snapshot view property (DESIGN.md §16): for every shard-state
// kind, the view encoder must produce byte-for-byte the output of Snapshot()
// at capture time — even while later mutations land on the live state, which
// shares structure with the view — and RestoreStream(those bytes) must
// reconstruct the same state as Restore. Cluster equivalence compares data
// directories byte-identically, so "semantically equal" is not enough here.

func randPlaces(rng *rand.Rand, n int) []PlaceWire {
	out := make([]PlaceWire, n)
	for i := range out {
		out[i] = PlaceWire{
			ID:        i + 1,
			Signature: []world.CellID{{MCC: 1, MNC: 1, LAC: 7, CID: rng.Intn(500)}},
			Cells:     []world.CellID{{MCC: 1, MNC: 1, LAC: 7, CID: rng.Intn(500)}},
		}
		if rng.Intn(2) == 0 {
			out[i].Label = fmt.Sprintf("label-%d", rng.Intn(9))
		}
	}
	return out
}

func randDataState(t *testing.T, rng *rand.Rand, users int) *dataState {
	t.Helper()
	d := newDataState()
	for u := 0; u < users; u++ {
		uid := fmt.Sprintf("u%03d", u)
		recs := []*record{
			{Op: opSetPlaces, UserID: uid, Places: randPlaces(rng, 1+rng.Intn(4))},
			{Op: opSetRoutes, UserID: uid, Routes: []RouteWire{{ID: 1, Cells: []world.CellID{{MCC: 1, CID: rng.Intn(99)}}}}},
			{Op: opAddContacts, UserID: uid, Encounters: []profile.Encounter{{ContactID: "x", PlaceID: "home"}}},
		}
		for day := 0; day < 1+rng.Intn(3); day++ {
			date := fmt.Sprintf("2014-03-%02d", day+1)
			recs = append(recs, &record{Op: opPutProfile, UserID: uid, Profile: genDayProfile(rng, uid, date)})
		}
		for _, rec := range recs {
			if err := d.apply(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

func TestDataSnapshotViewMatchesSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := randDataState(t, rng, 20)

	want, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	encode, release, err := d.SnapshotView()
	if err != nil {
		t.Fatal(err)
	}

	// Mutate the live state while the view is outstanding: the exact ops
	// that share structure with the captured view (in-place label writes,
	// same-user profile puts, contact appends, drops).
	muts := []*record{
		{Op: opLabelPlace, UserID: "u000", PlaceID: 1, Label: "changed"},
		{Op: opPutProfile, UserID: "u001", Profile: genDayProfile(rng, "u001", "2014-03-01")},
		{Op: opPutProfile, UserID: "u001", Profile: genDayProfile(rng, "u001", "2014-03-20")},
		{Op: opAddContacts, UserID: "u002", Encounters: []profile.Encounter{{ContactID: "y"}}},
		{Op: opSetPlaces, UserID: "u003", Places: randPlaces(rng, 2)},
		{Op: opDropUser, UserID: "u004"},
	}
	for _, rec := range muts {
		if err := d.apply(rec); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		t.Fatal(err)
	}
	release()
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("view encoding diverged from capture-time Snapshot (%d vs %d bytes)", buf.Len(), len(want))
	}

	// The live state did move on.
	after, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(after, want) {
		t.Fatal("live state unchanged by mutations — test lost its teeth")
	}

	// RestoreStream(view bytes) == Restore(view bytes).
	viaStream, viaBytes := newDataState(), newDataState()
	if err := viaStream.RestoreStream(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := viaBytes.Restore(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	s1, _ := viaStream.Snapshot()
	s2, _ := viaBytes.Snapshot()
	if !bytes.Equal(s1, s2) || !bytes.Equal(s1, want) {
		t.Fatal("RestoreStream state diverged from Restore state")
	}
}

func TestMetaSnapshotViewMatchesSnapshot(t *testing.T) {
	m := newMetaState()
	for i := 0; i < 10; i++ {
		uid := fmt.Sprintf("u%d", i)
		if err := m.apply(&record{Op: opRegister, UserID: uid, IMEI: fmt.Sprintf("imei%d", i), Email: "e"}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	encode, release, err := m.SnapshotView()
	if err != nil {
		t.Fatal(err)
	}
	// Register and drop while the view is outstanding.
	if err := m.apply(&record{Op: opRegister, UserID: "late", IMEI: "imei-late", Email: "e"}); err != nil {
		t.Fatal(err)
	}
	if err := m.apply(&record{Op: opDropMeta, UserID: "u3"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		t.Fatal(err)
	}
	release()
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("meta view encoding diverged from capture-time Snapshot")
	}
	fresh := newMetaState()
	if err := fresh.RestoreStream(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	got, _ := fresh.Snapshot()
	if !bytes.Equal(got, want) {
		t.Fatal("meta RestoreStream round-trip diverged")
	}
}

func TestTraceSnapshotViewMatchesSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ts := newTraceState()
	obsFor := func(n int) []trace.GSMObservation {
		out := make([]trace.GSMObservation, n)
		for i := range out {
			out[i] = trace.GSMObservation{Cell: world.CellID{MCC: 1, CID: rng.Intn(300)}, SignalDBM: -float64(50 + rng.Intn(50))}
		}
		return out
	}
	for i := 0; i < 8; i++ {
		uid := fmt.Sprintf("u%d", i)
		if err := ts.apply(&record{Op: opTraceAppend, UserID: uid, Observations: obsFor(1 + rng.Intn(20))}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ts.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	encode, release, err := ts.SnapshotView()
	if err != nil {
		t.Fatal(err)
	}
	// Appends and a replace while the view is outstanding — the append case
	// is the one that shares a backing array with the captured headers.
	if err := ts.apply(&record{Op: opTraceAppend, UserID: "u0", Observations: obsFor(5)}); err != nil {
		t.Fatal(err)
	}
	if err := ts.apply(&record{Op: opTraceReplace, UserID: "u1", Observations: obsFor(3)}); err != nil {
		t.Fatal(err)
	}
	if err := ts.apply(&record{Op: opTraceDrop, UserID: "u2"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		t.Fatal(err)
	}
	release()
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("trace view encoding diverged from capture-time Snapshot")
	}
	fresh := newTraceState()
	if err := fresh.RestoreStream(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	got, _ := fresh.Snapshot()
	if !bytes.Equal(got, want) {
		t.Fatal("trace RestoreStream round-trip diverged")
	}
}

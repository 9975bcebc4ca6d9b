package events

import (
	"encoding/json"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/gsm"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/world"
)

func cell(cid int) world.CellID {
	return world.CellID{MCC: 262, MNC: 1, LAC: 1, CID: cid}
}

// mkTrace builds a one-observation-per-minute trace over the cell ids.
func mkTrace(cids ...int) []trace.GSMObservation {
	obs := make([]trace.GSMObservation, len(cids))
	for i, c := range cids {
		obs[i] = trace.GSMObservation{
			At:   simclock.Epoch.Add(time.Duration(i) * time.Minute),
			Cell: cell(c),
		}
	}
	return obs
}

// genTrace generates a random stay/move/stay/... trace, mirroring the
// generator the pipeline equivalence tests use one package down.
func genTrace(seed int64) []trace.GSMObservation {
	r := rand.New(rand.NewSource(seed))
	var cids []int
	nextCell := 1000
	stays := 1 + r.Intn(5)
	for s := 0; s < stays; s++ {
		setSize := 1 + r.Intn(3)
		set := make([]int, setSize)
		for i := range set {
			nextCell++
			set[i] = nextCell
		}
		for m := 0; m < 15+r.Intn(75); m++ {
			cids = append(cids, set[r.Intn(setSize)])
		}
		for m := 0; m < 10+r.Intn(20); m++ {
			nextCell++
			cids = append(cids, nextCell)
		}
	}
	return mkTrace(cids...)
}

// randomSplit cuts the trace into 1..6 contiguous batches at random
// boundaries (empty batches allowed).
func randomSplit(r *rand.Rand, obs []trace.GSMObservation) [][]trace.GSMObservation {
	parts := 1 + r.Intn(6)
	cuts := make([]int, 0, parts+1)
	cuts = append(cuts, 0)
	for i := 1; i < parts; i++ {
		cuts = append(cuts, r.Intn(len(obs)+1))
	}
	cuts = append(cuts, len(obs))
	sort.Ints(cuts)
	var out [][]trace.GSMObservation
	for i := 1; i < len(cuts); i++ {
		out = append(out, obs[cuts[i-1]:cuts[i]])
	}
	return out
}

// canonicalTransitions serializes the canonical transition fields (Hint is
// excluded by its json:"-" tag) for byte-identical comparison.
func canonicalTransitions(t *testing.T, ts []Transition) string {
	t.Helper()
	if ts == nil {
		ts = []Transition{}
	}
	b, err := json.Marshal(ts)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// streamedPlusPending is the full transition stream the detector implies for
// the trace consumed so far: everything emitted plus the open tail's exit.
func streamedPlusPending(got []Transition, d *Detector) []Transition {
	out := append([]Transition(nil), got...)
	if exit, ok := d.PendingExit(); ok {
		out = append(out, exit)
	}
	return out
}

// TestDetectorMatchesBatch is the PR's equivalence pin: streaming a trace
// through the online detector — over ANY contiguous batch split — yields
// byte-identical canonical transitions to deriving them from a batch
// discovery run, at every batch boundary as well as the end.
func TestDetectorMatchesBatch(t *testing.T) {
	p := gsm.DefaultParams()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		obs := genTrace(seed)
		d := NewDetector(p)
		var streamed []Transition
		consumed := 0
		for _, batch := range randomSplit(r, obs) {
			streamed = append(streamed, d.Feed(batch)...)
			consumed += len(batch)
			want := FromSegments(gsm.Discover(obs[:consumed], p).Segments)
			got := streamedPlusPending(streamed, d)
			if canonicalTransitions(t, got) != canonicalTransitions(t, want) {
				t.Logf("seed %d: transitions diverge at prefix %d:\n got %s\nwant %s",
					seed, consumed, canonicalTransitions(t, got), canonicalTransitions(t, want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDetectorOneByOne feeds a trace one observation at a time — the
// streaming ingest path's worst case — and checks the entry fires the moment
// the open stay crosses MinStay, not at stay close.
func TestDetectorOneByOne(t *testing.T) {
	p := gsm.DefaultParams()
	// 40 minutes on one cell, 15 moving, 40 on another.
	var cids []int
	for i := 0; i < 40; i++ {
		cids = append(cids, 1)
	}
	for i := 0; i < 15; i++ {
		cids = append(cids, 100+i)
	}
	for i := 0; i < 40; i++ {
		cids = append(cids, 2)
	}
	obs := mkTrace(cids...)

	d := NewDetector(p)
	entryAt := -1 // observation index at which the first entry fired
	var all []Transition
	for i := range obs {
		ts := d.Feed(obs[i : i+1])
		for _, tr := range ts {
			if tr.Kind == KindPlaceEntry && entryAt < 0 {
				entryAt = i
				if len(tr.Hint) == 0 {
					t.Errorf("entry at obs %d carries no cell hint", i)
				}
			}
		}
		all = append(all, ts...)
	}
	if entryAt < 0 {
		t.Fatal("no entry emitted")
	}
	if entryAt >= 40 {
		t.Errorf("first entry fired at obs %d — after the stay closed, not online", entryAt)
	}
	want := FromSegments(gsm.Discover(obs, p).Segments)
	got := streamedPlusPending(all, d)
	if canonicalTransitions(t, got) != canonicalTransitions(t, want) {
		t.Errorf("one-by-one stream diverges from batch:\n got %s\nwant %s",
			canonicalTransitions(t, got), canonicalTransitions(t, want))
	}
}

// TestDetectorCatchUp pins the rebuild path: catching up on a prefix and
// feeding the rest emits exactly the transitions a fresh detector emits for
// the suffix — no duplicates from the prefix, nothing lost at the seam.
func TestDetectorCatchUp(t *testing.T) {
	p := gsm.DefaultParams()
	for seed := int64(1); seed <= 15; seed++ {
		obs := genTrace(seed)
		r := rand.New(rand.NewSource(seed))
		cut := r.Intn(len(obs) + 1)

		ref := NewDetector(p)
		refPrefix := ref.Feed(obs[:cut])
		refSuffix := ref.Feed(obs[cut:])
		_ = refPrefix

		rebuilt := NewDetector(p)
		rebuilt.CatchUp(obs[:cut])
		if rebuilt.Len() != cut {
			t.Fatalf("seed %d: Len after CatchUp = %d, want %d", seed, rebuilt.Len(), cut)
		}
		got := rebuilt.Feed(obs[cut:])
		if canonicalTransitions(t, got) != canonicalTransitions(t, refSuffix) {
			t.Errorf("seed %d cut %d: rebuilt suffix diverges:\n got %s\nwant %s",
				seed, cut, canonicalTransitions(t, got), canonicalTransitions(t, refSuffix))
		}
	}
}

// TestDetectorFoldThenFeed pins the shared-pipeline rule: batches folded in
// through Pipeline().Extend (a discovery run on the cached pipeline) emit
// nothing, and the next Feed — even an empty one — publishes what they
// finalized, so the stream still matches batch derivation at every Feed.
func TestDetectorFoldThenFeed(t *testing.T) {
	p := gsm.DefaultParams()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		obs := genTrace(seed)
		d := NewDetector(p)
		var streamed []Transition
		consumed := 0
		for _, batch := range randomSplit(r, obs) {
			consumed += len(batch)
			if r.Intn(2) == 0 {
				d.Pipeline().Extend(batch)
				continue
			}
			streamed = append(streamed, d.Feed(batch)...)
			want := FromSegments(gsm.Discover(obs[:consumed], p).Segments)
			got := streamedPlusPending(streamed, d)
			if canonicalTransitions(t, got) != canonicalTransitions(t, want) {
				t.Logf("seed %d: transitions diverge at prefix %d:\n got %s\nwant %s",
					seed, consumed, canonicalTransitions(t, got), canonicalTransitions(t, want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

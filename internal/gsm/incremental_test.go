package gsm

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/world"
)

// canonicalPlaces serializes places into a deterministic byte form so tests
// can assert byte-identical output across discovery implementations.
func canonicalPlaces(t *testing.T, places []*Place) []byte {
	t.Helper()
	type wire struct {
		ID        int
		Signature []string
		AllCells  []string
		Visits    []Visit
	}
	out := make([]wire, len(places))
	for i, p := range places {
		w := wire{ID: p.ID, Visits: p.Visits}
		for _, c := range p.Signature {
			w.Signature = append(w.Signature, c.String())
		}
		for c := range p.AllCells {
			w.AllCells = append(w.AllCells, c.String())
		}
		sort.Strings(w.AllCells)
		out[i] = w
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
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

// TestPipelineMatchesBatch is the tentpole equivalence property: extending a
// Pipeline over ANY contiguous split of a trace yields byte-identical places
// to one-shot Discover, at every intermediate prefix as well as the end.
func TestPipelineMatchesBatch(t *testing.T) {
	p := DefaultParams()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		obs := genTrace(seed)
		pl := NewPipeline(p)
		consumed := 0
		for _, batch := range randomSplit(r, obs) {
			pl.Extend(batch)
			consumed += len(batch)
			if pl.Len() != consumed {
				t.Logf("seed %d: Len=%d want %d", seed, pl.Len(), consumed)
				return false
			}
			want := Discover(obs[:consumed], p)
			got := pl.Result()
			if string(canonicalPlaces(t, got.Places)) != string(canonicalPlaces(t, want.Places)) {
				t.Logf("seed %d: places diverge at prefix %d", seed, consumed)
				return false
			}
			if !reflect.DeepEqual(got.Places, want.Places) {
				t.Logf("seed %d: DeepEqual diverges at prefix %d", seed, consumed)
				return false
			}
			if len(got.Segments) != len(want.Segments) {
				t.Logf("seed %d: segments %d want %d", seed, len(got.Segments), len(want.Segments))
				return false
			}
			for i := range got.Segments {
				if !got.Segments[i].Start.Equal(want.Segments[i].Start) ||
					!got.Segments[i].End.Equal(want.Segments[i].End) ||
					!reflect.DeepEqual(got.Segments[i].dwellBy, want.Segments[i].dwellBy) {
					t.Logf("seed %d: segment %d diverges", seed, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPipelineMatchesBatchGraph pins the incremental graph fold to
// BuildGraph across random splits.
func TestPipelineMatchesBatchGraph(t *testing.T) {
	p := DefaultParams()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		obs := genTrace(seed)
		pl := NewPipeline(p)
		for _, batch := range randomSplit(r, obs) {
			pl.Extend(batch)
		}
		want := BuildGraph(obs, p)
		got := pl.Result().Graph
		if got.NumNodes() != want.NumNodes() || got.NumTransitions() != want.NumTransitions() {
			return false
		}
		for _, a := range want.Cells() {
			if got.Dwell(a) != want.Dwell(a) || got.Degree(a) != want.Degree(a) {
				return false
			}
			for _, b := range want.Cells() {
				if got.EdgeWeight(a, b) != want.EdgeWeight(b, a) ||
					got.BounceWeight(a, b) != want.BounceWeight(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPipelineOneByOne feeds a trace a single observation at a time — the
// worst case for checkpoint bookkeeping — and checks the final output plus
// the claim that the retained buffer stays small.
func TestPipelineOneByOne(t *testing.T) {
	p := DefaultParams()
	obs := genTrace(7)
	pl := NewPipeline(p)
	for i := range obs {
		pl.Extend(obs[i : i+1])
	}
	want := Discover(obs, p)
	got := pl.Result()
	if string(canonicalPlaces(t, got.Places)) != string(canonicalPlaces(t, want.Places)) {
		t.Fatalf("one-by-one pipeline diverges from batch")
	}
	// The buffer must not hold the full history: at most the stationarity
	// window, the open run, and the fold context.
	if len(pl.buf) >= len(obs) && len(obs) > 50 {
		t.Fatalf("buffer not pruned: holds %d of %d observations", len(pl.buf), len(obs))
	}
}

// TestPipelineResidency pins what a warm pipeline holds: a user parked at
// one cell for 20 000 observations is one open stay, yet the buffer stays at
// about twice the stationarity window (the open run lives in its tally), a
// one-observation Extend allocates nothing once warm, and the output is still
// batch Discover's — fed as one batch and one observation at a time.
func TestPipelineResidency(t *testing.T) {
	p := DefaultParams()
	const parked = 20000
	cids := make([]int, parked, parked+10)
	for i := range cids {
		cids[i] = 1
	}
	for c := 2; c <= 11; c++ { // the move: ten fresh cells close the stay
		cids = append(cids, c)
	}
	obs := mkTrace(cids...)

	checkCap := func(t *testing.T, pl *Pipeline) {
		t.Helper()
		inWindow := pl.n - pl.j
		if c := cap(pl.buf); c > 2*(inWindow+2) {
			t.Fatalf("after %d observations: cap(buf) = %d, want <= 2*(%d in window + 2)", pl.n, c, inWindow)
		}
	}
	checkResult := func(t *testing.T, pl *Pipeline) {
		t.Helper()
		want := Discover(obs[:pl.n], p)
		got := pl.Result()
		if string(canonicalPlaces(t, got.Places)) != string(canonicalPlaces(t, want.Places)) {
			t.Fatalf("after %d observations: places diverge from batch", pl.n)
		}
		if len(got.Segments) != len(want.Segments) {
			t.Fatalf("after %d observations: %d segments, want %d", pl.n, len(got.Segments), len(want.Segments))
		}
		for i := range got.Segments {
			if !got.Segments[i].Start.Equal(want.Segments[i].Start) ||
				!got.Segments[i].End.Equal(want.Segments[i].End) ||
				!reflect.DeepEqual(got.Segments[i].dwellBy, want.Segments[i].dwellBy) {
				t.Fatalf("after %d observations: segment %d diverges", pl.n, i)
			}
		}
	}

	t.Run("batch", func(t *testing.T) {
		pl := NewPipeline(p)
		pl.Extend(obs[:parked])
		checkCap(t, pl)
		checkResult(t, pl)
		pl.Extend(obs[parked:])
		checkCap(t, pl)
		checkResult(t, pl)
		if segs := pl.FinalSegments(); len(segs) != 1 || segs[0].dwellBy[cell(1)] != parked {
			t.Fatalf("the parked stay did not finalize with its full dwell: %+v", segs)
		}
	})

	t.Run("one-by-one", func(t *testing.T) {
		pl := NewPipeline(p)
		for i := 0; i < len(obs); i++ {
			if i == parked/2 {
				// Steady state: the next observations extend the same open
				// stay, so nothing should be allocated.
				k := i
				allocs := testing.AllocsPerRun(100, func() {
					pl.Extend(obs[k : k+1])
					k++
				})
				if allocs != 0 {
					t.Fatalf("warm one-observation Extend allocates %.2f times", allocs)
				}
				checkCap(t, pl)
				i = k
			}
			pl.Extend(obs[i : i+1])
			checkCap(t, pl)
			if i%2000 == 0 || i >= parked {
				checkResult(t, pl)
			}
		}
		checkResult(t, pl)
	})
}

func TestPipelineEmpty(t *testing.T) {
	pl := NewPipeline(DefaultParams())
	res := pl.Result()
	if len(res.Places) != 0 || len(res.Segments) != 0 {
		t.Fatalf("empty pipeline produced output: %+v", res)
	}
	pl.Extend(nil)
	if pl.Len() != 0 {
		t.Fatalf("Extend(nil) consumed observations")
	}
}

// TestMergePrunedMatchesQuadratic pins the pruned+parallel merge pass to the
// quadratic reference over random traces.
func TestMergePrunedMatchesQuadratic(t *testing.T) {
	p := DefaultParams()
	f := func(seed int64) bool {
		obs := genTrace(seed)
		g := BuildGraph(obs, p)
		segs := segmentStays(obs, p)
		a := mergeSegments(segs, g, p)
		b := mergeSegmentsQuadratic(segs, g, p)
		return string(canonicalPlaces(t, a)) == string(canonicalPlaces(t, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMergePrunedZeroThreshold covers the MergeOverlap<=0 edge case where
// every pair merges regardless of shared cells — the one case the inverted
// index cannot prune.
func TestMergePrunedZeroThreshold(t *testing.T) {
	p := DefaultParams()
	p.MergeOverlap = 0
	obs := genTrace(11)
	g := BuildGraph(obs, p)
	segs := segmentStays(obs, p)
	a := mergeSegments(segs, g, p)
	b := mergeSegmentsQuadratic(segs, g, p)
	if string(canonicalPlaces(t, a)) != string(canonicalPlaces(t, b)) {
		t.Fatalf("zero-threshold merge diverges from quadratic reference")
	}
	if len(segs) > 1 && len(a) != 1 {
		t.Fatalf("zero threshold should merge all %d segments into one place, got %d", len(segs), len(a))
	}
}

// synthTrace builds a days-long trace with a daily home/commute/work/commute
// rhythm — the shape of the paper's deployment data — at one observation per
// minute.
func synthTrace(days int, seed int64) []trace.GSMObservation {
	r := rand.New(rand.NewSource(seed))
	home := []int{10, 11, 12}
	work := []int{20, 21}
	var obs []trace.GSMObservation
	at := simclock.Epoch
	emit := func(set []int, minutes int) {
		for m := 0; m < minutes; m++ {
			obs = append(obs, trace.GSMObservation{At: at, Cell: cell(set[r.Intn(len(set))])})
			at = at.Add(time.Minute)
		}
	}
	nextCell := 1000
	commute := func(minutes int) {
		for m := 0; m < minutes; m++ {
			nextCell++
			obs = append(obs, trace.GSMObservation{At: at, Cell: cell(nextCell)})
			at = at.Add(time.Minute)
		}
	}
	for d := 0; d < days; d++ {
		emit(home, 7*60)
		commute(30)
		emit(work, 9*60)
		commute(30)
		emit(home, 7*60)
	}
	return obs
}

// BenchmarkDiscoveryFull is the pre-PR cost model: full batch re-discovery
// over the entire accumulated trace after one new day arrives.
func BenchmarkDiscoveryFull(b *testing.B) {
	for _, days := range []int{7, 30} {
		obs := synthTrace(days+1, 42)
		b.Run(fmt.Sprintf("days=%d", days), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := Discover(obs, DefaultParams())
				if len(res.Places) == 0 {
					b.Fatal("no places")
				}
			}
		})
	}
}

// BenchmarkDiscoveryIncremental is the post-PR cost model: a pipeline warm
// with `days` of history consumes one new day and re-merges.
func BenchmarkDiscoveryIncremental(b *testing.B) {
	for _, days := range []int{7, 30} {
		obs := synthTrace(days+1, 42)
		perDay := len(obs) / (days + 1)
		warm, delta := obs[:days*perDay], obs[days*perDay:]
		b.Run(fmt.Sprintf("days=%d", days), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				pl := NewPipeline(DefaultParams())
				pl.Extend(warm)
				b.StartTimer()
				pl.Extend(delta)
				res := pl.Result()
				if len(res.Places) == 0 {
					b.Fatal("no places")
				}
			}
		})
	}
}

// BenchmarkPipelineSteady is the cached pipeline's per-observation cost: a
// one-observation Extend on a warm pipeline whose user oscillates among a
// place's cells. A warm Extend should report 0 allocs/op.
func BenchmarkPipelineSteady(b *testing.B) {
	home := []world.CellID{cell(10), cell(11), cell(12)}
	pl := NewPipeline(DefaultParams())
	batch := make([]trace.GSMObservation, 1)
	at := simclock.Epoch
	next := func(i int) {
		batch[0] = trace.GSMObservation{At: at, Cell: home[i%len(home)]}
		at = at.Add(time.Minute)
		pl.Extend(batch)
	}
	for i := 0; i < 1000; i++ {
		next(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next(i)
	}
}

// BenchmarkMergeSegments compares the pruned+parallel merge pass against the
// quadratic reference on a month of segments.
func BenchmarkMergeSegments(b *testing.B) {
	obs := synthTrace(30, 42)
	p := DefaultParams()
	g := BuildGraph(obs, p)
	segs := segmentStays(obs, p)
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(mergeSegments(segs, g, p)) == 0 {
				b.Fatal("no places")
			}
		}
	})
	b.Run("quadratic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(mergeSegmentsQuadratic(segs, g, p)) == 0 {
				b.Fatal("no places")
			}
		}
	})
}

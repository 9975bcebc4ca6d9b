package mobility

import (
	"math"
	"math/rand"
	"testing"
)

// checkJumpSource fails unless the jump source's first draws for seed are
// those of want, a math/rand source the check reseeds (reseeding is
// rand.NewSource without the allocation). draws > jumpDraws also checks the
// fallback past the tabulated draws.
func checkJumpSource(t *testing.T, want rand.Source, seed int64, draws int) {
	t.Helper()
	want.Seed(seed)
	got := newJumpSource(seed)
	for k := 1; k <= draws; k++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: draw %d = %d, rand.NewSource gives %d", seed, k, g, w)
		}
	}
}

// TestJumpSourceMatchesMathRand: the jump source is math/rand's stream, on
// the seeds its normalization treats specially (0, ±1, the modulus and its
// multiples, the extremes, the value 0 is replaced by) and on 20 000 seeded
// random ones. Every edge seed and every eighth random one also checks draws
// 5-8, which come from the fallback; each fallback costs a full math/rand
// seeding, and checking it on all 20 000 seeds would double the test's CPU
// to about half a second on a 2-core host. Seed resets a used source to the
// start of the new stream.
func TestJumpSourceMatchesMathRand(t *testing.T) {
	edges := []int64{
		0, 1, -1, minstdM, -minstdM, minstdM - 1, minstdM + 1, 2 * minstdM,
		-2 * minstdM, math.MinInt64, math.MaxInt64, 89482311, -89482311,
	}
	want := rand.NewSource(0)
	for _, seed := range edges {
		checkJumpSource(t, want, seed, 8)
	}
	r := rand.New(rand.NewSource(44))
	for i := range 20000 {
		draws := jumpDraws
		if i%8 == 0 {
			draws = 8
		}
		checkJumpSource(t, want, int64(r.Uint64()), draws)
	}

	s := newJumpSource(7)
	for range 6 {
		s.Int63()
	}
	s.Seed(8)
	if got, want := s.Int63(), rand.NewSource(8).Int63(); got != want {
		t.Fatalf("after Seed(8) the first draw = %d, rand.NewSource(8) gives %d", got, want)
	}
}

func FuzzJumpSource(f *testing.F) {
	for _, seed := range []int64{0, -1, minstdM, math.MinInt64, math.MaxInt64} {
		f.Add(seed)
	}
	want := rand.NewSource(0)
	f.Fuzz(func(t *testing.T, seed int64) { checkJumpSource(t, want, seed, 8) })
}

package mobility

import "math/rand"

// jumpSource is a math/rand Source that yields, for every seed, the values
// rand.NewSource(seed) yields, without filling the 607-word register that
// seeding costs: dwellJitter seeds one source per (venue, agent, bucket) and
// draws from it twice.
//
// How math/rand seeds (src/math/rand/rng.go): the seed is normalized to
// [1, 2³¹−2], then the MINSTD generator x ← 48271·x mod (2³¹−1) steps 1 841
// times. After 20 warm-up steps, word i of the register is three consecutive
// states, x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ, XORed with the constant
// rngCooked[i]. Draw k (1 ≤ k ≤ 273) of a fresh source returns
// vec[334−k] + vec[607−k], words no earlier draw has written. State n is
// 48271ⁿ·x₀ mod (2³¹−1), so with the powers precomputed a draw costs six
// modular multiplies.
//
// Only the first jumpDraws draws are tabulated. A later draw, which
// dwellJitter makes only when Float64 draws exactly 1.0 and retries, comes
// from a real rand.NewSource advanced past them.
type jumpSource struct {
	seed int64
	x0   int64       // the seed as math/rand normalizes it: MINSTD state 0
	n    int         // draws taken so far
	rest rand.Source // set once the tabulated draws are used up
}

const (
	minstdA   = 48271
	minstdM   = 1<<31 - 1 // math/rand's int32max
	jumpDraws = 4
)

// jumpCooked[k] holds rngCooked[333−k] and rngCooked[606−k], the constants of
// the two words draw k+1 adds. The values are copied from Go's
// src/math/rand/rng.go, Copyright 2009 The Go Authors, distributed under the
// BSD-style licence in Go's LICENSE file.
var jumpCooked = [jumpDraws][2]int64{
	{-4633371852008891965, 4152330101494654406},
	{4287360518296753003, 9103922860780351547},
	{-1072987336855386047, 8382142935188824023},
	{220828013409515943, -2171292963361310674},
}

// jumpPow[k][w][j] is 48271^(21+3i+j) mod (2³¹−1) for the word i that
// jumpCooked[k][w] belongs to.
var jumpPow = func() (p [jumpDraws][2][3]int64) {
	pow := make([]int64, 21+3*606+3)
	pow[0] = 1
	for n := 1; n < len(pow); n++ {
		pow[n] = pow[n-1] * minstdA % minstdM
	}
	for k := range p {
		for w, i := range [2]int{333 - k, 606 - k} {
			for j := range 3 {
				p[k][w][j] = pow[21+3*i+j]
			}
		}
	}
	return p
}()

func newJumpSource(seed int64) *jumpSource {
	s := new(jumpSource)
	s.Seed(seed)
	return s
}

// Seed resets the source to the start of rand.NewSource(seed)'s stream.
func (s *jumpSource) Seed(seed int64) {
	x := seed % minstdM
	if x < 0 {
		x += minstdM
	}
	if x == 0 {
		x = 89482311
	}
	*s = jumpSource{seed: seed, x0: x}
}

// Int63 returns the next value of rand.NewSource(seed)'s stream.
func (s *jumpSource) Int63() int64 {
	if k := s.n; k < jumpDraws {
		s.n++
		return (s.word(k, 0) + s.word(k, 1)) & (1<<63 - 1)
	}
	if s.rest == nil {
		s.rest = rand.NewSource(s.seed)
		for range jumpDraws {
			s.rest.Int63()
		}
	}
	return s.rest.Int63()
}

// word returns register word jumpCooked[k][w] belongs to, as seeding left it.
func (s *jumpSource) word(k, w int) int64 {
	p := &jumpPow[k][w]
	x := func(j int) int64 { return p[j] * s.x0 % minstdM }
	return x(0)<<40 ^ x(1)<<20 ^ x(2) ^ jumpCooked[k][w]
}

package load

import (
	"testing"
	"testing/quick"
)

// drawN returns the first n draws of a stream.
func drawN(k Key, n int, parts ...string) []float64 {
	r := k.Stream(parts...)
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64()
	}
	return out
}

// TestStreamIsolation is the partitioned-RNG contract: drawing any amount
// from one subsystem's stream never changes what another stream yields, for
// any seed — the property that lets subsystems evolve independently without
// invalidating every pinned trace.
func TestStreamIsolation(t *testing.T) {
	check := func(seed int64, extraDraws uint8) bool {
		k := Key{Seed: seed}

		before := drawN(k, 16, SubsysPlan)

		// Perturb a different subsystem by a seed-dependent amount.
		other := k.Stream(SubsysSensors)
		for i := 0; i < int(extraDraws); i++ {
			other.Float64()
		}

		after := drawN(k, 16, SubsysPlan)
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamStability pins that the same address always yields the same
// stream, and distinct addresses yield distinct streams.
func TestStreamStability(t *testing.T) {
	check := func(seed int64, user uint16) bool {
		k := Key{Seed: seed}
		u := int(user)
		a := drawN(k, 8, SubsysPlan, "7")
		b := drawN(k, 8, SubsysPlan, "7")
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		// Per-user streams differ from each other and from the bare
		// subsystem stream (float collision odds are negligible; equality
		// of all 8 draws would mean identical seeds).
		x := drawN(k, 8, SubsysPlan, "user-a")
		y := k.UserStream(SubsysPlan, u)
		same := true
		for i := range x {
			if x[i] != y.Float64() {
				same = false
			}
		}
		return !same
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamAddressing pins that the address encoding is injective across
// part boundaries: ("ab") vs ("a","b") and ("a","bc") vs ("ab","c") are
// different streams.
func TestStreamAddressing(t *testing.T) {
	k := Key{Seed: 42}
	pairs := [][2][]string{
		{{"ab"}, {"a", "b"}},
		{{"a", "bc"}, {"ab", "c"}},
		{{""}, {}},
		{{"a", ""}, {"a"}},
	}
	for _, p := range pairs {
		a := drawN(k, 4, p[0]...)
		b := drawN(k, 4, p[1]...)
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
			}
		}
		if same {
			t.Fatalf("addresses %q and %q produced the same stream", p[0], p[1])
		}
	}
}

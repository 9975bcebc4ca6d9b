// Package load synthesizes the benchmark's inputs: an arbitrarily large user
// population, built lazily (per user on demand, never materialized up front),
// whose GSM traces and day profiles bench/ turns into request templates
// (DESIGN.md §12). It drives nothing itself; bench/ is the load executor.
//
// Determinism is the package's core contract: the same seed and spec
// synthesize the same users byte-for-byte, on any machine, so successive
// commits are benchmarked under literally identical inputs. Everything
// random flows from a Key — a partitioned RNG root that derives one isolated
// stream per (subsystem, user), so changing how many draws one subsystem
// consumes never perturbs another subsystem's sequence.
package load

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"strconv"
)

// Subsystem stream names. Each is an isolated RNG universe under a Key:
// adding draws to one never shifts another (TestStreamIsolation pins this).
const (
	// SubsysPlan draws one user's home/work/haunt plan (per user).
	SubsysPlan = "plan"
	// SubsysSchedule drives one user's daily itinerary (per user).
	SubsysSchedule = "schedule"
	// SubsysSensors seeds one user's handset radios (per user).
	SubsysSensors = "sensors"
)

// Key is the root of the partitioned RNG tree. Streams are derived by
// hashing (seed, parts...) — there is no shared mutable state between
// streams, so callers may draw from them lazily, concurrently, and in any
// order without perturbing each other. This is the partitioned-RNG idiom the
// sensor layer uses per-radio, promoted to an addressable keyspace.
type Key struct {
	Seed int64
}

// Stream returns the isolated RNG stream addressed by parts. The address is
// length-prefixed, so ("ab") and ("a","b") are distinct streams. Each call
// returns a fresh generator positioned at the stream's start.
func (k Key) Stream(parts ...string) *rand.Rand {
	return rand.New(rand.NewSource(k.streamSeed(parts)))
}

// UserStream returns the per-user stream of a subsystem.
func (k Key) UserStream(subsystem string, user int) *rand.Rand {
	return k.Stream(subsystem, strconv.Itoa(user))
}

func (k Key) streamSeed(parts []string) int64 {
	h := fnv.New64a()
	var buf [binary.MaxVarintLen64]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(k.Seed))
	_, _ = h.Write(buf[:8])
	for _, p := range parts {
		n := binary.PutUvarint(buf[:], uint64(len(p)))
		_, _ = h.Write(buf[:n])
		_, _ = h.Write([]byte(p))
	}
	return int64(mix64(h.Sum64()))
}

// mix64 is the splitmix64 finalizer: FNV of short, similar addresses (user
// indexes differing in one digit) produces correlated hashes; the finalizer
// scatters them before they become rand.Source seeds.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d49bbb133111eb
	return x ^ (x >> 31)
}

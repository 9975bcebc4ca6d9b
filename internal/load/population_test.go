package load

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// TestPopulationOrderIndependent is the lazy-generation contract: a user's
// synthesized payloads are identical whether the user is generated alone,
// after many others, or re-generated after cache eviction.
func TestPopulationOrderIndependent(t *testing.T) {
	spec := DefaultSpec()
	key := Key{Seed: 31}

	solo := NewPopulation(spec, key)
	direct, err := solo.User(7)
	if err != nil {
		t.Fatal(err)
	}

	warmed := NewPopulation(spec, key)
	for i := 0; i < 7; i++ {
		if _, err := warmed.User(i); err != nil {
			t.Fatal(err)
		}
	}
	after, err := warmed.User(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, after) {
		t.Fatal("user 7 differs when generated after users 0..6")
	}

	// Eviction and re-synthesis must reproduce the same user.
	warmed.mu.Lock()
	delete(warmed.cache, 7)
	warmed.mu.Unlock()
	again, err := warmed.User(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, again) {
		t.Fatal("user 7 differs after eviction and re-synthesis")
	}
}

// TestPopulationPayloads sanity-checks the synthesized artifacts: non-empty
// monotone trace, validated profiles covering the trace days, and query
// places that the first profile really contains.
func TestPopulationPayloads(t *testing.T) {
	spec := DefaultSpec()
	spec.TraceDays = 2
	pop := NewPopulation(spec, Key{Seed: 11})

	for i := 0; i < 5; i++ {
		u, err := pop.User(i)
		if err != nil {
			t.Fatal(err)
		}
		wantObs := spec.TraceDays * 24 * 3600 / spec.ObsIntervalSec
		if len(u.Trace) != wantObs {
			t.Fatalf("user %d: %d observations, want %d", i, len(u.Trace), wantObs)
		}
		for j := 1; j < len(u.Trace); j++ {
			if !u.Trace[j].At.After(u.Trace[j-1].At) {
				t.Fatalf("user %d: trace times not strictly increasing at %d", i, j)
			}
		}
		if len(u.Profiles) == 0 || len(u.Profiles) > spec.TraceDays {
			t.Fatalf("user %d: %d profiles for %d days", i, len(u.Profiles), spec.TraceDays)
		}
		for _, p := range u.Profiles {
			if err := p.Validate(); err != nil {
				t.Fatalf("user %d: profile %s invalid: %v", i, p.Date, err)
			}
			if p.UserID != u.ID {
				t.Fatalf("user %d: profile owned by %q", i, p.UserID)
			}
		}
		if len(u.QueryPlaces) == 0 {
			t.Fatalf("user %d: no query places", i)
		}
		first := map[string]bool{}
		for _, pid := range u.Profiles[0].DistinctPlaces() {
			first[pid] = true
		}
		for _, pid := range u.QueryPlaces {
			if !first[pid] {
				t.Fatalf("user %d: query place %q not in first profile", i, pid)
			}
		}
	}
}

// TestPopulationCacheBound pins the eviction policy actually bounds
// residency.
func TestPopulationCacheBound(t *testing.T) {
	spec := DefaultSpec()
	pop := NewPopulation(spec, Key{Seed: 3})
	pop.maxKeep = 4
	for i := 0; i < 10; i++ {
		if _, err := pop.User(i); err != nil {
			t.Fatal(err)
		}
	}
	pop.mu.Lock()
	defer pop.mu.Unlock()
	if len(pop.cache) != 4 {
		t.Fatalf("cache holds %d users, want 4", len(pop.cache))
	}
}

// TestUserIdentityStable pins the identity scheme the server keys devices
// on.
func TestUserIdentityStable(t *testing.T) {
	id, imei, email := UserIdentity(1234567)
	if id != "lu1234567" || imei != "imei-lu1234567" || email != "lu1234567@load.invalid" {
		t.Fatalf("unexpected identity: %s %s %s", id, imei, email)
	}
}

// pmsDaySpec is the population shape of bench/'s pms-day workload: three
// days of trace sampled every two minutes.
func pmsDaySpec() *Spec {
	spec := DefaultSpec()
	spec.TraceDays = 3
	spec.ObsIntervalSec = 120
	return spec
}

// traceHash folds every observation of the users' traces — time, cell and
// the exact bits of the signal — into one FNV-1a-64 sum.
func traceHash(users []*SimUser) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, u := range users {
		put(uint64(len(u.Trace)))
		for _, o := range u.Trace {
			put(uint64(o.At.UnixNano()))
			put(uint64(o.Cell.MCC))
			put(uint64(o.Cell.MNC))
			put(uint64(o.Cell.LAC))
			put(uint64(o.Cell.CID))
			put(math.Float64bits(o.SignalDBM))
		}
	}
	return h.Sum64()
}

// TestPopulationTracePinned pins four users' traces at the pms-day shape to
// the sum the sensor simulator produced before its tower lookup was indexed
// and its dwell positions were computed once per five-minute bucket: both
// are speed-ups only, so not one observation may move.
func TestPopulationTracePinned(t *testing.T) {
	const want = uint64(0x28c5929a62301636)
	pop := NewPopulation(pmsDaySpec(), Key{Seed: 1})
	var users []*SimUser
	for i := 0; i < 4; i++ {
		u, err := pop.User(i)
		if err != nil {
			t.Fatal(err)
		}
		users = append(users, u)
	}
	if got := traceHash(users); got != want {
		t.Fatalf("trace hash of users 0-3 = %#x, want %#x", got, want)
	}
}

// TestPopulationConcurrentMatchesSerial: bench/ synthesizes templates on
// GOMAXPROCS goroutines that share one Population (and so one World). Every
// user pulled that way must deep-equal the same user synthesized serially
// from a fresh Population; run under -race this also checks that the shared
// world's indexes are only read.
func TestPopulationConcurrentMatchesSerial(t *testing.T) {
	const users = 32
	spec := DefaultSpec()
	key := Key{Seed: 41}

	shared := NewPopulation(spec, key)
	workers := 2 * runtime.GOMAXPROCS(0)
	got := make([][]*SimUser, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts at a different user, so most users are
			// synthesized while others are being synthesized too.
			got[w] = make([]*SimUser, users)
			for k := 0; k < users; k++ {
				i := (k + w*users/workers) % users
				u, err := shared.User(i)
				if err != nil {
					errs[w] = err
					return
				}
				got[w][i] = u
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	serial := NewPopulation(spec, key)
	for i := 0; i < users; i++ {
		want, err := serial.User(i)
		if err != nil {
			t.Fatal(err)
		}
		for w := range got {
			if !reflect.DeepEqual(got[w][i], want) {
				t.Fatalf("user %d pulled by worker %d differs from its serial synthesis", i, w)
			}
		}
	}
}

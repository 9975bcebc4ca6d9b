package load

import (
	"reflect"
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

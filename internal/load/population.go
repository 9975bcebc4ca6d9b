package load

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/mobility"
	"repro/internal/profile"
	"repro/internal/simclock"
	"repro/internal/study"
	"repro/internal/trace"
	"repro/internal/world"
)

// minStay is the paper's place-visit threshold; visits at least this long
// become profile entries.
const minStay = 10 * time.Minute

// SimUser is one synthesized user's complete request payload set: identity,
// GSM trace for discovery uploads, and day profiles for profile sync and the
// analytics reads they unlock.
type SimUser struct {
	Idx   int
	ID    string
	IMEI  string
	Email string

	// Trace is the user's GSM observation stream over the spec's TraceDays,
	// sampled every ObsIntervalSec.
	Trace []trace.GSMObservation
	// Profiles holds one validated DayProfile per simulated day.
	Profiles []*profile.DayProfile
	// QueryPlaces are place IDs from the user's first day profile — the set
	// that is guaranteed query-safe for per-place analytics once the first
	// profile_put has happened.
	QueryPlaces []string
}

// UserIdentity returns user i's stable identity without synthesizing
// anything — bench/ builds a client from (imei, email) for virtual users
// whose payloads come from another user's template.
func UserIdentity(i int) (id, imei, email string) {
	id = fmt.Sprintf("lu%07d", i)
	return id, "imei-" + id, id + "@load.invalid"
}

// Population synthesizes SimUsers lazily from a Key. A million-user
// population costs nothing until users are requested; each user's synthesis
// draws only from that user's derived streams. It does not follow that a
// user is independent of the others synthesized before it: the shared
// world's path cache keeps whichever direction of a street path was built
// first, and a path built from b to a is not the reverse of the one built
// from a to b. A user who travels between two public venues that an earlier
// user travelled the other way gets that user's geometry, so about one user
// in ten differs between forward and reverse synthesis order (ROADMAP item
// 24). Re-synthesis after cache eviction does reproduce a user, since the
// path cache only grows. TestPopulationOrderIndependent checks that, and one
// user generated alone and after the users below it.
//
// The shared world is generated once, is never mutated afterwards (per-user
// home/work venues are standalone), and is safe for concurrent readers.
type Population struct {
	spec *Spec
	key  Key

	world     *world.World
	public    []*world.Venue
	schedCfg  mobility.ScheduleConfig
	sensorCfg trace.Config

	mu      sync.Mutex
	cache   map[int]*SimUser
	fifo    []int
	maxKeep int
}

// defaultPayloadCache bounds how many synthesized users stay resident. The
// per-user payload is a few hundred KB; 4096 users is a few hundred MB worst
// case.
const defaultPayloadCache = 4096

// NewPopulation builds the lazy population for a spec. The world derives
// from spec.WorldSeed/ExtentMeters exactly the way cmd/pmware-cloud builds
// its cell database, so an external server booted with matching -world-seed
// and -extent geolocates the traces this population produces.
func NewPopulation(spec *Spec, key Key) *Population {
	wc := world.DefaultConfig()
	wc.ExtentMeters = spec.ExtentMeters
	w := world.Generate(wc, rand.New(rand.NewSource(spec.WorldSeed)))
	return &Population{
		spec:      spec,
		key:       key,
		world:     w,
		public:    append([]*world.Venue(nil), w.Venues...),
		schedCfg:  mobility.DefaultScheduleConfig(),
		sensorCfg: trace.DefaultConfig(),
		cache:     make(map[int]*SimUser),
		maxKeep:   defaultPayloadCache,
	}
}

// World returns the shared city (for building a matching cell database when
// self-booting a server).
func (p *Population) World() *world.World { return p.world }

// User returns user i, synthesizing it on demand. Safe for concurrent use;
// concurrent requests for the same uncached user may synthesize it twice,
// which wastes work but cannot diverge (synthesis is a pure function of the
// key).
func (p *Population) User(i int) (*SimUser, error) {
	p.mu.Lock()
	if u, ok := p.cache[i]; ok {
		p.mu.Unlock()
		return u, nil
	}
	p.mu.Unlock()

	u, err := p.synthesize(i)
	if err != nil {
		return nil, err
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if cached, ok := p.cache[i]; ok {
		return cached, nil
	}
	p.cache[i] = u
	p.fifo = append(p.fifo, i)
	for len(p.fifo) > p.maxKeep {
		evict := p.fifo[0]
		p.fifo = p.fifo[1:]
		delete(p.cache, evict)
	}
	return u, nil
}

// synthesize builds user i from scratch: plan → private venues → itinerary
// → GSM trace → day profiles. Every draw comes from user i's own streams.
func (p *Population) synthesize(i int) (*SimUser, error) {
	id, imei, email := UserIdentity(i)

	planRand := p.key.UserStream(SubsysPlan, i)
	wc := world.DefaultConfig()
	wc.ExtentMeters = p.spec.ExtentMeters
	plan := study.PlanParticipant(planRand, wc, p.spec.HauntsPerUser, len(p.public), i)

	// Home and work are standalone: the shared world must not grow by two
	// venues per synthesized user (and AddVenue's reindex is not safe under
	// the concurrent readers sampling GSM).
	home := world.StandaloneVenue("home-"+id, "Home of "+id, world.KindHome, plan.HomePos, planRand)
	work := world.StandaloneVenue("work-"+id, "Office of "+id, world.KindWorkplace, plan.WorkPos, planRand)
	haunts := make([]*world.Venue, 0, len(plan.HauntIdx))
	for _, j := range plan.HauntIdx {
		haunts = append(haunts, p.public[j])
	}
	agent := &mobility.Agent{ID: id, Home: home, Work: work, Haunts: haunts, SpeedMPS: plan.SpeedMPS}

	it, err := mobility.BuildItinerary(agent, p.world, simclock.Epoch, p.spec.TraceDays, p.schedCfg, p.key.UserStream(SubsysSchedule, i))
	if err != nil {
		return nil, fmt.Errorf("load: itinerary for %s: %w", id, err)
	}

	sensors := trace.NewSensors(p.world, it, p.sensorCfg, p.key.UserStream(SubsysSensors, i))
	interval := time.Duration(p.spec.ObsIntervalSec) * time.Second
	end := simclock.Epoch.AddDate(0, 0, p.spec.TraceDays)
	var obs []trace.GSMObservation
	for t := simclock.Epoch; t.Before(end); t = t.Add(interval) {
		obs = append(obs, sensors.SampleGSM(t))
	}

	profiles, err := dayProfiles(id, it, p.venueLabel(home, work))
	if err != nil {
		return nil, err
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("load: user %s produced no day profiles", id)
	}

	return &SimUser{
		Idx:         i,
		ID:          id,
		IMEI:        imei,
		Email:       email,
		Trace:       obs,
		Profiles:    profiles,
		QueryPlaces: profiles[0].DistinctPlaces(),
	}, nil
}

// venueLabel resolves a visit's venue kind for profile labels, covering the
// user's private venues plus the shared world.
func (p *Population) venueLabel(home, work *world.Venue) func(string) string {
	return func(venueID string) string {
		switch venueID {
		case home.ID:
			return home.Kind.String()
		case work.ID:
			return work.Kind.String()
		}
		if v := p.world.VenueByID(venueID); v != nil {
			return v.Kind.String()
		}
		return ""
	}
}

// dayProfiles converts an itinerary's significant visits into one validated
// DayProfile per day, splitting visits at midnight (profile.Validate
// requires every entry inside its day). Days with no significant visit are
// skipped; day 0 always has one, because every itinerary opens with the
// overnight home dwell.
func dayProfiles(userID string, it *mobility.Itinerary, label func(string) string) ([]*profile.DayProfile, error) {
	b := profile.NewBuilder(userID)
	for _, v := range it.SignificantVisits(minStay) {
		b.AddVisit(v.VenueID, label(v.VenueID), v.Arrive, v.Depart)
	}
	days := b.Days()
	for _, d := range days {
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("load: synthesized profile invalid for %s %s: %w", userID, d.Date, err)
		}
	}
	return days, nil
}

package cloud

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"repro/internal/profile"
)

// This file is the journaling side of the Store: the WAL record schema, the
// two shard-state kinds the storage engine manages (registration keyspace,
// per-user data keyspace), and the deep-copy helpers that keep journaled
// state isolated from callers.

// WAL op codes. These are a persistence format: renaming one breaks replay
// of existing data directories.
const (
	opRegister    = "register"
	opSetPlaces   = "set_places"
	opLabelPlace  = "label_place"
	opSetRoutes   = "set_routes"
	opPutProfile  = "put_profile"
	opAddContacts = "add_contacts"
	opSyncUser    = "sync_user" // cluster resync/handoff: replace one user's data wholesale
	opDropUser    = "drop_user" // cluster handoff: remove one user's data from this node
	opDropMeta    = "drop_meta" // cluster handoff: remove one user's registration
)

// walRecord is the journaled form of every Store mutation. One struct for
// all ops keeps the codec trivial; unused fields are omitted from the JSON.
type walRecord struct {
	Op string `json:"op"`

	// opRegister
	User      *User  `json:"user,omitempty"`
	DeviceKey string `json:"device_key,omitempty"`

	// data ops
	UserID     string              `json:"user_id,omitempty"`
	Places     []PlaceWire         `json:"places,omitempty"`
	PlaceID    int                 `json:"place_id,omitempty"`
	Label      string              `json:"label,omitempty"`
	Routes     []RouteWire         `json:"routes,omitempty"`
	Profile    *profile.DayProfile `json:"profile,omitempty"`
	Encounters []profile.Encounter `json:"encounters,omitempty"`

	// opSyncUser: the user's whole per-day history (Places/Routes/Encounters
	// above carry the rest of the wholesale state).
	Profiles map[string]*profile.DayProfile `json:"profiles,omitempty"`
}

// metaState is shard 0: the registration keyspace.
type metaState struct {
	users    map[string]*User  // user id -> user
	byDevice map[string]string // imei|email -> user id
}

func newMetaState() *metaState {
	return &metaState{users: map[string]*User{}, byDevice: map[string]string{}}
}

// metaSnapshot is the persisted form of metaState.
type metaSnapshot struct {
	Users    map[string]*User  `json:"users"`
	ByDevice map[string]string `json:"by_device"`
}

func (m *metaState) apply(rec *walRecord) error {
	switch rec.Op {
	case opRegister:
		if rec.User == nil || rec.User.ID == "" {
			return fmt.Errorf("cloud: register record without user")
		}
		m.users[rec.User.ID] = rec.User
		m.byDevice[rec.DeviceKey] = rec.User.ID
	case opDropMeta:
		delete(m.users, rec.UserID)
		delete(m.byDevice, rec.DeviceKey)
	default:
		return fmt.Errorf("cloud: meta shard cannot apply op %q", rec.Op)
	}
	return nil
}

func (m *metaState) Apply(b []byte) error {
	var rec walRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return fmt.Errorf("cloud: decode meta record: %w", err)
	}
	return m.apply(&rec)
}

func (m *metaState) Snapshot() ([]byte, error) {
	return json.Marshal(metaSnapshot{Users: m.users, ByDevice: m.byDevice})
}

func (m *metaState) Restore(b []byte) error { return m.RestoreStream(bytes.NewReader(b)) }

// dataState is one data shard: the per-user mobility keyspace for the users
// hashed onto it, plus the derived state apply maintains alongside it — the
// per-user analytics index and the places change-version counters the
// popular-places cache invalidates on. Derived state is never journaled or
// snapshotted: replay and restore rebuild it through apply/install.
type dataState struct {
	places   map[string][]PlaceWire
	routes   map[string][]RouteWire
	profiles map[string]map[string]*profile.DayProfile // user id -> date -> profile
	contacts map[string][]profile.Encounter

	idx       map[string]*userIndex // user id -> materialized analytics index
	placesGen map[string]uint64     // user id -> generation of places[user]
	ver       uint64                // bumped on every places change; never reset

	// snapViews counts outstanding off-lock snapshot views (snapview.go).
	// While non-zero, apply copy-on-writes the inner structures a view may
	// share instead of mutating them in place. A pointer so the count
	// survives install's *d = *fresh value copy only when the maps it guards
	// do — install replaces every map wholesale, so its fresh zero counter
	// correctly stops the copy-on-write for structures no view references.
	snapViews *int32
}

func newDataState() *dataState {
	return &dataState{
		places:    map[string][]PlaceWire{},
		routes:    map[string][]RouteWire{},
		profiles:  map[string]map[string]*profile.DayProfile{},
		contacts:  map[string][]profile.Encounter{},
		idx:       map[string]*userIndex{},
		placesGen: map[string]uint64{},
		snapViews: new(int32),
	}
}

// bumpPlaces marks the user's places as changed. ver only ever grows (even
// across install), so a (user, gen) pair is never reissued and stale cache
// hits are impossible.
func (d *dataState) bumpPlaces(userID string) {
	d.ver++
	d.placesGen[userID] = d.ver
}

// dataSnapshot is the persisted form of dataState.
type dataSnapshot struct {
	Places   map[string][]PlaceWire                    `json:"places"`
	Routes   map[string][]RouteWire                    `json:"routes"`
	Profiles map[string]map[string]*profile.DayProfile `json:"profiles"`
	Contacts map[string][]profile.Encounter            `json:"contacts"`
}

// apply is the single mutation path: live Store calls and crash-recovery
// replay both go through it, so a replayed log reproduces the exact state
// the acknowledged calls built.
func (d *dataState) apply(rec *walRecord) error {
	switch rec.Op {
	case opSetPlaces:
		// Carry labels from the previous generation by place ID (discovery
		// is a whole-history recomputation; labels are user input).
		labels := map[int]string{}
		for _, p := range d.places[rec.UserID] {
			if p.Label != "" {
				labels[p.ID] = p.Label
			}
		}
		for i := range rec.Places {
			if rec.Places[i].Label == "" {
				rec.Places[i].Label = labels[rec.Places[i].ID]
			}
		}
		d.places[rec.UserID] = rec.Places
		d.bumpPlaces(rec.UserID)
	case opLabelPlace:
		ps := d.places[rec.UserID]
		for i := range ps {
			if ps[i].ID == rec.PlaceID {
				// Clone-modify-replace rather than writing in place: an
				// off-lock snapshot view (snapview.go) may share this slice.
				ps = slices.Clone(ps)
				ps[i].Label = rec.Label
				d.places[rec.UserID] = ps
				d.bumpPlaces(rec.UserID)
				return nil
			}
		}
		return fmt.Errorf("cloud: user %s has no place %d", rec.UserID, rec.PlaceID)
	case opSetRoutes:
		d.routes[rec.UserID] = rec.Routes
	case opPutProfile:
		if rec.Profile == nil {
			return fmt.Errorf("cloud: put_profile record without profile")
		}
		days := d.profiles[rec.UserID]
		switch {
		case days == nil:
			days = map[string]*profile.DayProfile{}
			d.profiles[rec.UserID] = days
		case atomic.LoadInt32(d.snapViews) > 0:
			// An off-lock snapshot encoder may be reading this user's day
			// map (snapview.go shares inner maps); write a copy instead.
			days = maps.Clone(days)
			d.profiles[rec.UserID] = days
		}
		days[rec.Profile.Date] = rec.Profile
		ux := d.idx[rec.UserID]
		if ux == nil {
			ux = newUserIndex()
			d.idx[rec.UserID] = ux
		}
		ux.putDay(rec.Profile)
	case opAddContacts:
		d.contacts[rec.UserID] = append(d.contacts[rec.UserID], rec.Encounters...)
	case opSyncUser:
		// Wholesale replacement of one user (cluster resync/handoff). Only
		// this user's entries change; the rest of the shard — which may be
		// primary data owned by the receiving node — is untouched.
		if rec.Places == nil {
			delete(d.places, rec.UserID)
		} else {
			d.places[rec.UserID] = rec.Places
		}
		if rec.Routes == nil {
			delete(d.routes, rec.UserID)
		} else {
			d.routes[rec.UserID] = rec.Routes
		}
		if rec.Profiles == nil {
			delete(d.profiles, rec.UserID)
			delete(d.idx, rec.UserID)
		} else {
			d.profiles[rec.UserID] = rec.Profiles
			d.idx[rec.UserID] = buildUserIndex(rec.Profiles)
		}
		if rec.Encounters == nil {
			delete(d.contacts, rec.UserID)
		} else {
			d.contacts[rec.UserID] = rec.Encounters
		}
		d.bumpPlaces(rec.UserID)
	case opDropUser:
		delete(d.places, rec.UserID)
		delete(d.routes, rec.UserID)
		delete(d.profiles, rec.UserID)
		delete(d.contacts, rec.UserID)
		delete(d.idx, rec.UserID)
		delete(d.placesGen, rec.UserID)
		d.ver++
	default:
		return fmt.Errorf("cloud: data shard cannot apply op %q", rec.Op)
	}
	return nil
}

func (d *dataState) install(snap *dataSnapshot) {
	fresh := newDataState()
	if snap.Places != nil {
		fresh.places = snap.Places
	}
	if snap.Routes != nil {
		fresh.routes = snap.Routes
	}
	if snap.Profiles != nil {
		fresh.profiles = snap.Profiles
	}
	if snap.Contacts != nil {
		fresh.contacts = snap.Contacts
	}
	// Rebuild derived state. ver keeps growing across the install so no
	// (user, gen) pair issued before it can collide with one issued after.
	fresh.ver = d.ver + 1
	for u := range fresh.places {
		fresh.placesGen[u] = fresh.ver
	}
	for u, days := range fresh.profiles {
		fresh.idx[u] = buildUserIndex(days)
	}
	*d = *fresh
}

func (d *dataState) Apply(b []byte) error {
	var rec walRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return fmt.Errorf("cloud: decode data record: %w", err)
	}
	return d.apply(&rec)
}

func (d *dataState) Snapshot() ([]byte, error) {
	return json.Marshal(dataSnapshot{
		Places:   d.places,
		Routes:   d.routes,
		Profiles: d.profiles,
		Contacts: d.contacts,
	})
}

func (d *dataState) Restore(b []byte) error { return d.RestoreStream(bytes.NewReader(b)) }

// clonePlace deep-copies one place, detaching every slice.
func clonePlace(p PlaceWire) PlaceWire {
	p.Signature = slices.Clone(p.Signature)
	p.Cells = slices.Clone(p.Cells)
	p.Visits = slices.Clone(p.Visits)
	return p
}

func clonePlaces(ps []PlaceWire) []PlaceWire {
	if ps == nil {
		return nil
	}
	out := make([]PlaceWire, len(ps))
	for i, p := range ps {
		out[i] = clonePlace(p)
	}
	return out
}

// cloneRoute deep-copies one route: the Trips and Cells slices no longer
// alias store state, so a caller mutation cannot corrupt journaled data.
func cloneRoute(r RouteWire) RouteWire {
	r.Cells = slices.Clone(r.Cells)
	r.Trips = slices.Clone(r.Trips)
	return r
}

func cloneRoutes(rs []RouteWire) []RouteWire {
	if rs == nil {
		return nil
	}
	out := make([]RouteWire, len(rs))
	for i, r := range rs {
		out[i] = cloneRoute(r)
	}
	return out
}

// cloneProfile deep-copies a day profile (entry slices are flat structs, so
// one level of slice cloning fully detaches it).
func cloneProfile(p *profile.DayProfile) *profile.DayProfile {
	if p == nil {
		return nil
	}
	q := *p
	q.Places = slices.Clone(p.Places)
	q.Routes = slices.Clone(p.Routes)
	q.Contacts = slices.Clone(p.Contacts)
	if p.Activity != nil {
		a := *p.Activity
		q.Activity = &a
	}
	return &q
}

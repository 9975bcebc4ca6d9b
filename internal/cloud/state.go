package cloud

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/profile"
)

// This file is the journaling side of the Store: the two shard-state kinds
// the storage engine manages (registration keyspace, per-user data keyspace),
// their single mutation path, and the deep-copy helpers that keep journaled
// state isolated from callers. The record they apply is record.go's.

// metaState is shard 0: the registration keyspace.
type metaState struct {
	users    map[string]*User  // user id -> user
	byDevice map[string]string // imei|email -> user id
}

func newMetaState() *metaState {
	return &metaState{users: map[string]*User{}, byDevice: map[string]string{}}
}

func (m *metaState) apply(rec *record) error {
	switch rec.Op {
	case opRegister:
		if rec.UserID == "" {
			return fmt.Errorf("cloud: register record without user")
		}
		m.users[rec.UserID] = &User{ID: rec.UserID, IMEI: rec.IMEI, Email: rec.Email}
		m.byDevice[deviceKey(rec.IMEI, rec.Email)] = rec.UserID
	case opDropMeta:
		if u := m.users[rec.UserID]; u != nil {
			delete(m.byDevice, deviceKey(u.IMEI, u.Email))
			delete(m.users, rec.UserID)
		}
	default:
		return fmt.Errorf("cloud: meta shard cannot apply a %v record", rec.Op)
	}
	return nil
}

func (m *metaState) Apply(b []byte) error { return applyEncoded(b, m.apply) }

func (m *metaState) Snapshot() ([]byte, error) { return snapshotBytes(m) }

func (m *metaState) Restore(b []byte) error { return m.RestoreStream(bytes.NewReader(b)) }

// dataState is one data shard: the per-user mobility keyspace for the users
// hashed onto it, plus the derived state apply maintains alongside it — the
// per-user analytics index and the places change-version counters the
// popular-places cache invalidates on. Derived state is never journaled or
// snapshotted: replay and restore rebuild it through apply.
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
	// survives a restore's *d = *fresh value copy only when the maps it
	// guards do — a restore replaces every map wholesale, so its fresh zero
	// counter correctly stops the copy-on-write for structures no view
	// references.
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
// across a restore), so a (user, gen) pair is never reissued and stale cache
// hits are impossible.
func (d *dataState) bumpPlaces(userID string) {
	d.ver++
	d.placesGen[userID] = d.ver
}

// setOrDelete stores a user's list, or removes the user's entry when the list
// is empty: the state never holds an empty entry, so a user is present exactly
// when there is something to snapshot and restore(snapshot) is the identity.
func setOrDelete[V any](m map[string][]V, userID string, v []V) {
	if len(v) == 0 {
		delete(m, userID)
	} else {
		m[userID] = v
	}
}

// apply is the single mutation path: live Store calls and crash-recovery
// replay both go through it, so a replayed log reproduces the exact state
// the acknowledged calls built.
func (d *dataState) apply(rec *record) error {
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
		setOrDelete(d.places, rec.UserID, rec.Places)
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
		setOrDelete(d.routes, rec.UserID, rec.Routes)
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
		if len(rec.Encounters) > 0 {
			d.contacts[rec.UserID] = append(d.contacts[rec.UserID], rec.Encounters...)
		}
	case opSyncUser:
		// Wholesale replacement of one user (cluster resync/handoff, and
		// every user of a snapshot). Only this user's entries change; the
		// rest of the shard — which may be primary data owned by the
		// receiving node — is untouched.
		setOrDelete(d.places, rec.UserID, rec.Places)
		setOrDelete(d.routes, rec.UserID, rec.Routes)
		setOrDelete(d.contacts, rec.UserID, rec.Encounters)
		delete(d.profiles, rec.UserID)
		delete(d.idx, rec.UserID)
		if len(rec.Profiles) > 0 {
			days := make(map[string]*profile.DayProfile, len(rec.Profiles))
			ux := newUserIndex()
			for _, p := range rec.Profiles {
				days[p.Date] = p
				ux.putDay(p)
			}
			d.profiles[rec.UserID], d.idx[rec.UserID] = days, ux
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
		return fmt.Errorf("cloud: data shard cannot apply a %v record", rec.Op)
	}
	return nil
}

func (d *dataState) Apply(b []byte) error { return applyEncoded(b, d.apply) }

func (d *dataState) Snapshot() ([]byte, error) { return snapshotBytes(d) }

func (d *dataState) Restore(b []byte) error { return d.RestoreStream(bytes.NewReader(b)) }

// syncUserRecord is the wholesale record of one user's data — what a resync
// or handoff ships and a snapshot stores — with the days in date order.
func syncUserRecord(userID string, places []PlaceWire, routes []RouteWire, days map[string]*profile.DayProfile, contacts []profile.Encounter) *record {
	rec := &record{Op: opSyncUser, UserID: userID, Places: places, Routes: routes, Encounters: contacts}
	if len(days) > 0 {
		rec.Profiles = make([]*profile.DayProfile, 0, len(days))
		for _, p := range days {
			rec.Profiles = append(rec.Profiles, p)
		}
		slices.SortFunc(rec.Profiles, func(a, b *profile.DayProfile) int { return strings.Compare(a.Date, b.Date) })
	}
	return rec
}

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

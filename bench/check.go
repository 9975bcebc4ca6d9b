package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cloud"
	"repro/internal/gsm"
	"repro/internal/load"
	"repro/internal/profile"
)

// checkSample bounds how many sessions the after-run checks read back.
const checkSample = 64

// sampled returns the sessions the checks read back: a seeded sample of the
// users whose session state is final (all closed-loop users; completed
// open-loop sessions).
func (e *env) sampled() []*vuser {
	var final []*vuser
	for _, vu := range e.vus {
		if !e.w.open || vu.complete {
			final = append(final, vu)
		}
	}
	r := load.Key{Seed: e.seed}.Stream("bench-check")
	r.Shuffle(len(final), func(i, j int) { final[i], final[j] = final[j], final[i] })
	return final[:min(len(final), checkSample)]
}

// reader is the read surface a check compares against the session's
// expectations: the live PCI through the user's client, or a reopened copy of
// a data directory through the Store.
type reader struct {
	profiles func(vu *vuser) ([]*profile.DayProfile, error)
	places   func(vu *vuser) ([]cloud.PlaceWire, error)
}

func (e *env) clientReader() reader {
	return reader{
		profiles: func(vu *vuser) ([]*profile.DayProfile, error) { return vu.client.ProfileRange("", "") },
		places:   func(vu *vuser) ([]cloud.PlaceWire, error) { return vu.client.Places() },
	}
}

func storeReader(s *cloud.Store) reader {
	return reader{
		profiles: func(vu *vuser) ([]*profile.DayProfile, error) {
			return s.ProfileRange(vu.client.UserID(), "", ""), nil
		},
		places: func(vu *vuser) ([]cloud.PlaceWire, error) { return s.Places(vu.client.UserID()), nil },
	}
}

// verify checks one session against a reader: the profile range holds exactly
// the last variant put per date, and the places are what the last discover
// returned, carrying the last label set on each.
func (e *env) verify(vu *vuser, rd reader) error {
	got, err := rd.profiles(vu)
	if err != nil {
		return err
	}
	if len(got) != len(vu.put) {
		return fmt.Errorf("user %d: %d profile days, want %d", vu.id, len(got), len(vu.put))
	}
	for _, p := range got {
		variant, ok := vu.put[p.Date]
		if !ok {
			return fmt.Errorf("user %d: unexpected profile for %s", vu.id, p.Date)
		}
		var want *profile.DayProfile
		for d := range vu.tmpl.profiles {
			if vu.tmpl.profiles[d][variant].Date == p.Date {
				want = vu.tmpl.profiles[d][variant]
			}
		}
		if !sameVisits(p.Places, want.Places) {
			return fmt.Errorf("user %d: profile %s is not the last one put (variant %d)", vu.id, p.Date, variant)
		}
	}
	places, err := rd.places(vu)
	if err != nil {
		return err
	}
	if len(places) != len(vu.places) {
		return fmt.Errorf("user %d: %d places, want %d", vu.id, len(places), len(vu.places))
	}
	for i, w := range places {
		if err := samePlace(w, vu.places[i], vu.labels[w.ID]); err != nil {
			return fmt.Errorf("user %d: %w", vu.id, err)
		}
	}
	return nil
}

func sameVisits(a, b []profile.PlaceVisit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].PlaceID != b[i].PlaceID || a[i].Label != b[i].Label || !a[i].Arrive.Equal(b[i].Arrive) || !a[i].Depart.Equal(b[i].Depart) {
			return false
		}
	}
	return true
}

func samePlace(got cloud.PlaceWire, want *gsm.Place, label string) error {
	if got.ID != want.ID || len(got.Cells) != len(want.AllCells) || len(got.Visits) != len(want.Visits) {
		return fmt.Errorf("place %d differs from the last discover result", want.ID)
	}
	for _, c := range got.Cells {
		if !want.HasCell(c) {
			return fmt.Errorf("place %d has cell %v the last discover did not return", want.ID, c)
		}
	}
	for i, v := range got.Visits {
		if !v.Arrive.Equal(want.Visits[i].Arrive) || !v.Depart.Equal(want.Visits[i].Depart) {
			return fmt.Errorf("place %d visit %d differs from the last discover result", want.ID, i)
		}
	}
	if got.Label != label {
		return fmt.Errorf("place %d label %q, want %q", want.ID, got.Label, label)
	}
	return nil
}

// checkReadAfterWrite is check (a): through the live PCI, every sampled
// session reads back its last writes, and per-place analytics answer for
// every query place.
func (e *env) checkReadAfterWrite(sample []*vuser) error {
	rd := e.clientReader()
	for _, vu := range sample {
		if err := e.verify(vu, rd); err != nil {
			return err
		}
		if len(vu.put) == 0 {
			continue
		}
		for _, place := range vu.tmpl.queryPlaces {
			if resp, err := vu.client.PredictArrival(place); err != nil || resp.SampleCount < 1 {
				return fmt.Errorf("user %d: predict arrival %s: %+v %v", vu.id, place, resp, err)
			}
		}
	}
	return nil
}

// checkEvents is check (d): every subscription saw its user's events in Seq
// order from 1 with no gap, and as many as the stream calls published.
func (e *env) checkEvents() error {
	for _, vu := range e.vus {
		if vu.sub == nil || !vu.complete {
			continue
		}
		evs := vu.sub.events
		if len(evs) != vu.sub.expected {
			return fmt.Errorf("user %d: received %d events, streams published %d", vu.id, len(evs), vu.sub.expected)
		}
		for i, r := range evs {
			if r.seq != uint64(i+1) {
				return fmt.Errorf("user %d: event %d has seq %d", vu.id, i, r.seq)
			}
		}
	}
	return nil
}

// recoverReps bounds how often the recovery leg reopens a copy; it stops
// early once a second of recovery has been measured.
const recoverReps = 5

// checkRecovery is checks (b) and (c). Each node's data directory is copied
// file by file while the store is still open — no Close, no Sync — and the
// copy is reopened with cloud.OpenStore, timed. Every sampled acknowledged
// write must be readable from a copy: from the single node's, or in a cluster
// from the follower's (the node that is not the user's primary), which is
// follower equivalence once replication lag has drained. Returns the median
// OpenStore wall time.
func (e *env) checkRecovery(sample []*vuser) (float64, error) {
	for _, nd := range e.pci.nodes {
		// timedPhase waited for the stream to drain; nothing has written since.
		if nd.cnode != nil && nd.cnode.Lag() != 0 {
			return 0, fmt.Errorf("node %s: replication lag did not drain", nd.id)
		}
	}
	cfg := e.w.storeConfig()
	cfg.StableIDs = e.w.cluster
	var times []float64
	var total time.Duration
	for rep := 0; rep < recoverReps && total < time.Second; rep++ {
		stores := make([]*cloud.Store, len(e.pci.nodes))
		var repTime time.Duration
		for i, nd := range e.pci.nodes {
			dst := filepath.Join(e.dir, fmt.Sprintf("copy-%d-%s", rep, nd.id))
			if err := copyLive(nd.dir, dst); err != nil {
				return 0, err
			}
			t0 := time.Now()
			s, err := cloud.OpenStore(dst, cfg)
			repTime += time.Since(t0)
			if err != nil {
				return 0, fmt.Errorf("reopen copy of %s: %w", nd.id, err)
			}
			stores[i] = s
		}
		times = append(times, repTime.Seconds())
		total += repTime
		var err error
		if rep == 0 {
			err = e.verifyCopies(sample, stores)
		}
		for _, s := range stores {
			_ = s.Close()
		}
		if err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

func (e *env) verifyCopies(sample []*vuser, stores []*cloud.Store) error {
	for _, vu := range sample {
		s := stores[0]
		if e.w.cluster {
			ring := e.pci.nodes[0].cnode.Ring()
			for i, nd := range e.pci.nodes {
				if nd.id != ring.PrimaryID(vu.client.UserID()) {
					s = stores[i]
				}
			}
		}
		if err := e.verify(vu, storeReader(s)); err != nil {
			return fmt.Errorf("reopened copy: %w", err)
		}
	}
	return nil
}

// copyLive copies a data directory under a live store. A compaction finishing
// mid-walk can delete a file between the directory listing and the read; the
// copy is then stale as a whole, so it is retried from scratch.
func copyLive(src, dst string) error {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		if err = os.RemoveAll(dst); err != nil {
			return err
		}
		if err = copyTree(src, dst); err == nil || !os.IsNotExist(err) {
			return err
		}
	}
	return err
}

package core

import (
	"time"

	"repro/internal/geo"
	"repro/internal/gsm"
	"repro/internal/profile"
	"repro/internal/route"
	"repro/internal/wifi"
)

// nightlyDiscovery is the once-a-day heavy pass (paper Section 2.3.1: GCA
// "is computationally heavy and mobile service offloads this computation to
// the cloud instance"; "this is one time computation and after discovery of
// place signatures, mobile service can track user's visit in those places").
//
// It (re-)runs GCA over the accumulated GSM trace (via the cloud when
// connected), fuses the result with the online WiFi places, refreshes the
// unified place store and the live tracker, extracts routes, rebuilds day
// profiles, and syncs finished days to the cloud.
func (s *Service) nightlyDiscovery() {
	if len(s.gsmObs) == 0 {
		return
	}
	s.discoveriesRun++
	s.m.discoveries.Inc()

	// 1. Place discovery: offload GCA when a cloud is connected, falling
	// back to on-device computation on error.
	var gsmPlaces []*gsm.Place
	if s.cloud != nil {
		if places, err := s.cloud.DiscoverPlaces(s.gsmObs); err == nil {
			gsmPlaces = places
			// The link is demonstrably up: drain any uploads a previous
			// (failed) sync left in the outbox before profiles are rebuilt.
			s.flushOutbox()
		}
	}
	if gsmPlaces == nil {
		gsmPlaces = s.localDiscover().Places
	}
	s.gsmPlaces = gsmPlaces

	// 2. Rediscovery invalidates place identities: if the user is currently
	// "at" a place, close that visit for connected apps before the store is
	// replaced, so their arrival/departure state machines stay paired. The
	// tracker re-emits an arrival under the new identity within minutes.
	if s.currentPlace != "" {
		if prev := s.placeByID(s.currentPlace); prev != nil {
			s.broadcastPlace(ActionPlaceDeparture, s.placeInfo(prev))
		}
		s.currentPlace = ""
	}

	// 3. Fuse with opportunistic WiFi evidence. Consolidate the online
	// detector's places first: signature drift can split one venue across
	// duplicate WiFi records, which would wrongly divide GSM places.
	wifiPlaces := wifi.Consolidate(s.wifiDetector.Places(), s.cfg.WiFiParams.MatchSim)
	fused := FuseGSMWiFi(gsmPlaces, wifiPlaces)
	sortPlacesByFirstVisit(fused)

	// 3. Carry user labels and detect new places: a fused place inherits the
	// label of an old place whose visits it covers.
	newPlaces := s.adoptPlaces(fused)

	// 4. Geolocate place centers through the cloud geo service.
	s.geolocatePlaces()

	// 5. Refresh the live tracker with the new signatures.
	s.tracker = gsm.NewTracker(gsmPlaces)
	s.currentGSM = -1

	// 6. Routes: low-accuracy extraction from the GSM trace between fused
	// visits. (High-accuracy routes accumulate live.)
	s.routesGSM = route.ExtractGSM(s.gsmObs, s.visitIntervals(), s.cfg.RouteParams)

	// 7. Rebuild day profiles from the authoritative fused visits.
	s.rebuildProfiles()

	// 8. Announce new places.
	for _, up := range newPlaces {
		s.broadcastPlace(ActionNewPlace, s.placeInfo(up))
	}

	// 9. Sync finished days.
	s.syncProfiles()
}

// localDiscover runs GCA on-device over the accumulated trace — the
// fallback when no cloud is connected or the offload failed. It extends the
// cached incremental pipeline with only the observations accumulated since
// the last pass (output-identical to batch gsm.Discover), rebuilding from
// scratch if the pipeline somehow got ahead of the trace.
func (s *Service) localDiscover() *gsm.Result {
	if s.gsmPipe == nil || s.gsmPipe.Len() > len(s.gsmObs) {
		s.gsmPipe = gsm.NewPipeline(s.cfg.GSMParams)
	}
	s.gsmPipe.Extend(s.gsmObs[s.gsmPipe.Len():])
	return s.gsmPipe.Result()
}

// adoptPlaces installs the fused places as the unified store, carrying over
// labels from the previous generation by visit containment, and returns the
// places that are genuinely new (no visit overlap with any previous place).
func (s *Service) adoptPlaces(fused []*UnifiedPlace) []*UnifiedPlace {
	old := s.places
	var newPlaces []*UnifiedPlace
	for _, np := range fused {
		match := bestOverlappingPlace(np, old)
		if match == nil {
			newPlaces = append(newPlaces, np)
			continue
		}
		if match.Label != "" && np.Label == "" {
			np.Label = match.Label
		}
	}
	s.places = fused
	// Rebuild the label index keyed by the new IDs.
	s.labels = map[string]string{}
	for _, p := range s.places {
		if p.Label != "" {
			s.labels[p.ID] = p.Label
		}
	}
	// currentPlace may refer to a stale ID; remap it by overlap.
	if s.currentPlace != "" {
		s.currentPlace = ""
	}
	return newPlaces
}

// bestOverlappingPlace returns the old place sharing the most visit time
// with np, or nil when none overlaps meaningfully.
func bestOverlappingPlace(np *UnifiedPlace, old []*UnifiedPlace) *UnifiedPlace {
	var best *UnifiedPlace
	var bestOv time.Duration
	for _, op := range old {
		var ov time.Duration
		for _, nv := range np.Visits {
			for _, ovst := range op.Visits {
				ov += overlapDuration(nv.Arrive, nv.Depart, ovst.Arrive, ovst.Depart)
			}
		}
		if ov > bestOv {
			bestOv, best = ov, op
		}
	}
	if bestOv < fuseMinOverlap {
		return nil
	}
	return best
}

// geolocatePlaces estimates each place's coordinates by averaging the
// geolocated positions of its GSM signature cells (the cloud's geo-location
// API converts Cell IDs into approximate coordinates, Section 2.3.3). Each
// cell is asked once, until an answer succeeds.
func (s *Service) geolocatePlaces() {
	if s.cloud == nil {
		return
	}
	byID := map[int]*gsm.Place{}
	for _, gp := range s.gsmPlaces {
		byID[gp.ID] = gp
	}
	for _, up := range s.places {
		gp, ok := byID[up.GSMPlaceID]
		if !ok {
			continue
		}
		var pts []geo.LatLng
		for _, c := range gp.Signature {
			pos, ok := s.cellPos[c]
			if !ok {
				var err error
				if pos, _, err = s.cloud.GeolocateCell(c); err != nil {
					continue
				}
				s.cellPos[c] = pos
			}
			if !pos.IsZero() {
				pts = append(pts, pos)
			}
		}
		if len(pts) > 0 {
			up.Center = geo.Centroid(pts)
		}
	}
}

// visitIntervals returns every fused visit as a sorted interval list for
// route extraction.
func (s *Service) visitIntervals() []route.Interval {
	var out []route.Interval
	for _, p := range s.places {
		for _, v := range p.Visits {
			out = append(out, route.Interval{Start: v.Arrive, End: v.Depart})
		}
	}
	sortIntervals(out)
	return out
}

func sortIntervals(iv []route.Interval) {
	for i := 1; i < len(iv); i++ {
		for j := i; j > 0 && iv[j].Start.Before(iv[j-1].Start); j-- {
			iv[j], iv[j-1] = iv[j-1], iv[j]
		}
	}
}

// rebuildProfiles regenerates the day-profile builder from the fused places,
// discovered routes, and accumulated encounters.
func (s *Service) rebuildProfiles() {
	b := profile.NewBuilder(s.cfg.UserID)
	for _, p := range s.places {
		for _, v := range p.Visits {
			b.AddVisit(p.ID, p.Label, v.Arrive, v.Depart)
		}
	}
	for _, r := range s.routesGSM {
		for _, t := range r.Trips {
			b.AddRoute(routeID("gsm", r.ID), t.Start, t.End)
		}
	}
	for _, r := range s.routesGPS {
		for _, t := range r.Trips {
			b.AddRoute(routeID("gps", r.ID), t.Start, t.End)
		}
	}
	for _, e := range s.encounters {
		b.AddEncounter(e.PeerID, e.PlaceID, e.Start, e.End)
	}
	for _, a := range s.activityLog {
		b.AddActivity(a.At, a.Moving)
	}
	s.profiles = b
}

// syncProfiles queues every complete (i.e. before today) unsynced day
// profile in the outbox and drains it. A day that fails to upload stays
// queued — nothing is lost to a flaky link; it goes out on the next
// successful flush (opportunistic or next nightly).
func (s *Service) syncProfiles() {
	if s.cloud == nil {
		return
	}
	today := s.clock.Now().Format(profile.DateFormat)
	for _, d := range s.profiles.Days() {
		if d.Date >= today || s.synced[d.Date] {
			continue
		}
		s.outbox.Add(d.Date)
	}
	s.flushOutbox()
}

// flushOutbox drains the queued profile uploads in date order, stopping at
// the first failure (the link is presumed down; the rest keep their place).
func (s *Service) flushOutbox() {
	if s.cloud == nil || s.outbox.Pending() == 0 {
		return
	}
	byDate := map[string]*profile.DayProfile{}
	for _, d := range s.profiles.Days() {
		byDate[d.Date] = d
	}
	_, err := s.outbox.Flush(
		func(date string) *profile.DayProfile { return byDate[date] },
		func(p *profile.DayProfile) error {
			if err := s.cloud.SyncProfile(p); err != nil {
				return err
			}
			s.synced[p.Date] = true
			return nil
		},
	)
	if err != nil {
		s.cloudSyncErrors++
		s.m.syncErrors.Inc()
	}
}

// FlushOutbox retries queued profile uploads immediately (connected apps can
// call this when they observe connectivity return). It reports how many
// uploads went through.
func (s *Service) FlushOutbox() int {
	before := s.outbox.Flushed()
	s.flushOutbox()
	return s.outbox.Flushed() - before
}

// Outbox exposes the pending-upload queue (read-mostly; owned by the
// service's single-threaded loop).
func (s *Service) Outbox() *Outbox { return s.outbox }

// CloudSyncErrors reports how many sync passes hit an upload failure.
func (s *Service) CloudSyncErrors() int { return s.cloudSyncErrors }

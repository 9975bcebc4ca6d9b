package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/energy"
	"repro/internal/geo"
	"repro/internal/gsm"
	"repro/internal/route"
	"repro/internal/simclock"
	"repro/internal/social"
	"repro/internal/wifi"
)

// gsmTick is the base sampler: GSM is tracked continuously because the modem
// is camped on the network anyway (Section 2.2.2).
func (s *Service) gsmTick(c *simclock.Clock) {
	obs := s.sensors.SampleGSM(c.Now())
	s.meter.Charge(energy.GSM, 1)
	s.gsmObs = append(s.gsmObs, obs)

	if s.tracker == nil {
		return
	}
	for _, ev := range s.tracker.Observe(obs) {
		switch ev.Kind {
		case gsm.Arrival:
			s.currentGSM = ev.PlaceID
			if up := s.resolveUnifiedByGSM(ev.PlaceID); up != nil {
				s.liveArrival(up, ev.At)
			}
		case gsm.Departure:
			s.currentGSM = -1
			if up := s.resolveUnifiedByGSM(ev.PlaceID); up != nil {
				s.liveDeparture(up, ev.At)
			}
		}
	}
}

// accelTick drives the movement detector when any active requirement needs
// triggering (building-level accuracy or high-accuracy routes).
func (s *Service) accelTick(c *simclock.Clock) {
	if s.Prefs.Disabled() {
		return
	}
	d := s.Registry.DemandAt(c.Now())
	if !(d.Finest >= GranularityBuilding || d.Routes == RouteHigh) {
		return
	}
	sample := s.sensors.SampleActivity(c.Now())
	s.meter.Charge(energy.Accelerometer, 1)
	s.activityLog = append(s.activityLog, sample)

	// Debounce: a state change needs two consecutive agreeing samples, so
	// classifier noise does not fire bursts.
	if sample.Moving == s.moving {
		s.pendingMoves = 0
		return
	}
	s.pendingMoves++
	if s.pendingMoves < 2 {
		return
	}
	s.pendingMoves = 0
	s.moving = sample.Moving
	if s.moving {
		s.m.planMoving.Inc()
	} else {
		s.m.planStationary.Inc()
	}

	if s.moving {
		// Departure candidate: confirm with a WiFi burst; start route
		// tracking in high-accuracy mode.
		if d.Finest >= GranularityBuilding {
			s.burstLeft = s.cfg.WiFiBurstScans
		}
		if d.Routes == RouteHigh && !s.routeTracking {
			s.beginTrip(c)
		}
		return
	}
	// Arrival candidate: refine the new place with a WiFi burst; close any
	// tracked trip.
	if d.Finest >= GranularityBuilding {
		s.burstLeft = s.cfg.WiFiBurstScans
	}
	if s.routeTracking {
		s.endTrip(c.Now())
	}
}

// minuteTick runs the low-rate housekeeping: burst and opportunistic WiFi,
// room-level duty cycles, and social scans.
func (s *Service) minuteTick(c *simclock.Clock) {
	if s.Prefs.Disabled() {
		return
	}
	now := c.Now()
	d := s.Registry.DemandAt(now)

	// WiFi burst in progress.
	if s.burstLeft > 0 && d.Finest >= GranularityBuilding {
		s.burstLeft--
		s.doWiFiScan(now)
	} else if d.Finest == GranularityRoom && now.Sub(s.lastRoomWiFi) >= s.cfg.RoomWiFiEvery {
		s.lastRoomWiFi = now
		s.doWiFiScan(now)
	} else if d.Finest >= GranularityBuilding && now.Sub(s.lastWiFiScan) >= s.cfg.OpportunisticWiFiEvery {
		// Opportunistic scan: WiFi is on for data transfers anyway.
		s.doWiFiScan(now)
	}

	// Room-level accuracy additionally duty-cycles GPS.
	if d.Finest == GranularityRoom && now.Sub(s.lastRoomGPS) >= s.cfg.RoomGPSEvery {
		s.lastRoomGPS = now
		fix := s.sensors.SampleGPS(now)
		s.meter.Charge(energy.GPS, 1)
		if fix.Valid {
			s.gpsFix = append(s.gpsFix, fix)
		}
	}

	// Social discovery at tracked places.
	if d.Social && s.currentPlace != "" && now.Sub(s.lastBluetooth) >= s.cfg.BluetoothEvery {
		if d.SocialEverywhere || d.SocialTargets[s.currentPlace] {
			s.lastBluetooth = now
			peers := s.sensors.SampleBluetooth(now, s.cfg.Peers)
			s.meter.Charge(energy.Bluetooth, 1)
			closed := s.socialDetector.Observe(social.Sighting{At: now, PeerIDs: peers, PlaceID: s.currentPlace})
			s.recordEncounters(closed)
		}
	}
}

// doWiFiScan performs one scan, charges it, and feeds the SensLoc detector.
func (s *Service) doWiFiScan(now time.Time) {
	scan := s.sensors.SampleWiFi(now)
	s.meter.Charge(energy.WiFi, 1)
	s.lastWiFiScan = now

	for _, ev := range s.wifiDetector.Observe(scan) {
		up := s.resolveUnifiedByWiFi(ev.PlaceID)
		if up == nil {
			continue // place not yet in the unified store (pre-discovery)
		}
		switch ev.Kind {
		case wifiArrival:
			s.liveArrival(up, ev.At)
		case wifiDeparture:
			s.liveDeparture(up, ev.At)
		}
	}
}

// beginTrip starts high-accuracy route tracking: GPS fixes at
// RouteGPSInterval until the next arrival.
func (s *Service) beginTrip(c *simclock.Clock) {
	s.routeTracking = true
	s.tripStart = c.Now()
	s.tripFromPlace = s.currentPlace
	s.tripFixes = s.tripFixes[:0]
	s.tripTicker = c.Every(s.cfg.RouteGPSInterval, func(cl *simclock.Clock) {
		if !s.routeTracking {
			return
		}
		fix := s.sensors.SampleGPS(cl.Now())
		s.meter.Charge(energy.GPS, 1)
		if fix.Valid {
			s.tripFixes = append(s.tripFixes, fix)
			s.gpsFix = append(s.gpsFix, fix)
		}
	})
}

// endTrip closes the tracked trip, merges it into the route store, and
// broadcasts ActionRouteComplete.
func (s *Service) endTrip(now time.Time) {
	s.routeTracking = false
	if s.tripTicker != nil {
		s.tripTicker.Cancel()
		s.tripTicker = nil
	}
	if len(s.tripFixes) < 2 {
		return
	}
	var path geo.Polyline
	for _, f := range s.tripFixes {
		path = append(path, f.Pos)
	}
	path = path.Resample(s.cfg.RouteParams.ResampleM)

	// Merge into known GPS routes by geometry.
	var matched *route.GPSRoute
	bestD := s.cfg.RouteParams.GPSMatchDistanceM
	for _, r := range s.routesGPS {
		if d := geo.HausdorffDistance(r.Path, path); d <= bestD {
			matched, bestD = r, d
		}
	}
	trip := route.Trip{Start: s.tripStart, End: now}
	if matched == nil {
		matched = &route.GPSRoute{ID: len(s.routesGPS), Path: path, Trips: []route.Trip{trip}}
		s.routesGPS = append(s.routesGPS, matched)
	} else {
		matched.Trips = append(matched.Trips, trip)
	}

	info := &RouteInfo{
		ID:           routeID("gps", matched.ID),
		FromPlaceID:  s.tripFromPlace,
		ToPlaceID:    s.currentPlace,
		Start:        s.tripStart,
		End:          now,
		HighAccuracy: true,
		LengthMeters: path.Length(),
	}
	s.broadcastRoute(info)
}

// liveArrival delivers an arrival event unless it duplicates the current
// state.
func (s *Service) liveArrival(up *UnifiedPlace, at time.Time) {
	if s.currentPlace == up.ID {
		return
	}
	if s.currentPlace != "" {
		if prev := s.placeByID(s.currentPlace); prev != nil {
			s.broadcastPlace(ActionPlaceDeparture, s.placeInfoAt(prev, at))
		}
	}
	s.currentPlace = up.ID
	s.broadcastPlace(ActionPlaceArrival, s.placeInfoAt(up, at))
}

// liveDeparture delivers a departure event if we were at that place.
func (s *Service) liveDeparture(up *UnifiedPlace, at time.Time) {
	if s.currentPlace != up.ID {
		return
	}
	s.currentPlace = ""
	s.broadcastPlace(ActionPlaceDeparture, s.placeInfoAt(up, at))
}

func (s *Service) recordEncounters(closed []social.Encounter) {
	for _, e := range closed {
		s.encounters = append(s.encounters, e)
		s.broadcastEncounter(&EncounterInfo{PeerID: e.PeerID, PlaceID: e.PlaceID, Start: e.Start, End: e.End})
	}
}

// placeByID finds a unified place.
func (s *Service) placeByID(id string) *UnifiedPlace {
	for _, p := range s.places {
		if p.ID == id {
			return p
		}
	}
	return nil
}

// resolveUnifiedByGSM maps a GSM place to the unified place with the largest
// dwell among those it contributed to.
func (s *Service) resolveUnifiedByGSM(gsmID int) *UnifiedPlace {
	var best *UnifiedPlace
	var bestDwell time.Duration
	for _, p := range s.places {
		if p.GSMPlaceID != gsmID {
			continue
		}
		if d := p.TotalDwell(); best == nil || d > bestDwell {
			best, bestDwell = p, d
		}
	}
	return best
}

// resolveUnifiedByWiFi maps a WiFi place to its unified place.
func (s *Service) resolveUnifiedByWiFi(wifiID int) *UnifiedPlace {
	for _, p := range s.places {
		if p.WiFiPlaceID == wifiID {
			return p
		}
	}
	return nil
}

// placeInfo builds the full-precision payload for a place.
func (s *Service) placeInfo(up *UnifiedPlace) PlaceInfo {
	return PlaceInfo{
		ID:             up.ID,
		Label:          up.Label,
		Center:         up.Center,
		AccuracyMeters: 15,
		Granularity:    GranularityRoom,
		VisitCount:     len(up.Visits),
	}
}

func (s *Service) placeInfoAt(up *UnifiedPlace, _ time.Time) PlaceInfo {
	return s.placeInfo(up)
}

// broadcastPlace delivers the place intent to each connected app at the
// app's effective granularity: requirement clamped by the user's privacy
// permission, payload degraded accordingly. Suppressed entirely by the kill
// switch.
func (s *Service) broadcastPlace(action string, info PlaceInfo) {
	if s.Prefs.Disabled() {
		return
	}
	now := s.clock.Now()
	for _, req := range s.Registry.All() {
		if !req.ActiveAt(now) {
			continue
		}
		eff := s.Prefs.EffectiveGranularity(req.AppID, req.Granularity)
		payload := DegradePlace(info, eff)
		in := Intent{Action: action, At: now, Place: &payload}
		s.Bus.Deliver(req.AppID, in)
	}
}

func (s *Service) broadcastRoute(info *RouteInfo) {
	if s.Prefs.Disabled() {
		return
	}
	s.Bus.Broadcast(Intent{Action: ActionRouteComplete, At: s.clock.Now(), Route: info})
}

func (s *Service) broadcastEncounter(info *EncounterInfo) {
	if s.Prefs.Disabled() {
		return
	}
	s.Bus.Broadcast(Intent{Action: ActionEncounter, At: s.clock.Now(), Encounter: info})
}

func routeID(kind string, id int) string {
	return fmt.Sprintf("%s-%d", kind, id)
}

// WiFi detector event kinds, aliased for readability at the call site.
const (
	wifiArrival   = wifi.Arrival
	wifiDeparture = wifi.Departure
)

// sortPlacesByFirstVisit orders places deterministically.
func sortPlacesByFirstVisit(places []*UnifiedPlace) {
	sort.Slice(places, func(i, j int) bool {
		if len(places[i].Visits) == 0 || len(places[j].Visits) == 0 {
			return len(places[i].Visits) > len(places[j].Visits)
		}
		return places[i].Visits[0].Arrive.Before(places[j].Visits[0].Arrive)
	})
}

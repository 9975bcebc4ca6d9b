package core

import (
	"fmt"
	"time"

	"repro/internal/energy"
	"repro/internal/geo"
	"repro/internal/gpsplace"
	"repro/internal/gsm"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/route"
	"repro/internal/simclock"
	"repro/internal/social"
	"repro/internal/trace"
	"repro/internal/wifi"
	"repro/internal/world"
)

// CloudAPI is the slice of the PMWare Cloud Instance the mobile service
// needs. A nil CloudAPI makes the service compute everything on-device
// (paper Section 2.3.1 describes discovery offload as an optimization, not a
// requirement).
type CloudAPI interface {
	// DiscoverPlaces offloads GCA over the raw GSM trace.
	DiscoverPlaces(obs []trace.GSMObservation) ([]*gsm.Place, error)
	// SyncProfile uploads a finished day profile.
	SyncProfile(p *profile.DayProfile) error
	// GeolocateCell resolves a cell to approximate coordinates (the cloud's
	// Open-Cell-ID-style geo-location service). Returns the position and an
	// accuracy radius in meters.
	GeolocateCell(id world.CellID) (geo.LatLng, float64, error)
}

// Config tunes the mobile service. Zero value is not useful; start from
// DefaultConfig.
type Config struct {
	UserID string

	// Base sampling: GSM is tracked continuously — it is nearly free because
	// the modem is camped anyway (Section 2.2.2).
	GSMInterval time.Duration
	// AccelInterval drives the movement detector used for triggering.
	AccelInterval time.Duration
	// WiFiBurstScans and WiFiBurstInterval shape the scan burst fired on a
	// movement transition (arrival/departure refinement).
	WiFiBurstScans    int
	WiFiBurstInterval time.Duration
	// OpportunisticWiFiEvery is the background scan period while a
	// building-level (or finer) requirement is active.
	OpportunisticWiFiEvery time.Duration
	// RoomWiFiEvery and RoomGPSEvery are the additional duty cycles when a
	// room-level requirement is active.
	RoomWiFiEvery time.Duration
	RoomGPSEvery  time.Duration
	// RouteGPSInterval is the fix period while tracking a high-accuracy
	// route.
	RouteGPSInterval time.Duration
	// BluetoothEvery is the social-scan period while social discovery is
	// demanded and the user is at a tracked place.
	BluetoothEvery time.Duration
	// DiscoveryHour is the local hour at which the nightly (re-)discovery
	// and profile sync run.
	DiscoveryHour int

	GSMParams   gsm.Params
	WiFiParams  wifi.Params
	GPSParams   gpsplace.Params
	RouteParams route.Params

	// Peers supplies positions of other study participants for Bluetooth
	// proximity (empty outside multi-user studies).
	Peers map[string]trace.PositionFunc

	// Metrics is the registry the service's pms_* families register in (nil
	// means the process-wide default). Tests inject a private registry for
	// exact delta assertions.
	Metrics *obs.Registry
}

// DefaultConfig returns the configuration used by the deployment study.
func DefaultConfig(userID string) Config {
	return Config{
		UserID:                 userID,
		GSMInterval:            time.Minute,
		AccelInterval:          time.Minute,
		WiFiBurstScans:         5,
		WiFiBurstInterval:      time.Minute,
		OpportunisticWiFiEvery: 15 * time.Minute,
		RoomWiFiEvery:          5 * time.Minute,
		RoomGPSEvery:           10 * time.Minute,
		RouteGPSInterval:       30 * time.Second,
		BluetoothEvery:         5 * time.Minute,
		DiscoveryHour:          3,
		GSMParams:              gsm.DefaultParams(),
		WiFiParams:             wifi.DefaultParams(),
		GPSParams:              gpsplace.DefaultParams(),
		RouteParams:            route.DefaultParams(),
	}
}

// Service is the PMWare Mobile Service: one instance per device, shared by
// every connected application, eliminating redundant sensing and processing.
// Drive it with Run; it is not safe for concurrent use (the simulation is
// single-threaded).
type Service struct {
	cfg     Config
	clock   *simclock.Clock
	sensors *trace.Sensors
	meter   *energy.Meter

	Bus      *Bus
	Registry *Registry
	Prefs    *Preferences

	cloud CloudAPI

	// raw data buffers
	gsmObs []trace.GSMObservation
	gpsFix []trace.GPSFix

	// online detectors
	wifiDetector   *wifi.Detector
	socialDetector *social.Detector
	tracker        *gsm.Tracker

	// gsmPipe caches the incremental GCA pipeline across nightly passes, so
	// the on-device fallback costs O(new observations) instead of re-folding
	// the whole trace. gsmObs is append-only, which is exactly the contract
	// Pipeline.Extend needs.
	gsmPipe *gsm.Pipeline

	// discovered state
	places    []*UnifiedPlace
	labels    map[string]string
	gsmPlaces []*gsm.Place
	routesGSM []*route.GSMRoute
	routesGPS []*route.GPSRoute
	profiles  *profile.Builder
	synced    map[string]bool // day keys synced to cloud
	outbox    *Outbox         // failed uploads awaiting redelivery
	// cellPos memoises the cloud's successful GeolocateCell answers: its
	// cell database never changes, so a cell is asked again only after an
	// error.
	cellPos map[world.CellID]geo.LatLng

	// live tracking state
	moving        bool
	pendingMoves  int
	burstLeft     int
	lastWiFiScan  time.Time
	lastRoomWiFi  time.Time
	lastRoomGPS   time.Time
	lastBluetooth time.Time
	currentGSM    int // tracker's current place, -1 otherwise
	currentPlace  string
	encounters    []social.Encounter
	activityLog   []trace.ActivitySample

	// high-accuracy route tracking
	routeTracking bool
	tripTicker    *simclock.Event
	tripFixes     []trace.GPSFix
	tripStart     time.Time
	tripFromPlace string

	// counters
	discoveriesRun  int
	cloudSyncErrors int

	m *pmsMetrics
}

// NewService wires a mobile service over the given sensor bundle and clock.
// cloud may be nil for fully on-device operation.
func NewService(cfg Config, clock *simclock.Clock, sensors *trace.Sensors, meter *energy.Meter, cloud CloudAPI) *Service {
	s := &Service{
		cfg:            cfg,
		clock:          clock,
		sensors:        sensors,
		meter:          meter,
		Bus:            NewBus(),
		Registry:       NewRegistry(),
		Prefs:          NewPreferences(GranularityRoom),
		cloud:          cloud,
		wifiDetector:   wifi.NewDetector(cfg.WiFiParams),
		socialDetector: social.NewDetector(social.DefaultParams()),
		labels:         map[string]string{},
		profiles:       profile.NewBuilder(cfg.UserID),
		synced:         map[string]bool{},
		outbox:         NewOutbox(),
		cellPos:        map[world.CellID]geo.LatLng{},
		currentGSM:     -1,
	}
	if cfg.Metrics != nil {
		s.m = newPMSMetrics(cfg.Metrics)
	} else {
		s.m = defaultPMSMetrics
	}
	s.outbox.instrument(s.m)
	return s
}

// Places returns the unified places discovered so far.
func (s *Service) Places() []*UnifiedPlace { return s.places }

// RawGSMPlaces returns the latest GCA output before fusion (used by the
// study's pipeline ablations).
func (s *Service) RawGSMPlaces() []*gsm.Place { return s.gsmPlaces }

// RawWiFiPlaces returns the online SensLoc places (used by the study's
// pipeline ablations).
func (s *Service) RawWiFiPlaces() []*wifi.Place { return s.wifiDetector.Places() }

// GSMRoutes returns the low-accuracy routes discovered so far.
func (s *Service) GSMRoutes() []*route.GSMRoute { return s.routesGSM }

// GPSRoutes returns the high-accuracy routes discovered so far.
func (s *Service) GPSRoutes() []*route.GPSRoute { return s.routesGPS }

// Profiles returns the day profiles built so far, in date order.
func (s *Service) Profiles() []*profile.DayProfile { return s.profiles.Days() }

// DiscoveriesRun returns how many nightly discovery passes have executed.
func (s *Service) DiscoveriesRun() int { return s.discoveriesRun }

// LabelPlace attaches a user-provided semantic label to a place (the
// visualization module's tagging flow, Section 2.2.5) and broadcasts
// ActionPlaceLabeled.
func (s *Service) LabelPlace(placeID, label string) error {
	var target *UnifiedPlace
	for _, p := range s.places {
		if p.ID == placeID {
			target = p
			break
		}
	}
	if target == nil {
		return fmt.Errorf("core: unknown place %q", placeID)
	}
	target.Label = label
	s.labels[placeID] = label
	info := s.placeInfo(target)
	s.broadcastPlace(ActionPlaceLabeled, info)
	return nil
}

// Label returns the user label for a place, if any.
func (s *Service) Label(placeID string) string { return s.labels[placeID] }

// Connect registers a connected application in one step: requirement plus
// intent subscription. It mirrors the use-case flow of Section 2.4.
func (s *Service) Connect(req Requirement, filter Filter, handler Handler) error {
	if err := s.Registry.Register(req); err != nil {
		return err
	}
	s.Bus.Register(req.AppID, filter, handler)
	return nil
}

// Disconnect removes an application.
func (s *Service) Disconnect(appID string) {
	s.Registry.Unregister(appID)
	s.Bus.Unregister(appID)
}

// Run drives the service from the clock's current time for the given
// duration of simulated life.
func (s *Service) Run(d time.Duration) {
	s.start()
	s.clock.RunFor(d)
}

// start installs the periodic sensing events on the clock.
func (s *Service) start() {
	s.clock.Every(s.cfg.GSMInterval, s.gsmTick)
	s.clock.Every(s.cfg.AccelInterval, s.accelTick)
	s.clock.Every(time.Minute, s.minuteTick)
	s.scheduleDiscovery()
}

// scheduleDiscovery arms the next nightly discovery run.
func (s *Service) scheduleDiscovery() {
	now := s.clock.Now()
	next := time.Date(now.Year(), now.Month(), now.Day(), s.cfg.DiscoveryHour, 0, 0, 0, now.Location())
	if !next.After(now) {
		next = next.AddDate(0, 0, 1)
	}
	s.clock.Schedule(next, func(c *simclock.Clock) {
		s.nightlyDiscovery()
		s.scheduleDiscovery()
	})
}

// Package trace models the phone's sensors. Given an agent's ground-truth
// itinerary and the synthetic world, it produces the observation streams the
// radios on a real handset would produce:
//
//   - GSM serving-cell observations, including the "oscillating effect" —
//     Cell-ID changes while the user is stationary, caused by signal fading,
//     network load, and 2G/3G inter-network handoff (paper Section 2.2.2);
//   - WiFi scans with distance-dependent RSSI and probabilistic dropout;
//   - GPS fixes with noise, degraded or denied indoors;
//   - accelerometer-derived activity (moving/stationary) with error;
//   - Bluetooth sightings of nearby peers.
//
// All randomness comes from the *rand.Rand supplied at construction, so
// traces are reproducible.
package trace

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/world"
)

// GSMObservation is one serving-cell reading.
type GSMObservation struct {
	At        time.Time
	Cell      world.CellID
	SignalDBM float64
}

// WiFiReading is one AP heard during a scan.
type WiFiReading struct {
	BSSID   string
	SSID    string
	RSSIDBM float64
}

// WiFiScan is the result of one WiFi scan.
type WiFiScan struct {
	At  time.Time
	APs []WiFiReading
}

// BSSIDs returns the set of BSSIDs heard, in scan order.
func (s WiFiScan) BSSIDs() []string {
	out := make([]string, len(s.APs))
	for i, ap := range s.APs {
		out[i] = ap.BSSID
	}
	return out
}

// GPSFix is one GPS sample. When Valid is false the receiver failed to
// acquire (deep indoors); Pos and Accuracy are then meaningless.
type GPSFix struct {
	At             time.Time
	Pos            geo.LatLng
	AccuracyMeters float64
	Valid          bool
}

// ActivitySample is one accelerometer-classifier output.
type ActivitySample struct {
	At     time.Time
	Moving bool
}

// Config tunes the sensor models. Defaults reflect a mid-2014 handset in a
// dense urban network.
type Config struct {
	// MNC selects the operator the SIM is subscribed to.
	MNC int
	// ShadowSigmaDB is the per-sample shadow-fading standard deviation; it
	// is the main driver of cell oscillation.
	ShadowSigmaDB float64
	// HysteresisDB is the camping hysteresis: a neighbour must beat the
	// serving cell by this margin to trigger reselection.
	HysteresisDB float64
	// InterNetworkHandoffProb is the chance per sample of a forced 2G<->3G
	// layer flip (network-load handoff).
	InterNetworkHandoffProb float64
	// WiFiDropout is the probability that an in-range AP at the edge of
	// coverage is missed by a scan.
	WiFiDropout float64
	// GPSOutdoorAccuracyM / GPSIndoorAccuracyM are 1-sigma fix errors.
	GPSOutdoorAccuracyM float64
	GPSIndoorAccuracyM  float64
	// GPSIndoorDenialProb is the chance an indoor fix fails entirely.
	GPSIndoorDenialProb float64
	// ActivityErrorProb is the accelerometer classifier error rate.
	ActivityErrorProb float64
	// BluetoothRangeM is peer-discovery range.
	BluetoothRangeM float64
}

// DefaultConfig returns sensible sensor parameters.
func DefaultConfig() Config {
	return Config{
		MNC:                     10,
		ShadowSigmaDB:           6.0,
		HysteresisDB:            4.0,
		InterNetworkHandoffProb: 0.02,
		WiFiDropout:             0.25,
		GPSOutdoorAccuracyM:     8,
		GPSIndoorAccuracyM:      35,
		GPSIndoorDenialProb:     0.25,
		ActivityErrorProb:       0.05,
		BluetoothRangeM:         12,
	}
}

// Sensors simulates the handset radios for one agent. It is stateful (the
// modem camps on a serving cell) and not safe for concurrent use.
type Sensors struct {
	w   *world.World
	it  *mobility.Itinerary
	cfg Config

	// Each radio draws from its own stream (derived from the construction
	// RNG), so duty-cycling one interface more or less aggressively does not
	// perturb another interface's noise — a prerequisite for apples-to-
	// apples sensing ablations.
	gsmRand  *rand.Rand
	wifiRand *rand.Rand
	gpsRand  *rand.Rand
	actRand  *rand.Rand

	serving   *world.CellTower
	layerPref world.RadioLayer
	// towerBias is each tower's stable installation bias, by position in
	// w.Towers, drawn on first encounter; NaN until then.
	towerBias []float64

	// towersAt caches TowersInRange for the position sampled last: a
	// dwelling agent holds one position for five minutes of samples.
	towersAt   geo.LatLng
	towers     []world.TowerHit
	haveTowers bool
}

// NewSensors builds a sensor bundle for the given agent itinerary.
func NewSensors(w *world.World, it *mobility.Itinerary, cfg Config, r *rand.Rand) *Sensors {
	return &Sensors{
		w:         w,
		it:        it,
		cfg:       cfg,
		gsmRand:   rand.New(rand.NewSource(r.Int63())),
		wifiRand:  rand.New(rand.NewSource(r.Int63())),
		gpsRand:   rand.New(rand.NewSource(r.Int63())),
		actRand:   rand.New(rand.NewSource(r.Int63())),
		layerPref: world.Layer2G,
	}
}

// pathLossDBM returns the modelled received power at distance d meters
// (log-distance path loss, reference -40 dBm at 10 m, exponent 3.5).
func pathLossDBM(d float64) float64 {
	if d < 1 {
		d = 1
	}
	return -40 - 35*math.Log10(d/10)
}

// bias returns the installation bias of w.Towers[k].
func (s *Sensors) bias(k int) float64 {
	for len(s.towerBias) <= k {
		s.towerBias = append(s.towerBias, math.NaN())
	}
	if b := s.towerBias[k]; !math.IsNaN(b) {
		return b
	}
	b := (s.gsmRand.Float64()*2 - 1) * 3 // ±3 dB installation variance
	s.towerBias[k] = b
	return b
}

// SampleGSM returns the serving-cell observation at time t. Cell selection
// uses strongest-first camping with hysteresis; shadow fading noise makes the
// winner flip among nearby cells while stationary (the oscillating effect),
// and occasional forced layer flips model 2G/3G handoffs.
func (s *Sensors) SampleGSM(t time.Time) GSMObservation {
	pos := s.it.PositionAt(t)

	// Forced inter-network handoff.
	if s.gsmRand.Float64() < s.cfg.InterNetworkHandoffProb {
		if s.layerPref == world.Layer2G {
			s.layerPref = world.Layer3G
		} else {
			s.layerPref = world.Layer2G
		}
	}

	// cand is a candidate serving cell; t == nil means none yet.
	type cand struct {
		t    *world.CellTower
		rssi float64
	}
	if !s.haveTowers || pos != s.towersAt {
		s.towersAt, s.towers, s.haveTowers = pos, s.w.TowersInRange(pos, s.cfg.MNC), true
	}
	var best, bestAny cand
	for _, h := range s.towers {
		tw := h.Tower
		rssi := pathLossDBM(h.Dist) +
			s.bias(h.Index) +
			s.gsmRand.NormFloat64()*s.cfg.ShadowSigmaDB
		if bestAny.t == nil || rssi > bestAny.rssi {
			bestAny = cand{tw, rssi}
		}
		if tw.Layer == s.layerPref && (best.t == nil || rssi > best.rssi) {
			best = cand{tw, rssi}
		}
	}
	if best.t == nil {
		best = bestAny
	}
	if best.t == nil {
		// No coverage (should not happen inside the world bounds); keep the
		// previous serving cell as a stale reading.
		if s.serving != nil {
			return GSMObservation{At: t, Cell: s.serving.ID, SignalDBM: -110}
		}
		return GSMObservation{At: t, SignalDBM: -113}
	}

	// Hysteresis: stick to the serving cell unless the candidate is clearly
	// stronger. The serving cell is in range exactly when it is a hit: it
	// has the SIM's operator, like every hit.
	if s.serving != nil && s.serving != best.t {
		for _, h := range s.towers {
			if h.Tower != s.serving {
				continue
			}
			servRSSI := pathLossDBM(h.Dist) + s.bias(h.Index) +
				s.gsmRand.NormFloat64()*s.cfg.ShadowSigmaDB
			if servRSSI+s.cfg.HysteresisDB > best.rssi {
				return GSMObservation{At: t, Cell: s.serving.ID, SignalDBM: servRSSI}
			}
			break
		}
	}
	s.serving = best.t
	return GSMObservation{At: t, Cell: best.t.ID, SignalDBM: best.rssi}
}

// SampleWiFi performs one WiFi scan at time t. Edge-of-coverage APs drop out
// probabilistically, so consecutive scans at the same spot differ — the
// variability SensLoc's Tanimoto matching is built to absorb.
func (s *Sensors) SampleWiFi(t time.Time) WiFiScan {
	pos := s.it.PositionAt(t)
	scan := WiFiScan{At: t}
	for _, h := range s.w.APsInRange(pos) {
		ap, d := h.AP, h.Dist
		frac := d / ap.RangeMeters // 0 near, 1 at edge
		// Dropout grows quadratically toward the edge.
		if s.wifiRand.Float64() < s.cfg.WiFiDropout*frac*frac*4 {
			continue
		}
		rssi := pathLossDBM(d) + s.wifiRand.NormFloat64()*3
		if rssi < -95 {
			continue
		}
		scan.APs = append(scan.APs, WiFiReading{BSSID: ap.BSSID, SSID: ap.SSID, RSSIDBM: rssi})
	}
	return scan
}

// SampleGPS attempts a GPS fix at time t. Indoors (dwelling at a venue) the
// fix may fail or be heavily degraded.
func (s *Sensors) SampleGPS(t time.Time) GPSFix {
	pos := s.it.PositionAt(t)
	indoors := s.it.VenueAt(t) != nil
	acc := s.cfg.GPSOutdoorAccuracyM
	if indoors {
		if s.gpsRand.Float64() < s.cfg.GPSIndoorDenialProb {
			return GPSFix{At: t, Valid: false}
		}
		acc = s.cfg.GPSIndoorAccuracyM
	}
	noisy := geo.Offset(pos, s.gpsRand.Float64()*360, math.Abs(s.gpsRand.NormFloat64())*acc)
	return GPSFix{At: t, Pos: noisy, AccuracyMeters: acc, Valid: true}
}

// SampleActivity returns the accelerometer classifier output at time t.
func (s *Sensors) SampleActivity(t time.Time) ActivitySample {
	moving := s.it.Moving(t)
	if s.actRand.Float64() < s.cfg.ActivityErrorProb {
		moving = !moving
	}
	return ActivitySample{At: t, Moving: moving}
}

// PositionFunc resolves a peer's position at a time.
type PositionFunc func(time.Time) geo.LatLng

// SampleBluetooth returns the IDs of peers discoverable at time t: those
// within BluetoothRangeM whose radios are on. Peers maps peer ID to a
// position function; the owning agent must not be in the map.
func (s *Sensors) SampleBluetooth(t time.Time, peers map[string]PositionFunc) []string {
	pos := s.it.PositionAt(t)
	var out []string
	for id, pf := range peers {
		if geo.Distance(pos, pf(t)) <= s.cfg.BluetoothRangeM {
			out = append(out, id)
		}
	}
	return out
}

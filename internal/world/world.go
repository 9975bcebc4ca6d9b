// Package world models the synthetic urban environment the PMWare
// reproduction runs in: venues (places of human interest), GSM cell towers,
// WiFi access points, and a deterministic path network between venues.
//
// The world stands in for the real deployments in the paper (Section 4): the
// sensor models in package trace sample it to produce the observation streams
// a phone's radios would produce. All generation is driven by an explicit
// *rand.Rand so a world is reproducible from a seed.
package world

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/geo"
)

// VenueKind categorizes a venue. The kind drives agent schedules (people go
// to work on weekdays), WiFi density (homes and offices have APs, parks
// rarely do), and PlaceADs targeting.
type VenueKind int

// Venue kinds, roughly the place categories named in the paper.
const (
	KindHome VenueKind = iota + 1
	KindWorkplace
	KindMarket
	KindRestaurant
	KindCafe
	KindGym
	KindLibrary
	KindAcademic
	KindMall
	KindPark
	KindCinema
	KindClinic
)

var venueKindNames = map[VenueKind]string{
	KindHome:       "home",
	KindWorkplace:  "workplace",
	KindMarket:     "market",
	KindRestaurant: "restaurant",
	KindCafe:       "cafe",
	KindGym:        "gym",
	KindLibrary:    "library",
	KindAcademic:   "academic",
	KindMall:       "mall",
	KindPark:       "park",
	KindCinema:     "cinema",
	KindClinic:     "clinic",
}

// String returns the lowercase kind name, or "unknown".
func (k VenueKind) String() string {
	if s, ok := venueKindNames[k]; ok {
		return s
	}
	return "unknown"
}

// AllVenueKinds lists every kind, in declaration order.
func AllVenueKinds() []VenueKind {
	return []VenueKind{
		KindHome, KindWorkplace, KindMarket, KindRestaurant, KindCafe, KindGym,
		KindLibrary, KindAcademic, KindMall, KindPark, KindCinema, KindClinic,
	}
}

// Venue is a physical place an agent can visit. It is the ground-truth unit
// the evaluation in Section 4 scores discovered places against.
type Venue struct {
	ID           string
	Name         string
	Kind         VenueKind
	Center       geo.LatLng
	RadiusMeters float64 // building footprint radius
	HasWiFi      bool
	APs          []string // BSSIDs of the APs installed at this venue
}

// Contains reports whether p is inside the venue footprint.
func (v *Venue) Contains(p geo.LatLng) bool {
	return geo.Distance(v.Center, p) <= v.RadiusMeters
}

// CellID identifies a GSM/UMTS cell the way a phone reports it: mobile
// country code, mobile network code, location area code, and cell id.
type CellID struct {
	MCC int `json:"mcc"`
	MNC int `json:"mnc"`
	LAC int `json:"lac"`
	CID int `json:"cid"`
}

// String renders the cell id in mcc-mnc-lac-cid form.
func (c CellID) String() string {
	return fmt.Sprintf("%d-%d-%d-%d", c.MCC, c.MNC, c.LAC, c.CID)
}

// CompareCellStrings orders cells exactly as strings.Compare(a.String(),
// b.String()) does — the deterministic order of discovery output and tower
// ranking — but renders both into stack arrays instead of formatting two
// strings per comparison, so it never allocates.
func CompareCellStrings(a, b CellID) int {
	// Four int fields of at most 20 bytes each, plus three separators.
	var ab, bb [83]byte
	return bytes.Compare(a.appendText(ab[:0]), b.appendText(bb[:0]))
}

// appendText appends String's rendering of c to dst.
func (c CellID) appendText(dst []byte) []byte {
	dst = strconv.AppendInt(dst, int64(c.MCC), 10)
	dst = append(dst, '-')
	dst = strconv.AppendInt(dst, int64(c.MNC), 10)
	dst = append(dst, '-')
	dst = strconv.AppendInt(dst, int64(c.LAC), 10)
	dst = append(dst, '-')
	return strconv.AppendInt(dst, int64(c.CID), 10)
}

// CellTower is a base station. Towers belong to an operator (MNC) and a radio
// layer; co-located 2G/3G layers with distinct CIDs are what produce the
// inter-network handoff oscillation GCA must absorb.
type CellTower struct {
	ID          CellID
	Pos         geo.LatLng
	RangeMeters float64
	Layer       RadioLayer
}

// RadioLayer is the radio access technology of a tower.
type RadioLayer int

// Radio layers present in the simulated network.
const (
	Layer2G RadioLayer = iota + 1
	Layer3G
)

// String returns "2G" or "3G".
func (l RadioLayer) String() string {
	switch l {
	case Layer2G:
		return "2G"
	case Layer3G:
		return "3G"
	default:
		return "unknown"
	}
}

// AccessPoint is a WiFi AP with a fixed position and coverage radius.
type AccessPoint struct {
	BSSID       string
	SSID        string
	Pos         geo.LatLng
	RangeMeters float64
	VenueID     string // owning venue, or "" for a street AP
}

// World is the complete synthetic environment.
type World struct {
	Venues []*Venue
	Towers []*CellTower
	APs    []*AccessPoint
	Bounds geo.Bounds

	venueByID map[string]*Venue
	towerByID map[CellID]*CellTower
	apByBSSID map[string]*AccessPoint
	paths     *pathCache

	// towerCover and apCover narrow TowersInRange and APsInRange to the
	// items that can reach a point's grid cell (cover.go).
	towerCover *coverIndex
	apCover    *coverIndex
}

// VenueByID returns the venue with the given id, or nil.
func (w *World) VenueByID(id string) *Venue { return w.venueByID[id] }

// TowerByID returns the tower with the given cell id, or nil.
func (w *World) TowerByID(id CellID) *CellTower { return w.towerByID[id] }

// APByBSSID returns the access point with the given BSSID, or nil.
func (w *World) APByBSSID(bssid string) *AccessPoint { return w.apByBSSID[bssid] }

// VenueAt returns the venue whose footprint contains p, preferring the
// closest center when footprints overlap. Returns nil when p is not inside
// any venue (i.e. the agent is in transit).
func (w *World) VenueAt(p geo.LatLng) *Venue {
	var best *Venue
	bestD := 0.0
	for _, v := range w.Venues {
		d := geo.Distance(v.Center, p)
		if d <= v.RadiusMeters && (best == nil || d < bestD) {
			best = v
			bestD = d
		}
	}
	return best
}

// TowerHit is a tower whose coverage includes a point, with its distance
// from that point in meters.
type TowerHit struct {
	Tower *CellTower
	Dist  float64
}

// APHit is an access point whose coverage includes a point, with its
// distance from that point in meters.
type APHit struct {
	AP   *AccessPoint
	Dist float64
}

// TowersInRange returns the towers whose coverage includes p, each with its
// distance geo.Distance(tower.Pos, p), ordered by ascending distance
// (strongest-signal first under the path-loss model) with cell-id tie-break.
func (w *World) TowersInRange(p geo.LatLng) []TowerHit {
	var hits []TowerHit
	w.towerCover.each(p, len(w.Towers), func(k int) {
		t := w.Towers[k]
		if d := geo.Distance(t.Pos, p); d <= t.RangeMeters {
			hits = append(hits, TowerHit{t, d})
		}
	})
	slices.SortFunc(hits, func(a, b TowerHit) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return CompareCellStrings(a.Tower.ID, b.Tower.ID)
	})
	return hits
}

// APsInRange returns the access points whose coverage includes p, each with
// its distance geo.Distance(ap.Pos, p), ordered by ascending distance with
// BSSID tie-break.
func (w *World) APsInRange(p geo.LatLng) []APHit {
	var hits []APHit
	w.apCover.each(p, len(w.APs), func(k int) {
		ap := w.APs[k]
		if d := geo.Distance(ap.Pos, p); d <= ap.RangeMeters {
			hits = append(hits, APHit{ap, d})
		}
	})
	slices.SortFunc(hits, func(a, b APHit) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return strings.Compare(a.AP.BSSID, b.AP.BSSID)
	})
	return hits
}

// index builds the lookup maps and the coverage indexes from scratch. Called
// by the generator and by tests that assemble worlds by hand via Finalize;
// AddVenue extends them in place instead.
func (w *World) index() {
	w.venueByID = make(map[string]*Venue, len(w.Venues))
	for _, v := range w.Venues {
		w.venueByID[v.ID] = v
	}
	w.towerByID = make(map[CellID]*CellTower, len(w.Towers))
	w.towerCover = newCoverIndex(w.Bounds)
	for k, t := range w.Towers {
		w.towerByID[t.ID] = t
		w.towerCover.add(k, t.Pos, t.RangeMeters)
	}
	w.apByBSSID = make(map[string]*AccessPoint, len(w.APs))
	w.apCover = newCoverIndex(w.Bounds)
	for k := range w.APs {
		w.indexAP(k)
	}
	w.paths = newPathCache()
}

// indexAP adds w.APs[k] to the AP lookups.
func (w *World) indexAP(k int) {
	ap := w.APs[k]
	w.apByBSSID[ap.BSSID] = ap
	w.apCover.add(k, ap.Pos, ap.RangeMeters)
}

// Finalize builds internal indexes after manual construction, and again
// after any edit to Towers, APs or Bounds. Worlds from Generate are already
// finalized.
func (w *World) Finalize() { w.index() }

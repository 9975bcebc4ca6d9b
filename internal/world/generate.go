package world

import (
	"fmt"
	"math/rand"

	"repro/internal/geo"
)

// Config controls world generation. The zero value is not useful; start from
// DefaultConfig.
type Config struct {
	// Origin is the city center; venues and infrastructure scatter around it.
	Origin geo.LatLng
	// ExtentMeters is the half-width of the square the city occupies.
	ExtentMeters float64

	// Venues per kind beyond the per-agent homes/workplaces, which the study
	// harness adds separately.
	PublicVenues int

	// Operators is the number of mobile network operators. Each operator
	// deploys a 2G layer everywhere and a 3G layer on a denser grid subset.
	Operators int
	// TowerGridMeters is the spacing of the 2G tower grid. Typical urban
	// macro-cell spacing is 500-1500 m.
	TowerGridMeters float64
	// TowerRangeMeters is the coverage radius of each tower. Must exceed the
	// grid spacing so several cells overlap everywhere (the precondition for
	// the oscillating effect).
	TowerRangeMeters float64

	// WiFiVenueFraction is the probability that a public venue has WiFi.
	// The paper contrasts ~60% observed WiFi coverage time in India with
	// ~90% in Switzerland.
	WiFiVenueFraction float64
	// StreetAPs is the number of additional APs scattered along streets.
	StreetAPs int
	// APRangeMeters is WiFi coverage radius (~indoor AP reach).
	APRangeMeters float64

	// MCC is the mobile country code stamped on all towers.
	MCC int
}

// DefaultConfig returns a city resembling the paper's deployment setting: a
// dense Indian metro area a few kilometres across, two operators, moderate
// WiFi coverage.
func DefaultConfig() Config {
	return Config{
		Origin:            geo.LatLng{Lat: 28.6139, Lng: 77.2090}, // New Delhi
		ExtentMeters:      4000,
		PublicVenues:      30,
		Operators:         2,
		TowerGridMeters:   800,
		TowerRangeMeters:  1400,
		WiFiVenueFraction: 0.60,
		StreetAPs:         40,
		APRangeMeters:     70,
		MCC:               404, // India
	}
}

var publicVenueKinds = []VenueKind{
	KindMarket, KindRestaurant, KindCafe, KindGym, KindLibrary,
	KindAcademic, KindMall, KindPark, KindCinema, KindClinic,
}

// Generate builds a world from the config using the supplied RNG. The same
// config and seed always produce the identical world.
func Generate(cfg Config, r *rand.Rand) *World {
	w := &World{}

	half := cfg.ExtentMeters
	corner := geo.Offset(geo.Offset(cfg.Origin, 180, half), 270, half) // SW corner
	w.Bounds = geo.Bounds{
		MinLat: corner.Lat,
		MinLng: corner.Lng,
	}
	ne := geo.Offset(geo.Offset(cfg.Origin, 0, half), 90, half)
	w.Bounds.MaxLat = ne.Lat
	w.Bounds.MaxLng = ne.Lng

	// Towers: jittered grid per operator. 2G everywhere, 3G on every other
	// grid point, co-located with an offset so layers have distinct ids and
	// slightly different coverage.
	cid := 10000
	lacSize := 4 // grid cells per location area edge
	n := int(2*half/cfg.TowerGridMeters) + 1
	for op := 1; op <= cfg.Operators; op++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				jx := (r.Float64() - 0.5) * cfg.TowerGridMeters * 0.4
				jy := (r.Float64() - 0.5) * cfg.TowerGridMeters * 0.4
				pos := geo.Offset(corner, 0, float64(i)*cfg.TowerGridMeters+jy)
				pos = geo.Offset(pos, 90, float64(j)*cfg.TowerGridMeters+jx)
				lac := 100*op + (i/lacSize)*10 + j/lacSize
				cid++
				w.Towers = append(w.Towers, &CellTower{
					ID:          CellID{MCC: cfg.MCC, MNC: op * 10, LAC: lac, CID: cid},
					Pos:         pos,
					RangeMeters: cfg.TowerRangeMeters * (0.85 + r.Float64()*0.3),
					Layer:       Layer2G,
				})
				if (i+j)%2 == 0 {
					cid++
					w.Towers = append(w.Towers, &CellTower{
						ID:          CellID{MCC: cfg.MCC, MNC: op * 10, LAC: lac, CID: cid},
						Pos:         geo.Offset(pos, r.Float64()*360, 30),
						RangeMeters: cfg.TowerRangeMeters * 0.7 * (0.85 + r.Float64()*0.3),
						Layer:       Layer3G,
					})
				}
			}
		}
	}

	// Public venues scattered across the extent.
	for i := 0; i < cfg.PublicVenues; i++ {
		kind := publicVenueKinds[i%len(publicVenueKinds)]
		pos := randomPointIn(cfg, r)
		v := &Venue{
			ID:           fmt.Sprintf("venue-%03d", i),
			Name:         fmt.Sprintf("%s %d", kind, i),
			Kind:         kind,
			Center:       pos,
			RadiusMeters: venueRadius(kind, r),
		}
		if kind != KindPark && r.Float64() < cfg.WiFiVenueFraction {
			v.HasWiFi = true
		}
		w.Venues = append(w.Venues, v)
	}

	// APs at WiFi venues.
	apSeq := 0
	for _, v := range w.Venues {
		if !v.HasWiFi {
			continue
		}
		installVenueAPs(w, v, cfg, r, &apSeq)
	}

	// Street APs.
	for i := 0; i < cfg.StreetAPs; i++ {
		apSeq++
		pos := randomPointIn(cfg, r)
		w.APs = append(w.APs, &AccessPoint{
			BSSID:       bssid(apSeq),
			SSID:        fmt.Sprintf("street-%d", i),
			Pos:         pos,
			RangeMeters: cfg.APRangeMeters * (0.8 + r.Float64()*0.4),
		})
	}

	w.index()
	return w
}

// AddVenue appends a venue generated at pos (used by the study harness to
// place per-participant homes and workplaces), installing APs when withWiFi
// is set, and adds both to the world's indexes. The tower index is left as
// it is: a venue brings no towers. AddVenue writes the world, so no other
// goroutine may use the world during the call.
func (w *World) AddVenue(id, name string, kind VenueKind, pos geo.LatLng, withWiFi bool, cfg Config, r *rand.Rand) *Venue {
	if w.venueByID == nil {
		w.index() // assembled by hand and never finalized
	}
	v := &Venue{
		ID:           id,
		Name:         name,
		Kind:         kind,
		Center:       pos,
		RadiusMeters: venueRadius(kind, r),
		HasWiFi:      withWiFi,
	}
	w.Venues = append(w.Venues, v)
	w.venueByID[v.ID] = v
	if withWiFi {
		apSeq := len(w.APs) + 1000
		first := len(w.APs)
		installVenueAPs(w, v, cfg, r, &apSeq)
		for k := first; k < len(w.APs); k++ {
			w.indexAP(k)
		}
	}
	return v
}

// StandaloneVenue builds a venue at pos without installing APs and without
// attaching it to any world. The load harness uses it to give each lazily
// synthesized user private home/work venues: AddVenue mutates and reindexes
// the shared world, which is neither affordable nor safe when users are
// generated on demand from concurrent workers. The radius draw matches
// AddVenue's, so a standalone venue and an added venue built from the same
// RNG state have identical footprints.
func StandaloneVenue(id, name string, kind VenueKind, pos geo.LatLng, r *rand.Rand) *Venue {
	return &Venue{
		ID:           id,
		Name:         name,
		Kind:         kind,
		Center:       pos,
		RadiusMeters: venueRadius(kind, r),
	}
}

func installVenueAPs(w *World, v *Venue, cfg Config, r *rand.Rand, apSeq *int) {
	count := 1 + r.Intn(3) // 1-3 APs per venue
	if v.Kind == KindMall || v.Kind == KindAcademic || v.Kind == KindWorkplace {
		count += 2
	}
	for k := 0; k < count; k++ {
		*apSeq++
		pos := geo.Offset(v.Center, r.Float64()*360, r.Float64()*v.RadiusMeters*0.8)
		ap := &AccessPoint{
			BSSID:       bssid(*apSeq),
			SSID:        fmt.Sprintf("%s-wifi-%d", v.ID, k),
			Pos:         pos,
			RangeMeters: cfg.APRangeMeters * (0.8 + r.Float64()*0.4),
			VenueID:     v.ID,
		}
		v.APs = append(v.APs, ap.BSSID)
		w.APs = append(w.APs, ap)
	}
}

func randomPointIn(cfg Config, r *rand.Rand) geo.LatLng {
	dx := (r.Float64()*2 - 1) * cfg.ExtentMeters
	dy := (r.Float64()*2 - 1) * cfg.ExtentMeters
	p := geo.Offset(cfg.Origin, 0, dy)
	return geo.Offset(p, 90, dx)
}

func venueRadius(kind VenueKind, r *rand.Rand) float64 {
	base := map[VenueKind]float64{
		KindHome:       20,
		KindWorkplace:  60,
		KindMarket:     120,
		KindRestaurant: 25,
		KindCafe:       15,
		KindGym:        30,
		KindLibrary:    40,
		KindAcademic:   80,
		KindMall:       150,
		KindPark:       200,
		KindCinema:     60,
		KindClinic:     30,
	}[kind]
	if base == 0 {
		base = 40
	}
	return base * (0.8 + r.Float64()*0.4)
}

func bssid(seq int) string {
	return fmt.Sprintf("02:00:%02x:%02x:%02x:%02x",
		(seq>>24)&0xff, (seq>>16)&0xff, (seq>>8)&0xff, seq&0xff)
}

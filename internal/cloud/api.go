// Package cloud implements the PMWare Cloud Instance (PCI, paper Section
// 2.3): a REST service that registers devices, offloads heavy place/route
// discovery, stores long-term mobility profiles and social contacts,
// resolves Cell-IDs to coordinates, and answers analytics and prediction
// queries. It also provides the HTTP client the mobile service uses to talk
// to it.
package cloud

import (
	"math"
	"slices"
	"time"

	"repro/internal/gsm"
	"repro/internal/profile"
	"repro/internal/route"
	"repro/internal/trace"
	"repro/internal/world"
)

// API paths, versioned as in the paper's REST design.
const (
	PathRegister        = "/api/v1/register"
	PathRefresh         = "/api/v1/token/refresh"
	PathPlacesDiscover  = "/api/v1/places/discover"
	PathPlaces          = "/api/v1/places"
	PathPlacesLabel     = "/api/v1/places/label"
	PathRoutesDiscover  = "/api/v1/routes/discover"
	PathRoutes          = "/api/v1/routes"
	PathRouteSimilarity = "/api/v1/routes/similarity"
	PathProfiles        = "/api/v1/profiles"
	PathContacts        = "/api/v1/contacts"
	PathGeoCell         = "/api/v1/geo/cell"
	PathPredictArrival  = "/api/v1/predict/arrival"
	PathPredictNext     = "/api/v1/predict/next-visit"
	PathStatsFrequency  = "/api/v1/stats/frequency"
	PathStatsDwell      = "/api/v1/stats/dwell"
	// Streaming endpoints (DESIGN.md §13). Both are exempt from the request
	// timeout middleware and, as a whole, from the -max-body cap: the
	// connections are long-lived by design.
	PathObservationsStream = "/api/v1/observations/stream"
	PathEventsSubscribe    = "/api/v1/events/subscribe"
)

// RegisterRequest registers a device. The device is identified jointly by
// its IMEI and the phone's email account (Section 2.2.1).
type RegisterRequest struct {
	IMEI  string `json:"imei"`
	Email string `json:"email"`
}

// RegisterResponse carries the issued token.
type RegisterResponse struct {
	UserID    string    `json:"user_id"`
	Token     string    `json:"token"`
	ExpiresAt time.Time `json:"expires_at"`
}

// RefreshResponse carries a renewed token.
type RefreshResponse struct {
	Token     string    `json:"token"`
	ExpiresAt time.Time `json:"expires_at"`
}

// VisitWire is a serialized visit interval.
type VisitWire struct {
	Arrive time.Time `json:"arrive"`
	Depart time.Time `json:"depart"`
}

// PlaceWire is the serialized form of a GSM place (map-keyed cell sets do
// not survive JSON, hence the explicit slice).
type PlaceWire struct {
	ID        int            `json:"id"`
	Signature []world.CellID `json:"signature"`
	Cells     []world.CellID `json:"cells"`
	Visits    []VisitWire    `json:"visits"`
	Label     string         `json:"label,omitempty"`
}

// PlaceToWire converts a discovered place for transport.
func PlaceToWire(p *gsm.Place) PlaceWire {
	w := PlaceWire{ID: p.ID, Signature: p.Signature}
	for c := range p.AllCells {
		w.Cells = append(w.Cells, c)
	}
	slices.SortFunc(w.Cells, world.CompareCellStrings)
	for _, v := range p.Visits {
		w.Visits = append(w.Visits, VisitWire{Arrive: v.Arrive, Depart: v.Depart})
	}
	return w
}

// WireToPlace reconstructs a place from transport form.
func WireToPlace(w PlaceWire) *gsm.Place {
	p := &gsm.Place{ID: w.ID, Signature: w.Signature, AllCells: map[world.CellID]struct{}{}}
	for _, c := range w.Cells {
		p.AllCells[c] = struct{}{}
	}
	for _, v := range w.Visits {
		p.Visits = append(p.Visits, gsm.Visit{Arrive: v.Arrive, Depart: v.Depart})
	}
	return p
}

// DiscoverPlacesRequest uploads a GSM trace for GCA offload.
//
// Two upload modes share the endpoint. A full upload (Delta false) replaces
// the server's persisted trace with Observations — the legacy behaviour, and
// the client's fallback when its cursor diverges from the server. A delta
// upload (Delta true) claims the server already holds a Cursor-observation
// prefix whose chained TraceHash is PrefixHash, and ships only the
// observations after it; the server verifies the claim against its persisted
// trace and appends. Retries are harmless: a delta that (partially) overlaps
// what the server already holds is deduplicated observation-by-observation
// rather than double-appended, and a mismatch answers 409 so the client can
// fall back to a full upload.
type DiscoverPlacesRequest struct {
	Observations []trace.GSMObservation `json:"observations"`
	Delta        bool                   `json:"delta,omitempty"`
	Cursor       int64                  `json:"cursor,omitempty"`
	PrefixHash   uint64                 `json:"prefix_hash,omitempty"`
}

// StreamBatch is one element of the streaming ingest body: the request is a
// sequence of JSON batches (NDJSON-style concatenation) decoded as they
// arrive, each appended WAL-durably and fed to the online event detector
// before the next is read.
type StreamBatch struct {
	Observations []trace.GSMObservation `json:"observations"`
}

// StreamResult is the single response written when the ingest stream ends.
type StreamResult struct {
	// TraceLen/TraceHash are the post-stream trace position, compatible
	// with the delta sync cursor protocol.
	TraceLen  int64  `json:"trace_len"`
	TraceHash uint64 `json:"trace_hash"`
	// Appended counts observations persisted by this stream; Events counts
	// transitions it published.
	Appended int `json:"appended"`
	Events   int `json:"events"`
}

// DiscoverPlacesResponse returns the discovered places plus the server's
// post-sync trace position — the cursor the client resumes its next delta
// upload from.
type DiscoverPlacesResponse struct {
	Places    []PlaceWire `json:"places"`
	TraceLen  int64       `json:"trace_len"`
	TraceHash uint64      `json:"trace_hash"`
}

// Trace hashing: an order-sensitive chained FNV-64a over every observation
// field. Both sides of the delta protocol compute it independently — the
// client over its local buffer, the server over its persisted trace — so a
// matching (length, hash) pair certifies the prefixes are identical without
// shipping them. Timestamps hash as UnixNano, which survives the RFC 3339
// JSON round-trip exactly; signal levels hash by their bit pattern.
const (
	traceHashOffset = 14695981039346656037 // FNV-64a offset basis
	traceHashPrime  = 1099511628211        // FNV-64a prime
)

// TraceHash hashes a whole trace from the empty-prefix seed.
func TraceHash(obs []trace.GSMObservation) uint64 {
	return ExtendTraceHash(EmptyTraceHash(), obs)
}

// EmptyTraceHash is the hash of the zero-observation prefix.
func EmptyTraceHash() uint64 { return traceHashOffset }

// ExtendTraceHash continues a chained trace hash over additional
// observations: ExtendTraceHash(TraceHash(a), b) == TraceHash(append(a, b)).
func ExtendTraceHash(h uint64, obs []trace.GSMObservation) uint64 {
	for _, o := range obs {
		h = traceHashWord(h, uint64(o.At.UnixNano()))
		h = traceHashWord(h, uint64(int64(o.Cell.MCC)))
		h = traceHashWord(h, uint64(int64(o.Cell.MNC)))
		h = traceHashWord(h, uint64(int64(o.Cell.LAC)))
		h = traceHashWord(h, uint64(int64(o.Cell.CID)))
		h = traceHashWord(h, math.Float64bits(o.SignalDBM))
	}
	return h
}

func traceHashWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= traceHashPrime
		v >>= 8
	}
	return h
}

// LabelRequest tags a stored place.
type LabelRequest struct {
	PlaceID int    `json:"place_id"`
	Label   string `json:"label"`
}

// RouteWire is a serialized low-accuracy route.
type RouteWire struct {
	ID    int            `json:"id"`
	Cells []world.CellID `json:"cells"`
	Trips []VisitWire    `json:"trips"`
}

// RouteToWire converts a GSM route for transport.
func RouteToWire(r *route.GSMRoute) RouteWire {
	w := RouteWire{ID: r.ID, Cells: r.Cells}
	for _, t := range r.Trips {
		w.Trips = append(w.Trips, VisitWire{Arrive: t.Start, Depart: t.End})
	}
	return w
}

// DiscoverRoutesRequest uploads a trace plus visit intervals for route
// extraction.
type DiscoverRoutesRequest struct {
	Observations []trace.GSMObservation `json:"observations"`
	Visits       []VisitWire            `json:"visits"`
}

// DiscoverRoutesResponse returns the extracted routes.
type DiscoverRoutesResponse struct {
	Routes []RouteWire `json:"routes"`
}

// RouteSimilarityRequest compares two cell sequences.
type RouteSimilarityRequest struct {
	A []world.CellID `json:"a"`
	B []world.CellID `json:"b"`
}

// RouteSimilarityResponse carries the similarity in [0,1].
type RouteSimilarityResponse struct {
	Similarity float64 `json:"similarity"`
}

// GeoCellResponse resolves a cell to approximate coordinates.
type GeoCellResponse struct {
	Lat            float64 `json:"lat"`
	Lng            float64 `json:"lng"`
	AccuracyMeters float64 `json:"accuracy_meters"`
}

// ContactsRequest uploads encounters.
type ContactsRequest struct {
	Encounters []profile.Encounter `json:"encounters"`
}

// ContactsResponse lists stored encounters.
type ContactsResponse struct {
	Encounters []profile.Encounter `json:"encounters"`
}

// PredictArrivalResponse answers "at what time of day does the user
// typically arrive at this place?" (paper Section 2.3.2, query 1).
type PredictArrivalResponse struct {
	PlaceID string `json:"place_id"`
	// TypicalArrival is seconds since local midnight.
	TypicalArrivalSec int `json:"typical_arrival_sec"`
	SampleCount       int `json:"sample_count"`
}

// PredictNextVisitResponse answers "when is the user's next visit to place
// A?" (query 2).
type PredictNextVisitResponse struct {
	PlaceID   string    `json:"place_id"`
	NextVisit time.Time `json:"next_visit"`
	Confident bool      `json:"confident"`
}

// FrequencyResponse answers "how often does the user visit this place?"
// (query 3).
type FrequencyResponse struct {
	PlaceID       string  `json:"place_id"`
	VisitsPerWeek float64 `json:"visits_per_week"`
	TotalVisits   int     `json:"total_visits"`
}

// DwellStatsResponse summarizes how long the user stays at a place.
type DwellStatsResponse struct {
	PlaceID        string `json:"place_id"`
	Visits         int    `json:"visits"`
	MeanStaySec    int    `json:"mean_stay_sec"`
	MedianStaySec  int    `json:"median_stay_sec"`
	LongestStaySec int    `json:"longest_stay_sec"`
}

// ErrorResponse is the uniform error body.
type ErrorResponse struct {
	Error string `json:"error"`
}

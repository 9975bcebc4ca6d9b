// Package geo provides the geodesic primitives used throughout the PMWare
// reproduction: latitude/longitude points, great-circle distance, bearings,
// centroids, bounding boxes, and polyline utilities.
//
// All distances are in meters, all angles in degrees unless noted otherwise.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used for great-circle math.
const EarthRadiusMeters = 6371000.0

// LatLng is a WGS84 coordinate pair in degrees.
type LatLng struct {
	Lat float64 `json:"lat"`
	Lng float64 `json:"lng"`
}

// String renders the point with 6 decimal places (~0.1 m resolution).
func (p LatLng) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lat, p.Lng)
}

// Valid reports whether the point lies within the WGS84 domain.
func (p LatLng) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lng >= -180 && p.Lng <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lng)
}

// IsZero reports whether the point is the zero value (0, 0). The simulation
// never places anything at null island, so IsZero doubles as a "missing
// coordinate" sentinel.
func (p LatLng) IsZero() bool { return p.Lat == 0 && p.Lng == 0 }

func radians(deg float64) float64 { return deg * math.Pi / 180 }
func degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Distance returns the great-circle (haversine) distance in meters between
// two points.
func Distance(a, b LatLng) float64 {
	return DistanceCos(a, b, LatCos(a), LatCos(b))
}

// LatCos returns the cosine of p's latitude, the per-point factor of the
// haversine that DistanceCos takes precomputed.
func LatCos(p LatLng) float64 { return math.Cos(radians(p.Lat)) }

// DistanceCos is Distance with cosA = LatCos(a) and cosB = LatCos(b) supplied
// by the caller, so a point measured against many others pays for its cosine
// once. Distance is this function, so the two agree bit for bit.
func DistanceCos(a, b LatLng, cosA, cosB float64) float64 {
	dLat := radians(b.Lat) - radians(a.Lat)
	dLng := radians(b.Lng - a.Lng)

	sinLat := math.Sin(dLat / 2)
	sinLng := math.Sin(dLng / 2)
	h := sinLat*sinLat + cosA*cosB*sinLng*sinLng
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(h))
}

// Bearing returns the initial great-circle bearing from a to b, in degrees
// clockwise from north, normalized to [0, 360).
func Bearing(a, b LatLng) float64 {
	latA, latB := radians(a.Lat), radians(b.Lat)
	dLng := radians(b.Lng - a.Lng)

	y := math.Sin(dLng) * math.Cos(latB)
	x := math.Cos(latA)*math.Sin(latB) - math.Sin(latA)*math.Cos(latB)*math.Cos(dLng)
	brg := degrees(math.Atan2(y, x))
	return math.Mod(brg+360, 360)
}

// Offset returns the point reached by travelling distanceMeters from p along
// the given bearing (degrees clockwise from north).
func Offset(p LatLng, bearingDeg, distanceMeters float64) LatLng {
	lat := radians(p.Lat)
	lng := radians(p.Lng)
	brg := radians(bearingDeg)
	d := distanceMeters / EarthRadiusMeters

	lat2 := math.Asin(math.Sin(lat)*math.Cos(d) + math.Cos(lat)*math.Sin(d)*math.Cos(brg))
	lng2 := lng + math.Atan2(
		math.Sin(brg)*math.Sin(d)*math.Cos(lat),
		math.Cos(d)-math.Sin(lat)*math.Sin(lat2),
	)
	out := LatLng{Lat: degrees(lat2), Lng: degrees(lng2)}
	// Normalize longitude to [-180, 180].
	for out.Lng > 180 {
		out.Lng -= 360
	}
	for out.Lng < -180 {
		out.Lng += 360
	}
	return out
}

// Interpolate returns the point a fraction f of the way from a to b along the
// great circle. f is clamped to [0, 1].
func Interpolate(a, b LatLng, f float64) LatLng {
	if f <= 0 {
		return a
	}
	if f >= 1 {
		return b
	}
	d := Distance(a, b)
	if d == 0 {
		return a
	}
	return Offset(a, Bearing(a, b), d*f)
}

// Centroid returns the arithmetic centroid of the points. It is accurate for
// the city-scale extents used by the simulation (no antimeridian handling).
// Returns the zero value for an empty slice.
func Centroid(points []LatLng) LatLng {
	if len(points) == 0 {
		return LatLng{}
	}
	var sumLat, sumLng float64
	for _, p := range points {
		sumLat += p.Lat
		sumLng += p.Lng
	}
	n := float64(len(points))
	return LatLng{Lat: sumLat / n, Lng: sumLng / n}
}

// Bounds is an axis-aligned lat/lng bounding box.
type Bounds struct {
	MinLat, MinLng float64
	MaxLat, MaxLng float64
}

// NewBounds returns the tight bounding box around the points, and false if
// the slice is empty.
func NewBounds(points []LatLng) (Bounds, bool) {
	if len(points) == 0 {
		return Bounds{}, false
	}
	b := Bounds{
		MinLat: points[0].Lat, MaxLat: points[0].Lat,
		MinLng: points[0].Lng, MaxLng: points[0].Lng,
	}
	for _, p := range points[1:] {
		b = b.Extend(p)
	}
	return b, true
}

// Extend returns the bounds grown to include p.
func (b Bounds) Extend(p LatLng) Bounds {
	if p.Lat < b.MinLat {
		b.MinLat = p.Lat
	}
	if p.Lat > b.MaxLat {
		b.MaxLat = p.Lat
	}
	if p.Lng < b.MinLng {
		b.MinLng = p.Lng
	}
	if p.Lng > b.MaxLng {
		b.MaxLng = p.Lng
	}
	return b
}

// Contains reports whether p lies inside (or on the edge of) the bounds.
func (b Bounds) Contains(p LatLng) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat &&
		p.Lng >= b.MinLng && p.Lng <= b.MaxLng
}

// Center returns the midpoint of the bounds.
func (b Bounds) Center() LatLng {
	return LatLng{Lat: (b.MinLat + b.MaxLat) / 2, Lng: (b.MinLng + b.MaxLng) / 2}
}

// DiagonalMeters returns the great-circle length of the bounds diagonal.
func (b Bounds) DiagonalMeters() float64 {
	return Distance(LatLng{Lat: b.MinLat, Lng: b.MinLng}, LatLng{Lat: b.MaxLat, Lng: b.MaxLng})
}

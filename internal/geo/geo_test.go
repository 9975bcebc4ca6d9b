package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomCityPoint returns a point inside the simulation's city-scale extent
// (a ~50 km box around a mid-latitude origin), the regime all algorithms
// operate in.
func randomCityPoint(r *rand.Rand) LatLng {
	return LatLng{
		Lat: 28.5 + r.Float64()*0.5,
		Lng: 77.0 + r.Float64()*0.5,
	}
}

func TestDistanceKnownValues(t *testing.T) {
	tests := []struct {
		name   string
		a, b   LatLng
		wantM  float64
		within float64
	}{
		{"same point", LatLng{28.6, 77.2}, LatLng{28.6, 77.2}, 0, 0.001},
		{"one degree latitude", LatLng{0, 0}, LatLng{1, 0}, 111195, 50},
		{"one degree longitude at equator", LatLng{0, 0}, LatLng{0, 1}, 111195, 50},
		{"delhi to bangalore", LatLng{28.6139, 77.2090}, LatLng{12.9716, 77.5946}, 1740000, 10000},
		{"antipodal-ish", LatLng{0, 0}, LatLng{0, 180}, math.Pi * EarthRadiusMeters, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Distance(tt.a, tt.b)
			if math.Abs(got-tt.wantM) > tt.within {
				t.Errorf("Distance(%v, %v) = %.1f m, want %.1f ± %.1f", tt.a, tt.b, got, tt.wantM, tt.within)
			}
		})
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(latA, lngA, latB, lngB float64) bool {
		a := LatLng{Lat: math.Mod(latA, 90), Lng: math.Mod(lngA, 180)}
		b := LatLng{Lat: math.Mod(latB, 90), Lng: math.Mod(lngB, 180)}
		d1, d2 := Distance(a, b), Distance(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		a, b, c := randomCityPoint(r), randomCityPoint(r), randomCityPoint(r)
		ab, bc, ac := Distance(a, b), Distance(b, c), Distance(a, c)
		if ac > ab+bc+1e-6 {
			t.Fatalf("triangle inequality violated: d(a,c)=%.3f > d(a,b)+d(b,c)=%.3f", ac, ab+bc)
		}
	}
}

func TestOffsetRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p := randomCityPoint(r)
		brg := r.Float64() * 360
		dist := r.Float64() * 20000 // up to 20 km
		q := Offset(p, brg, dist)
		got := Distance(p, q)
		if math.Abs(got-dist) > 0.5 {
			t.Fatalf("Offset distance mismatch: moved %.3f m, want %.3f m", got, dist)
		}
		// Travelling back along the reverse bearing should land near p.
		back := Offset(q, Bearing(q, p), dist)
		if d := Distance(back, p); d > 1.0 {
			t.Fatalf("round trip drifted %.3f m", d)
		}
	}
}

func TestBearingCardinal(t *testing.T) {
	origin := LatLng{Lat: 28.6, Lng: 77.2}
	tests := []struct {
		name string
		to   LatLng
		want float64
	}{
		{"north", LatLng{Lat: 28.7, Lng: 77.2}, 0},
		{"east", LatLng{Lat: 28.6, Lng: 77.3}, 90},
		{"south", LatLng{Lat: 28.5, Lng: 77.2}, 180},
		{"west", LatLng{Lat: 28.6, Lng: 77.1}, 270},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Bearing(origin, tt.to)
			diff := math.Abs(got - tt.want)
			if diff > 0.2 && diff < 359.8 {
				t.Errorf("Bearing = %.3f, want %.3f", got, tt.want)
			}
		})
	}
}

func TestBearingRange(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		a, b := randomCityPoint(r), randomCityPoint(r)
		brg := Bearing(a, b)
		if brg < 0 || brg >= 360 {
			t.Fatalf("bearing %.3f out of [0, 360)", brg)
		}
	}
}

func TestInterpolate(t *testing.T) {
	a := LatLng{Lat: 28.6, Lng: 77.2}
	b := LatLng{Lat: 28.7, Lng: 77.3}
	if got := Interpolate(a, b, 0); got != a {
		t.Errorf("f=0 should return a, got %v", got)
	}
	if got := Interpolate(a, b, 1); got != b {
		t.Errorf("f=1 should return b, got %v", got)
	}
	mid := Interpolate(a, b, 0.5)
	dA, dB := Distance(a, mid), Distance(mid, b)
	if math.Abs(dA-dB) > 1 {
		t.Errorf("midpoint not equidistant: %.3f vs %.3f", dA, dB)
	}
	// Clamping.
	if got := Interpolate(a, b, -0.5); got != a {
		t.Errorf("f<0 should clamp to a, got %v", got)
	}
	if got := Interpolate(a, b, 1.5); got != b {
		t.Errorf("f>1 should clamp to b, got %v", got)
	}
	// Degenerate segment.
	if got := Interpolate(a, a, 0.5); got != a {
		t.Errorf("degenerate segment should return a, got %v", got)
	}
}

func TestCentroid(t *testing.T) {
	if got := Centroid(nil); !got.IsZero() {
		t.Errorf("empty centroid = %v, want zero", got)
	}
	pts := []LatLng{{Lat: 28.0, Lng: 77.0}, {Lat: 29.0, Lng: 78.0}}
	got := Centroid(pts)
	want := LatLng{Lat: 28.5, Lng: 77.5}
	if math.Abs(got.Lat-want.Lat) > 1e-9 || math.Abs(got.Lng-want.Lng) > 1e-9 {
		t.Errorf("Centroid = %v, want %v", got, want)
	}
}

func TestCentroidInsideBounds(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		n := 1 + r.Intn(20)
		pts := make([]LatLng, n)
		for j := range pts {
			pts[j] = randomCityPoint(r)
		}
		b, ok := NewBounds(pts)
		if !ok {
			t.Fatal("NewBounds failed on non-empty input")
		}
		if c := Centroid(pts); !b.Contains(c) {
			t.Fatalf("centroid %v outside bounds %+v", c, b)
		}
	}
}

func TestBounds(t *testing.T) {
	if _, ok := NewBounds(nil); ok {
		t.Error("NewBounds(nil) should report not-ok")
	}
	pts := []LatLng{{28.6, 77.2}, {28.7, 77.1}, {28.65, 77.3}}
	b, ok := NewBounds(pts)
	if !ok {
		t.Fatal("NewBounds failed")
	}
	for _, p := range pts {
		if !b.Contains(p) {
			t.Errorf("bounds should contain %v", p)
		}
	}
	if b.Contains(LatLng{Lat: 30, Lng: 77.2}) {
		t.Error("bounds should not contain far point")
	}
	if b.MinLat != 28.6 || b.MaxLat != 28.7 || b.MinLng != 77.1 || b.MaxLng != 77.3 {
		t.Errorf("unexpected bounds %+v", b)
	}
	c := b.Center()
	if !b.Contains(c) {
		t.Errorf("center %v should be inside bounds", c)
	}
	if b.DiagonalMeters() <= 0 {
		t.Error("diagonal should be positive for non-degenerate bounds")
	}
}

func TestValid(t *testing.T) {
	tests := []struct {
		p    LatLng
		want bool
	}{
		{LatLng{0, 0}, true},
		{LatLng{90, 180}, true},
		{LatLng{-90, -180}, true},
		{LatLng{91, 0}, false},
		{LatLng{0, 181}, false},
		{LatLng{math.NaN(), 0}, false},
	}
	for _, tt := range tests {
		if got := tt.p.Valid(); got != tt.want {
			t.Errorf("Valid(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestOffsetLongitudeNormalization(t *testing.T) {
	// Travelling east across the antimeridian should wrap into [-180, 180].
	p := LatLng{Lat: 0, Lng: 179.9}
	q := Offset(p, 90, 50000)
	if q.Lng > 180 || q.Lng < -180 {
		t.Errorf("longitude not normalized: %v", q)
	}
	if q.Lng > 0 {
		t.Errorf("expected wrap to negative longitude, got %v", q)
	}
}

// haversineRef is the haversine written out in one piece, with each cosine
// computed in place: the reference DistanceCos must match bit for bit.
func haversineRef(a, b LatLng) float64 {
	latA, latB := radians(a.Lat), radians(b.Lat)
	dLat := latB - latA
	dLng := radians(b.Lng - a.Lng)

	sinLat := math.Sin(dLat / 2)
	sinLng := math.Sin(dLng / 2)
	h := sinLat*sinLat + math.Cos(latA)*math.Cos(latB)*sinLng*sinLng
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(h))
}

// checkDistanceCos fails unless DistanceCos with LatCos's cosines and
// Distance both give haversineRef's bits, NaNs included.
func checkDistanceCos(t *testing.T, a, b LatLng) {
	t.Helper()
	want := math.Float64bits(haversineRef(a, b))
	if got := math.Float64bits(DistanceCos(a, b, LatCos(a), LatCos(b))); got != want {
		t.Fatalf("DistanceCos(%v, %v) = %v, the haversine gives %v", a, b, math.Float64frombits(got), math.Float64frombits(want))
	}
	if got := math.Float64bits(Distance(a, b)); got != want {
		t.Fatalf("Distance(%v, %v) = %v, the haversine gives %v", a, b, math.Float64frombits(got), math.Float64frombits(want))
	}
}

// TestDistanceCosMatchesHaversine: the cached-cosine distance is the
// haversine's bits over city pairs, the whole globe, both poles, the
// antimeridian and the equator.
func TestDistanceCosMatchesHaversine(t *testing.T) {
	edges := []LatLng{
		{90, 0}, {-90, 0}, {90, 180}, {-90, -180}, {0, 180}, {0, -180},
		{45, 179.999999}, {45, -179.999999}, {0, 0}, {28.6139, 77.2090},
		{math.Nextafter(90, 0), 0}, {-89.9999, 180},
	}
	for _, a := range edges {
		for _, b := range edges {
			checkDistanceCos(t, a, b)
		}
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		checkDistanceCos(t, randomCityPoint(r), randomCityPoint(r))
		a := LatLng{Lat: r.Float64()*180 - 90, Lng: r.Float64()*360 - 180}
		b := LatLng{Lat: r.Float64()*180 - 90, Lng: r.Float64()*360 - 180}
		checkDistanceCos(t, a, b)
	}
}

// FuzzDistanceCos checks DistanceCos and Distance against the haversine, bit
// for bit, on arbitrary coordinates, out-of-domain and NaN ones included.
func FuzzDistanceCos(f *testing.F) {
	f.Add(28.6139, 77.2090, 28.62, 77.21)
	f.Add(90.0, 0.0, -90.0, 0.0)
	f.Add(0.0, 180.0, 0.0, -180.0)
	f.Add(45.0, 179.9999, 45.0, -179.9999)
	f.Add(-89.99, 12.0, 89.99, -168.0)
	f.Fuzz(func(t *testing.T, latA, lngA, latB, lngB float64) {
		checkDistanceCos(t, LatLng{latA, lngA}, LatLng{latB, lngB})
	})
}

package world

import (
	"math"

	"repro/internal/geo"
)

// coverCellMeters is the edge of a coverage-index cell: small next to a
// tower's range, so a cell lists few towers that reach none of its points,
// and about an AP's range, so an AP sits in a handful of cells.
const coverCellMeters = 100

// maxCoverCells caps the grid of a very large world; past it the cells
// grow instead.
const maxCoverCells = 1 << 16

// coverMarginMeters pads the reach test against rounding in geo.Distance,
// in lngReach and in the point-to-cell arithmetic, all far below a
// millimetre; it only ever adds candidates.
const coverMarginMeters = 1

// coverIndex is a fixed lat/lng grid over a world's bounds. Each cell lists,
// by position in the world's tower or AP slice, the items whose coverage
// circle can reach some point of the cell: those within range + the cell's
// half-diagonal of the cell's centre, which by the triangle inequality
// includes every item covering any point of the cell. Cell lists are in
// ascending position, so a lookup visits a subsequence of the full list that
// holds every item covering the point; the caller's exact distance test then
// gives what a scan of the full list gives. Points outside the grid visit the
// full list. Positions rather than pointers keep the grid out of the garbage
// collector's scan.
//
// Generate and Finalize build an index, AddVenue adds its APs to one, and
// nothing else writes it; lookups only read, so any number of goroutines may
// query a world nobody is adding venues to.
type coverIndex struct {
	minLat, minLng float64
	dLat, dLng     float64 // cell edge in degrees
	rows, cols     int
	// reach[i] is the distance from a cell's centre to its farthest corner
	// in row i; every cell of a row is the same shape.
	reach []float64
	cells [][]int32
}

// newCoverIndex lays an empty grid over b. Empty bounds (a world assembled
// by hand without them) give a grid of no cells, so every lookup falls back
// to the full list.
func newCoverIndex(b geo.Bounds) *coverIndex {
	ix := &coverIndex{minLat: b.MinLat, minLng: b.MinLng}
	if !(b.MaxLat > b.MinLat && b.MaxLng > b.MinLng) {
		return ix
	}
	midLat := (b.MinLat + b.MaxLat) / 2
	height := geo.Distance(geo.LatLng{Lat: b.MinLat, Lng: b.MinLng}, geo.LatLng{Lat: b.MaxLat, Lng: b.MinLng})
	width := geo.Distance(geo.LatLng{Lat: midLat, Lng: b.MinLng}, geo.LatLng{Lat: midLat, Lng: b.MaxLng})
	cell := float64(coverCellMeters)
	for {
		ix.rows = max(1, int(math.Ceil(height/cell)))
		ix.cols = max(1, int(math.Ceil(width/cell)))
		if ix.rows*ix.cols <= maxCoverCells {
			break
		}
		cell *= 2
	}
	ix.dLat = (b.MaxLat - b.MinLat) / float64(ix.rows)
	ix.dLng = (b.MaxLng - b.MinLng) / float64(ix.cols)
	ix.reach = make([]float64, ix.rows)
	for i := range ix.reach {
		c := ix.centre(i, 0)
		lat0, lng0 := ix.minLat+float64(i)*ix.dLat, ix.minLng
		for _, corner := range []geo.LatLng{
			{Lat: lat0, Lng: lng0}, {Lat: lat0 + ix.dLat, Lng: lng0},
			{Lat: lat0, Lng: lng0 + ix.dLng}, {Lat: lat0 + ix.dLat, Lng: lng0 + ix.dLng},
		} {
			ix.reach[i] = max(ix.reach[i], geo.Distance(c, corner))
		}
	}
	ix.cells = make([][]int32, ix.rows*ix.cols)
	return ix
}

func (ix *coverIndex) centre(i, j int) geo.LatLng {
	return geo.LatLng{
		Lat: ix.minLat + (float64(i)+0.5)*ix.dLat,
		Lng: ix.minLng + (float64(j)+0.5)*ix.dLng,
	}
}

// add lists item k in every cell whose centre lies within rangeMeters plus the
// cell's reach of pos. Along one row of centres the haversine grows with the
// longitude gap, so the row's cells in reach are one run of columns: lngReach
// solves geo.Distance's formula for the run's half-width, so no cell is
// tested one by one.
func (ix *coverIndex) add(k int, pos geo.LatLng, rangeMeters float64) {
	for i := 0; i < ix.rows; i++ {
		half, ok := lngReach(pos, ix.centre(i, 0).Lat, rangeMeters+ix.reach[i]+coverMarginMeters)
		if !ok {
			continue
		}
		j0, j1 := 0, ix.cols-1
		// Across the antimeridian the run wraps; list the whole row.
		if pos.Lng-half >= -180 && pos.Lng+half <= 180 {
			j0 = max(j0, int(math.Ceil((pos.Lng-half-ix.minLng)/ix.dLng-0.5)))
			j1 = min(j1, int(math.Floor((pos.Lng+half-ix.minLng)/ix.dLng-0.5)))
		}
		for j := j0; j <= j1; j++ {
			c := i*ix.cols + j
			ix.cells[c] = append(ix.cells[c], int32(k))
		}
	}
}

// lngReach returns the largest longitude gap, in degrees, at which a point at
// latitude lat is within dist of p by geo.Distance's haversine, and false
// when no point at that latitude is.
func lngReach(p geo.LatLng, lat, dist float64) (float64, bool) {
	ang := dist / (2 * geo.EarthRadiusMeters)
	if ang >= math.Pi/2 {
		return 180, true
	}
	latA, latB := p.Lat*math.Pi/180, lat*math.Pi/180
	sinHalf, sinLat := math.Sin(ang), math.Sin((latB-latA)/2)
	s := (sinHalf*sinHalf - sinLat*sinLat) / (math.Cos(latA) * math.Cos(latB))
	if !(s >= 0) {
		return 0, false
	}
	if s >= 1 {
		return 180, true
	}
	return 2 * math.Asin(math.Sqrt(s)) * 180 / math.Pi, true
}

// each calls fn, in ascending order, with the position of every item of an
// n-item list that may cover p: p's cell list, or all n when p is off the
// grid or there is no index.
func (ix *coverIndex) each(p geo.LatLng, n int, fn func(k int)) {
	if ix != nil && len(ix.cells) > 0 {
		// Comparing the float quotients before converting keeps NaN and
		// far-off points off the grid.
		fi, fj := (p.Lat-ix.minLat)/ix.dLat, (p.Lng-ix.minLng)/ix.dLng
		if fi >= 0 && fi < float64(ix.rows) && fj >= 0 && fj < float64(ix.cols) {
			for _, k := range ix.cells[int(fi)*ix.cols+int(fj)] {
				fn(int(k))
			}
			return
		}
	}
	for k := 0; k < n; k++ {
		fn(k)
	}
}

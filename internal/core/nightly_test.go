package core

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/gsm"
	"repro/internal/world"
)

// geoCountingCloud answers each cell with a position derived from its CID,
// counts the asks per cell, and fails the first ask of each cell in failOnce.
type geoCountingCloud struct {
	gatedCloud
	asks     map[world.CellID]int
	failOnce map[world.CellID]bool
}

func (g *geoCountingCloud) GeolocateCell(id world.CellID) (geo.LatLng, float64, error) {
	g.asks[id]++
	if g.failOnce[id] && g.asks[id] == 1 {
		return geo.LatLng{}, 0, errFlaky
	}
	return cellAnswer(id), 500, nil
}

func cellAnswer(id world.CellID) geo.LatLng {
	return geo.LatLng{Lat: 28.6 + float64(id.CID)/1e4, Lng: 77.2}
}

// TestGeolocateAsksEachCellOnce: two nightly passes ask the cloud once for
// each distinct signature cell, however many places share it, and ask again
// on the next night only for a cell whose answer failed.
func TestGeolocateAsksEachCellOnce(t *testing.T) {
	cell := func(cid int) world.CellID { return world.CellID{MCC: 404, MNC: 10, LAC: 100, CID: cid} }
	c1, c2, c3 := cell(1), cell(2), cell(3)
	cloud := &geoCountingCloud{asks: map[world.CellID]int{}, failOnce: map[world.CellID]bool{c3: true}}
	s := NewService(DefaultConfig("u1"), nil, nil, nil, cloud)
	s.gsmPlaces = []*gsm.Place{
		{ID: 0, Signature: []world.CellID{c1, c2}},
		{ID: 1, Signature: []world.CellID{c2, c3}},
	}
	s.places = []*UnifiedPlace{{ID: "a", GSMPlaceID: 0}, {ID: "b", GSMPlaceID: 1}}

	check := func(night int, wantAsks map[world.CellID]int, wantB geo.LatLng) {
		t.Helper()
		for c, n := range wantAsks {
			if cloud.asks[c] != n {
				t.Errorf("night %d: cell %v asked %d times, want %d", night, c, cloud.asks[c], n)
			}
		}
		if want := geo.Centroid([]geo.LatLng{cellAnswer(c1), cellAnswer(c2)}); s.places[0].Center != want {
			t.Errorf("night %d: place a at %v, want %v", night, s.places[0].Center, want)
		}
		if s.places[1].Center != wantB {
			t.Errorf("night %d: place b at %v, want %v", night, s.places[1].Center, wantB)
		}
	}
	s.geolocatePlaces()
	check(1, map[world.CellID]int{c1: 1, c2: 1, c3: 1}, cellAnswer(c2))
	s.geolocatePlaces()
	check(2, map[world.CellID]int{c1: 1, c2: 1, c3: 2}, geo.Centroid([]geo.LatLng{cellAnswer(c2), cellAnswer(c3)}))
}

package cloud

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/simclock"
	"repro/internal/world"
)

// popularFixture stores places for several users around shared towers.
func popularFixture(t *testing.T) (*Store, *CellDatabase, *world.World) {
	t.Helper()
	w := world.Generate(world.DefaultConfig(), rand.New(rand.NewSource(91)))
	cells := NewCellDatabase(w, 100)
	store := NewStore(fixedNow(simclock.Epoch))
	return store, cells, w
}

// placeAtTower builds a PlaceWire whose cells are towers near index i.
func placeAtTower(w *world.World, i int, label string) PlaceWire {
	t := w.Towers[i]
	cells := []world.CellID{t.ID}
	// Add a couple of neighbours of its operator for realism.
	for _, n := range w.TowersInRange(t.Pos, t.ID.MNC)[:3] {
		cells = append(cells, n.Tower.ID)
	}
	return PlaceWire{ID: 0, Cells: cells, Label: label}
}

func TestPopularPlacesSuppressesUnique(t *testing.T) {
	store, cells, w := popularFixture(t)
	// Three users share a "mall" at tower 10; one user has a unique home at
	// a far tower.
	for _, u := range []string{"u1", "u2", "u3"} {
		store.SetPlaces(u, []PlaceWire{placeAtTower(w, 10, "mall")})
	}
	store.SetPlaces("u4", []PlaceWire{placeAtTower(w, len(w.Towers)-1, "my home")})

	out := PopularPlaces(store, cells, 3, 400)
	if len(out) != 1 {
		t.Fatalf("clusters = %d, want 1 (unique home must be suppressed)", len(out))
	}
	if out[0].Users != 3 {
		t.Errorf("users = %d", out[0].Users)
	}
	if out[0].Label != "mall" {
		t.Errorf("label = %q, want mall (3 >= k users agree)", out[0].Label)
	}
}

func TestPopularPlacesLabelAnonymity(t *testing.T) {
	store, cells, w := popularFixture(t)
	// Three users at the same spot, but only ONE labelled it: revealing that
	// label would leak the labeller's vocabulary. It must stay hidden.
	store.SetPlaces("u1", []PlaceWire{placeAtTower(w, 10, "my secret spot")})
	store.SetPlaces("u2", []PlaceWire{placeAtTower(w, 10, "")})
	store.SetPlaces("u3", []PlaceWire{placeAtTower(w, 10, "")})

	out := PopularPlaces(store, cells, 3, 400)
	if len(out) != 1 {
		t.Fatalf("clusters = %d", len(out))
	}
	if out[0].Label != "" {
		t.Errorf("minority label leaked: %q", out[0].Label)
	}
}

func TestPopularPlacesLabelCountsUsers(t *testing.T) {
	store, cells, w := popularFixture(t)
	// Alice labels three places at one spot; two other users have unlabelled
	// places there. Three members carry the label but only one user does, so
	// publishing it under k=3 would name Alice's flat.
	label := "alice's flat"
	store.SetPlaces("alice", []PlaceWire{placeAtTower(w, 10, label), placeAtTower(w, 10, label), placeAtTower(w, 10, label)})
	store.SetPlaces("u2", []PlaceWire{placeAtTower(w, 10, "")})
	store.SetPlaces("u3", []PlaceWire{placeAtTower(w, 10, "")})

	out := PopularPlaces(store, cells, 3, 400)
	if len(out) != 1 || out[0].Users != 3 {
		t.Fatalf("clusters = %+v, want one of 3 users", out)
	}
	if out[0].Label != "" {
		t.Errorf("one user's label published under k=3: %q", out[0].Label)
	}
}

func TestPopularPlacesMinimumK(t *testing.T) {
	store, cells, w := popularFixture(t)
	store.SetPlaces("u1", []PlaceWire{placeAtTower(w, 5, "home")})
	// k below 2 is clamped: a single user's place never appears.
	if out := PopularPlaces(store, cells, 1, 400); len(out) != 0 {
		t.Error("k=1 revealed a single user's place")
	}
}

func TestPopularPlacesSkipsUnmappedCells(t *testing.T) {
	store, cells, _ := popularFixture(t)
	ghost := PlaceWire{Cells: []world.CellID{{MCC: 1, MNC: 1, LAC: 1, CID: 1}}}
	for _, u := range []string{"u1", "u2", "u3"} {
		store.SetPlaces(u, []PlaceWire{ghost})
	}
	if out := PopularPlaces(store, cells, 2, 400); len(out) != 0 {
		t.Error("unmappable places clustered")
	}
}

func TestPopularPlacesDeterministic(t *testing.T) {
	store, cells, w := popularFixture(t)
	for i, u := range []string{"u1", "u2", "u3", "u4", "u5"} {
		store.SetPlaces(u, []PlaceWire{
			placeAtTower(w, 10, "mall"),
			placeAtTower(w, 40+i, ""), // scattered singles
		})
	}
	a := PopularPlaces(store, cells, 3, 400)
	b := PopularPlaces(store, cells, 3, 400)
	if len(a) != len(b) {
		t.Fatal("non-deterministic cluster count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic clusters")
		}
	}
}

func TestPopularPlacesViaHTTP(t *testing.T) {
	w := world.Generate(world.DefaultConfig(), rand.New(rand.NewSource(92)))
	cells := NewCellDatabase(w, 100)
	ts := newTestServer(t, WithCellDatabase(cells))
	for _, u := range []string{"a", "b", "c"} {
		reg, err := ts.store.Register("imei-"+u, u+"@x")
		if err != nil {
			t.Fatal(err)
		}
		ts.store.SetPlaces(reg.UserID, []PlaceWire{placeAtTower(w, 10, "mall")})
	}
	c := ts.client()
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	resp, err := c.PopularPlaces(3, 400)
	if err != nil {
		t.Fatal(err)
	}
	if resp.K != 3 || len(resp.Places) != 1 || resp.Places[0].Users != 3 {
		t.Errorf("response = %+v", resp)
	}
	// Bad k rejected.
	if err := c.authedCall(context.Background(), "GET", PathPlacesPopular, mustQuery("k", "1"), nil, nil, true); err == nil {
		t.Error("k=1 accepted over HTTP")
	}
	if err := c.authedCall(context.Background(), "GET", PathPlacesPopular, mustQuery("radius", "-5"), nil, nil, true); err == nil {
		t.Error("negative radius accepted")
	}
}

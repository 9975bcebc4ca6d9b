package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/gsm"
	"repro/internal/profile"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/world"
)

// testServer wires a full cloud instance over httptest with a controllable
// clock.
type testServer struct {
	srv   *httptest.Server
	store *Store
	now   *time.Time
}

func newTestServer(t *testing.T, opts ...ServerOption) *testServer {
	t.Helper()
	now := simclock.Epoch
	store := NewStore(func() time.Time { return now })
	server := NewServer(store, opts...)
	ts := httptest.NewServer(server.Handler())
	t.Cleanup(func() {
		ts.Close()
		server.Close()
	})
	return &testServer{srv: ts, store: store, now: &now}
}

func (ts *testServer) client() *Client {
	return NewClient(ts.srv.URL, "imei-9", "tester@example.com", ts.srv.Client())
}

// fastRetry is the default retry policy with the sleeps removed, so tests
// that exercise failure paths do not pay real backoff delays.
func fastRetry() RetryPolicy {
	return DefaultRetryPolicy().WithSleep(func(context.Context, time.Duration) error { return nil })
}

func cellObs(minute, cid int) trace.GSMObservation {
	return trace.GSMObservation{
		At:   simclock.Epoch.Add(time.Duration(minute) * time.Minute),
		Cell: world.CellID{MCC: 404, MNC: 10, LAC: 1, CID: cid},
	}
}

// oscillatingTrace builds a trace with two 40-minute stays separated by
// movement.
func oscillatingTrace() []trace.GSMObservation {
	var obs []trace.GSMObservation
	m := 0
	for i := 0; i < 20; i++ {
		obs = append(obs, cellObs(m, 1), cellObs(m+1, 2))
		m += 2
	}
	for c := 100; c < 120; c++ {
		obs = append(obs, cellObs(m, c))
		m++
	}
	for i := 0; i < 20; i++ {
		obs = append(obs, cellObs(m, 7), cellObs(m+1, 8))
		m += 2
	}
	return obs
}

func TestRegisterAndDiscoverViaHTTP(t *testing.T) {
	ts := newTestServer(t)
	c := ts.client()
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	if c.UserID() == "" {
		t.Fatal("no user id after registration")
	}

	places, err := c.DiscoverPlaces(oscillatingTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(places) != 2 {
		t.Fatalf("places = %d, want 2", len(places))
	}
	for _, p := range places {
		if len(p.Signature) == 0 || len(p.AllCells) == 0 || len(p.Visits) == 0 {
			t.Errorf("wire round-trip lost data: %+v", p)
		}
	}

	// Server stored them.
	stored, err := c.Places()
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 2 {
		t.Errorf("stored = %d", len(stored))
	}

	// Label round-trip.
	if err := c.LabelPlace(stored[0].ID, "Home"); err != nil {
		t.Fatal(err)
	}
	stored, _ = c.Places()
	found := false
	for _, p := range stored {
		if p.Label == "Home" {
			found = true
		}
	}
	if !found {
		t.Error("label not visible")
	}
}

func TestAuthRequired(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.srv.URL + PathPlaces)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("status = %d, want 401", resp.StatusCode)
	}
	// Garbage token.
	req, _ := http.NewRequest(http.MethodGet, ts.srv.URL+PathPlaces, nil)
	req.Header.Set("Authorization", "Bearer bogus")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnauthorized {
		t.Errorf("bogus token status = %d", resp2.StatusCode)
	}
}

func TestClientAutoRefreshOnExpiry(t *testing.T) {
	ts := newTestServer(t)
	c := ts.client()
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	// Age the token past expiry: the client must recover transparently by
	// re-registering (refresh also fails for expired tokens).
	*ts.now = ts.now.Add(2 * TokenTTL)
	if _, err := c.Places(); err != nil {
		t.Fatalf("client did not recover from expiry: %v", err)
	}
}

func TestClientExplicitRefresh(t *testing.T) {
	ts := newTestServer(t)
	c := ts.client()
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	if err := c.Refresh(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Places(); err != nil {
		t.Fatalf("refreshed token rejected: %v", err)
	}
}

func TestProfileSyncAndFetch(t *testing.T) {
	ts := newTestServer(t)
	c := ts.client()
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	day := simclock.Epoch
	p := &profile.DayProfile{
		UserID: "ignored-client-side", // server stamps the authed user
		Date:   day.Format(profile.DateFormat),
		Places: []profile.PlaceVisit{{PlaceID: "p0", Arrive: day.Add(8 * time.Hour), Depart: day.Add(18 * time.Hour)}},
	}
	if err := c.SyncProfile(p); err != nil {
		t.Fatal(err)
	}
	got, err := c.Profile(p.Date)
	if err != nil {
		t.Fatal(err)
	}
	if got.UserID != c.UserID() {
		t.Errorf("profile user = %q, want authed %q", got.UserID, c.UserID())
	}
	if len(got.Places) != 1 {
		t.Error("places lost")
	}
	ps, err := c.ProfileRange("", "")
	if err != nil || len(ps) != 1 {
		t.Errorf("range = %v, %v", ps, err)
	}
	if _, err := c.Profile("2019-01-01"); err == nil {
		t.Error("missing profile fetched")
	}
}

func TestGeolocateViaHTTP(t *testing.T) {
	w := world.Generate(world.DefaultConfig(), newRand(5))
	db := NewCellDatabase(w, 150)
	ts := newTestServer(t, WithCellDatabase(db))
	c := ts.client()
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	tower := w.Towers[0]
	pos, acc, err := c.GeolocateCell(tower.ID)
	if err != nil {
		t.Fatal(err)
	}
	if acc <= 0 {
		t.Error("no accuracy radius")
	}
	if d := distance(pos.Lat, pos.Lng, tower.Pos.Lat, tower.Pos.Lng); d > 400 {
		t.Errorf("geolocated %f m from tower", d)
	}
	// Unknown cell 404s.
	if _, _, err := c.GeolocateCell(world.CellID{MCC: 1, MNC: 2, LAC: 3, CID: 4}); err == nil {
		t.Error("unknown cell resolved")
	}
}

func TestRoutesAndSimilarityViaHTTP(t *testing.T) {
	ts := newTestServer(t)
	c := ts.client()
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	// Build trips between two stays.
	var obs []trace.GSMObservation
	for i := 0; i < 5; i++ {
		obs = append(obs, cellObs(60+i, 10+i))
	}
	visits := []VisitWire{
		{Arrive: simclock.Epoch, Depart: simclock.Epoch.Add(60 * time.Minute)},
		{Arrive: simclock.Epoch.Add(65 * time.Minute), Depart: simclock.Epoch.Add(120 * time.Minute)},
	}
	routes, err := c.DiscoverRoutes(obs, visits)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 1 {
		t.Fatalf("routes = %d", len(routes))
	}
	got, err := c.Routes(1)
	if err != nil || len(got) != 1 {
		t.Errorf("stored routes = %v, %v", got, err)
	}
	if got2, err := c.Routes(5); err != nil || len(got2) != 0 {
		t.Errorf("min_frequency filter failed: %v, %v", got2, err)
	}

	sim, err := c.RouteSimilarity(routes[0].Cells, routes[0].Cells)
	if err != nil {
		t.Fatal(err)
	}
	if sim != 1 {
		t.Errorf("self similarity = %v", sim)
	}
}

func TestContactsViaHTTP(t *testing.T) {
	ts := newTestServer(t)
	c := ts.client()
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	err := c.UploadContacts([]profile.Encounter{
		{ContactID: "u2", PlaceID: "work", Start: simclock.Epoch, End: simclock.Epoch.Add(time.Hour)},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Contacts("work")
	if err != nil || len(got) != 1 || got[0].ContactID != "u2" {
		t.Errorf("contacts = %v, %v", got, err)
	}
	if got, _ := c.Contacts("cafe"); len(got) != 0 {
		t.Error("place filter leak")
	}
}

func TestPredictionEndpoints(t *testing.T) {
	ts := newTestServer(t)
	c := ts.client()
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	seedProfiles(t, ts.store, c.UserID())

	arr, err := c.PredictArrival("work")
	if err != nil {
		t.Fatal(err)
	}
	if arr.SampleCount != 10 {
		t.Errorf("samples = %d", arr.SampleCount)
	}
	if _, err := c.PredictArrival("nowhere"); err == nil {
		t.Error("prediction for unvisited place")
	}

	next, err := c.PredictNextVisit("mall", simclock.Epoch.AddDate(0, 0, 14))
	if err != nil {
		t.Fatal(err)
	}
	if !next.Confident || next.NextVisit.Weekday() != time.Saturday {
		t.Errorf("next visit = %+v", next)
	}

	freq, err := c.VisitFrequency("work")
	if err != nil || freq.TotalVisits != 10 {
		t.Errorf("freq = %+v, %v", freq, err)
	}
	lfreq, err := c.FrequencyByLabel("mall")
	if err != nil || lfreq.TotalVisits != 2 {
		t.Errorf("label freq = %+v, %v", lfreq, err)
	}
}

func TestBadRequests(t *testing.T) {
	ts := newTestServer(t)
	c := ts.client()
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	// Empty discovery payload.
	if _, err := c.DiscoverPlaces(nil); err == nil {
		t.Error("empty discovery accepted")
	}
	// Malformed JSON body straight at the server.
	req, _ := http.NewRequest(http.MethodPost, ts.srv.URL+PathPlacesDiscover, bytes.NewReader([]byte("{nope")))
	req.Header.Set("Authorization", "Bearer "+registeredToken(t, ts))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d", resp.StatusCode)
	}
	// Bad date on profile PUT.
	var p profile.DayProfile
	err = c.authedCall(context.Background(), http.MethodPut, PathProfiles+"/not-a-date", nil, &p, nil, true)
	if err == nil {
		t.Error("bad date accepted")
	}
	// Bad min_frequency.
	err = c.authedCall(context.Background(), http.MethodGet, PathRoutes, mustQuery("min_frequency", "-3"), nil, nil, true)
	if err == nil {
		t.Error("negative min_frequency accepted")
	}
}

func registeredToken(t *testing.T, ts *testServer) string {
	t.Helper()
	resp, err := ts.store.Register("imei-tok", "tok@example.com")
	if err != nil {
		t.Fatal(err)
	}
	return resp.Token
}

func mustQuery(k, v string) map[string][]string {
	return map[string][]string{k: {v}}
}

// TestWireRoundTrip checks PlaceWire <-> gsm.Place fidelity through JSON.
func TestWireRoundTrip(t *testing.T) {
	p := &gsm.Place{
		ID:        3,
		Signature: []world.CellID{{MCC: 404, MNC: 10, LAC: 1, CID: 9}},
		AllCells: map[world.CellID]struct{}{
			{MCC: 404, MNC: 10, LAC: 1, CID: 9}:  {},
			{MCC: 404, MNC: 10, LAC: 1, CID: 11}: {},
		},
		Visits: []gsm.Visit{{Arrive: simclock.Epoch, Depart: simclock.Epoch.Add(time.Hour)}},
	}
	wire := PlaceToWire(p)
	data, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	var back PlaceWire
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	q := WireToPlace(back)
	if q.ID != p.ID || len(q.AllCells) != 2 || len(q.Visits) != 1 {
		t.Errorf("round trip lost data: %+v", q)
	}
	if !q.HasCell(world.CellID{MCC: 404, MNC: 10, LAC: 1, CID: 11}) {
		t.Error("cell set lost")
	}
}

// TestWriteAckMatchesEncoder pins the empty ack's bytes to what
// json.Encoder writes for struct{}{}.
func TestWriteAckMatchesEncoder(t *testing.T) {
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(struct{}{}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	writeAck(rec)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" || rec.Body.String() != want.String() {
		t.Errorf("writeAck wrote %d %q %q, want 200 %q %q",
			rec.Code, rec.Header().Get("Content-Type"), rec.Body.String(), "application/json", want.String())
	}
}

func TestCellDatabaseDeterminism(t *testing.T) {
	w := world.Generate(world.DefaultConfig(), newRand(6))
	db1 := NewCellDatabase(w, 150)
	db2 := NewCellDatabase(w, 150)
	if db1.Size() == 0 || db1.Size() != db2.Size() {
		t.Fatal("size mismatch")
	}
	id := w.Towers[0].ID
	e1, _ := db1.Lookup(id)
	e2, _ := db2.Lookup(id)
	if e1 != e2 {
		t.Error("cell database not deterministic")
	}
	var nilDB *CellDatabase
	if _, ok := nilDB.Lookup(id); ok {
		t.Error("nil database resolved a cell")
	}
	if nilDB.Size() != 0 {
		t.Error("nil database has size")
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func distance(lat1, lng1, lat2, lng2 float64) float64 {
	return geo.Distance(geo.LatLng{Lat: lat1, Lng: lng1}, geo.LatLng{Lat: lat2, Lng: lng2})
}

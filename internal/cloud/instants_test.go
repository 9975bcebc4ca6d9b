package cloud

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/profile"
	"repro/internal/simclock"
	"repro/internal/storage"
)

// TestInstantsNotZones: the record codec carries UnixNano only, so a record
// is built from timestamps canonicalised to UTC before it is applied. A
// client that uploads +05:30 timestamps over the JSON wire (a profile,
// contacts, and a trace whose discovered places inherit its timestamps) reads
// back the same bytes from the live store, from the store recovered by WAL
// replay, and from the store restored from its snapshots; the binary wire
// decodes to the same values; and the trace hash — a function of the instants
// — is what the client computed over its own zoned copy.
func TestInstantsNotZones(t *testing.T) {
	dir := t.TempDir()
	cfg := StoreConfig{Sync: storage.SyncAlways, Now: fixedNow(simclock.Epoch)}
	zone := time.FixedZone("IST", 5*3600+30*60)

	var st *Store
	var ts *httptest.Server
	var token string
	boot := func() {
		var err error
		if st, err = OpenStore(dir, cfg); err != nil {
			t.Fatal(err)
		}
		ts = httptest.NewServer(NewServer(st).Handler())
		c := NewClient(ts.URL, "imei-zone", "zone@example.com", ts.Client())
		if err := c.Register(); err != nil {
			t.Fatal(err)
		}
		token = c.token
	}
	do := func(method, path, accept string, body any) []byte {
		t.Helper()
		var rd io.Reader
		if body != nil {
			b, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(b, []byte("+05:30")) {
				t.Fatalf("%s %s: upload carries no +05:30 timestamp", method, path)
			}
			rd = bytes.NewReader(b)
		}
		req, _ := http.NewRequest(method, ts.URL+path, rd)
		req.Header.Set("Authorization", "Bearer "+token)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d %s", method, path, resp.StatusCode, out)
		}
		return out
	}
	const date = "2014-09-01"
	read := func() string {
		t.Helper()
		var fromBin profile.DayProfile
		if err := decodeWire(do("GET", PathProfiles+"/"+date, ContentTypeBinary, nil), &fromBin); err != nil {
			t.Fatal(err)
		}
		asJSON := do("GET", PathProfiles+"/"+date, "", nil)
		if re, _ := json.Marshal(&fromBin); string(re) != strings.TrimSpace(string(asJSON)) {
			t.Fatalf("the two wires render different profiles:\nbinary: %s\njson:   %s", re, asJSON)
		}
		all := string(asJSON) + string(do("GET", PathPlaces, "", nil)) + string(do("GET", PathContacts, "", nil))
		if strings.Contains(all, "+05:30") || !strings.Contains(all, `"arrive":"2014-09-01T08:00:00Z"`) {
			t.Fatalf("stored timestamps are not UTC instants:\n%s", all)
		}
		return all
	}

	boot()
	day, _ := time.Parse(profile.DateFormat, date)
	at := func(h int) time.Time { return day.Add(time.Duration(h) * time.Hour).In(zone) }
	obs := synthDays(2)
	for i := range obs {
		obs[i].At = obs[i].At.In(zone)
	}
	wantHash := TraceHash(obs)
	do("PUT", PathProfiles+"/"+date, "", &profile.DayProfile{
		Places:   []profile.PlaceVisit{{PlaceID: "p0", Arrive: at(8), Depart: at(17)}},
		Contacts: []profile.Encounter{{ContactID: "u2", Start: at(9), End: at(10)}},
	})
	do("POST", PathContacts, "", ContactsRequest{Encounters: []profile.Encounter{{ContactID: "u3", PlaceID: "p0", Start: at(12), End: at(13)}}})
	var disc DiscoverPlacesResponse
	if err := json.Unmarshal(do("POST", PathPlacesDiscover, "", DiscoverPlacesRequest{Observations: obs}), &disc); err != nil {
		t.Fatal(err)
	}
	if len(disc.Places) == 0 || len(disc.Places[0].Visits) == 0 || disc.TraceHash != wantHash {
		t.Fatalf("discover found %d places, trace hash %x (want %x)", len(disc.Places), disc.TraceHash, wantHash)
	}
	uid := st.userIDs()[0]
	live := read()

	ts.Close() // the store is abandoned, never closed: the next boot replays the WAL
	boot()
	if got := read(); got != live {
		t.Fatalf("renderings differ after WAL replay:\nlive:     %s\nreplayed: %s", live, got)
	}
	if h := st.TraceStatusFor(uid).Hash; h != wantHash {
		t.Fatalf("trace hash %x after replay, want %x", h, wantHash)
	}
	ts.Close()
	if err := st.Close(); err != nil { // compacts: the next boot restores snapshots
		t.Fatal(err)
	}
	boot()
	defer st.Close()
	defer ts.Close()
	if got := read(); got != live {
		t.Fatalf("renderings differ after snapshot restore:\nlive:     %s\nrestored: %s", live, got)
	}
	if h := st.TraceStatusFor(uid).Hash; h != wantHash {
		t.Fatalf("trace hash %x after restore, want %x", h, wantHash)
	}
}

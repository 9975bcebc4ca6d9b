package cloud

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/profile"
	"repro/internal/simclock"
	"repro/internal/storage"
	"repro/internal/world"
)

// mkProfile builds a valid one-visit day profile.
func mkProfile(uid, date string) *profile.DayProfile {
	day, _ := time.Parse(profile.DateFormat, date)
	return &profile.DayProfile{
		UserID: uid, Date: date,
		Places: []profile.PlaceVisit{{PlaceID: "p0", Arrive: day.Add(8 * time.Hour), Depart: day.Add(17 * time.Hour)}},
	}
}

// userStateJSON renders everything the store holds for one user, for
// byte-level state comparison across restarts.
func userStateJSON(t *testing.T, s *Store, uid string) string {
	t.Helper()
	blob := struct {
		Places   []PlaceWire           `json:"places"`
		Routes   []RouteWire           `json:"routes"`
		Profiles []*profile.DayProfile `json:"profiles"`
		Contacts []profile.Encounter   `json:"contacts"`
		Users    int                   `json:"users"`
	}{
		Places:   s.Places(uid),
		Routes:   s.Routes(uid, 0),
		Profiles: s.ProfileRange(uid, "", ""),
		Contacts: s.Contacts(uid, ""),
		Users:    s.UserCount(),
	}
	data, err := json.MarshalIndent(blob, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestStoreDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreConfig{Now: fixedNow(simclock.Epoch)})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := s.Register("imei-1", "a@b.c")
	if err != nil {
		t.Fatal(err)
	}
	uid := reg.UserID
	if err := s.SetPlaces(uid, []PlaceWire{{ID: 0, Cells: []world.CellID{{MCC: 1, MNC: 2, LAC: 3, CID: 4}}}, {ID: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.LabelPlace(uid, 0, "Home"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRoutes(uid, []RouteWire{{ID: 0, Trips: []VisitWire{{}, {}}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutProfile(uid, mkProfile(uid, "2014-09-01")); err != nil {
		t.Fatal(err)
	}
	if err := s.AddContacts(uid, []profile.Encounter{{ContactID: "u2", PlaceID: "p0", Start: simclock.Epoch, End: simclock.Epoch.Add(time.Hour)}}); err != nil {
		t.Fatal(err)
	}
	before := userStateJSON(t, s, uid)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, StoreConfig{Now: fixedNow(simclock.Epoch)})
	if err != nil {
		t.Fatal(err)
	}
	if after := userStateJSON(t, s2, uid); after != before {
		t.Errorf("state diverged across restart:\nbefore: %s\nafter:  %s", before, after)
	}
	// Tokens are ephemeral: the old token must not survive.
	if _, err := s2.Authenticate(reg.Token); err == nil {
		t.Error("token survived restart")
	}
	// Same device re-registers to the same user.
	reg2, err := s2.Register("imei-1", "a@b.c")
	if err != nil || reg2.UserID != uid {
		t.Errorf("device identity lost across restart: %v, %v", reg2.UserID, err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// An intact WAL record whose op the store does not know (here the retired
	// whole-shard import) must fail the open, not be skipped: skipping would
	// silently drop whatever the record carried.
	wals, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%03d", s2.dataShard(uid)), "wal-*.log"))
	if len(wals) != 1 {
		t.Fatalf("want one live WAL after close, got %v", wals)
	}
	rec := []byte(`{"op":"load_shard","data":{"places":{}}}`)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(rec)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(rec))
	f, err := os.OpenFile(wals[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(frame, rec...)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if s3, err := OpenStore(dir, StoreConfig{Now: fixedNow(simclock.Epoch)}); err == nil {
		s3.Close()
		t.Error("OpenStore replayed past a load_shard record")
	} else if !strings.Contains(err.Error(), "load_shard") {
		t.Errorf("OpenStore error does not name the op: %v", err)
	}
}

// TestStoreShardCountPinnedByManifest: reopening with a different shard
// count adopts the persisted layout instead of mis-hashing users.
func TestStoreShardCountPinnedByManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreConfig{Shards: 4, Now: fixedNow(simclock.Epoch)})
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := s.Register("imei-1", "a@b.c")
	if err := s.PutProfile(reg.UserID, mkProfile(reg.UserID, "2014-09-01")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, StoreConfig{Shards: 16, Now: fixedNow(simclock.Epoch)})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.ShardCount(); got != 4 {
		t.Errorf("reopened with %d shards, manifest says 4", got)
	}
	if _, ok := s2.Profile(reg.UserID, "2014-09-01"); !ok {
		t.Error("profile lost after shard-count change attempt")
	}
}

// walFrameEnds parses the cumulative end offsets of intact records in a WAL.
func walFrameEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	off := 0
	for off+8 <= len(data) {
		ln := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if off+8+ln > len(data) {
			break
		}
		off += 8 + ln
		ends = append(ends, off)
	}
	return ends
}

// TestStoreRecoveryTruncationProperty is the cloud-level crash property:
// journal a realistic mutation sequence with fsync=always, then cut the data
// shard's WAL at byte offsets spanning every record boundary (and interior
// bytes). Every cut must recover cleanly to exactly the state after the
// journaled prefix — acknowledged-and-synced writes survive, torn tails
// vanish, nothing half-applies.
func TestStoreRecoveryTruncationProperty(t *testing.T) {
	dir := t.TempDir()
	cfg := StoreConfig{Shards: 1, Sync: storage.SyncAlways, CompactEvery: -1, Now: fixedNow(simclock.Epoch)}
	s, err := OpenStore(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := s.Register("imei-1", "a@b.c")
	if err != nil {
		t.Fatal(err)
	}
	uid := reg.UserID

	// The mutation script, one journaled record per step.
	steps := []func(*Store) error{
		func(s *Store) error {
			return s.SetPlaces(uid, []PlaceWire{{ID: 0, Cells: []world.CellID{{MCC: 1, MNC: 1, LAC: 1, CID: 1}}}, {ID: 1}})
		},
		func(s *Store) error { return s.LabelPlace(uid, 0, "Home") },
		func(s *Store) error { return s.PutProfile(uid, mkProfile(uid, "2014-09-01")) },
		func(s *Store) error { return s.SetRoutes(uid, []RouteWire{{ID: 0, Trips: []VisitWire{{}, {}, {}}}}) },
		func(s *Store) error { return s.PutProfile(uid, mkProfile(uid, "2014-09-02")) },
		func(s *Store) error {
			return s.AddContacts(uid, []profile.Encounter{{ContactID: "u9", PlaceID: "p0", Start: simclock.Epoch, End: simclock.Epoch.Add(time.Hour)}})
		},
		func(s *Store) error {
			return s.SetPlaces(uid, []PlaceWire{{ID: 0}, {ID: 1}, {ID: 2}}) // re-discovery; label carry
		},
		func(s *Store) error { return s.PutProfile(uid, mkProfile(uid, "2014-09-03")) },
	}

	// expected[i] = user state after i steps, built on memory-only reference
	// stores driven through the identical script.
	expected := make([]string, len(steps)+1)
	for i := 0; i <= len(steps); i++ {
		ref := NewStore(fixedNow(simclock.Epoch))
		if _, err := ref.Register("imei-1", "a@b.c"); err != nil {
			t.Fatal(err)
		}
		for _, step := range steps[:i] {
			if err := step(ref); err != nil {
				t.Fatal(err)
			}
		}
		expected[i] = userStateJSON(t, ref, uid)
	}
	for _, step := range steps {
		if err := step(s); err != nil {
			t.Fatal(err)
		}
	}
	// Hard kill: no Close. fsync=always means the WAL holds every ack'd record.
	dataWAL := filepath.Join(dir, "shard-001", "wal-0000000000000000.log")
	full, err := os.ReadFile(dataWAL)
	if err != nil {
		t.Fatal(err)
	}
	ends := walFrameEnds(t, full)
	if len(ends) != len(steps) {
		t.Fatalf("data WAL holds %d records, want %d", len(ends), len(steps))
	}

	// Cut points: every frame boundary, one byte either side, and a stride
	// through record interiors (torn mid-record writes).
	cuts := map[int]bool{0: true, len(full): true}
	for _, e := range ends {
		cuts[e] = true
		if e > 0 {
			cuts[e-1] = true
		}
		if e < len(full) {
			cuts[e+1] = true
		}
	}
	for c := 0; c < len(full); c += 13 {
		cuts[c] = true
	}

	scratch := t.TempDir()
	caseN := 0
	for cut := range cuts {
		caseN++
		caseDir := filepath.Join(scratch, fmt.Sprintf("case-%04d", caseN))
		copyTree(t, dir, caseDir)
		if err := os.WriteFile(filepath.Join(caseDir, "shard-001", "wal-0000000000000000.log"), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := OpenStore(caseDir, cfg)
		if err != nil {
			t.Fatalf("cut at %d: recovery failed: %v", cut, err)
		}
		survived := 0
		for _, e := range ends {
			if e <= cut {
				survived++
			}
		}
		if got := userStateJSON(t, s2, uid); got != expected[survived] {
			t.Fatalf("cut at %d (=%d records): recovered state diverges from prefix state\ngot:  %s\nwant: %s",
				cut, survived, got, expected[survived])
		}
		// The repaired store must accept new writes.
		if err := s2.PutProfile(uid, mkProfile(uid, "2014-12-31")); err != nil {
			t.Fatalf("cut at %d: write after recovery: %v", cut, err)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		os.RemoveAll(caseDir)
	}
}

func copyTree(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, info.Mode())
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestServerKillRestartNoAckedProfileLoss drives the real HTTP stack: a
// client registers and uploads profiles, the cloud process "dies" without
// any shutdown hook (the store is simply abandoned, never Closed), a new
// process recovers from the same data directory — and every profile the
// client got a 200 for is still served.
func TestServerKillRestartNoAckedProfileLoss(t *testing.T) {
	dir := t.TempDir()
	cfg := StoreConfig{Sync: storage.SyncAlways, Now: fixedNow(simclock.Epoch)}

	boot := func() (*Store, *httptest.Server) {
		st, err := OpenStore(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewServer(st).Handler())
		return st, ts
	}

	st1, ts1 := boot()
	_ = st1 // abandoned without Close: the crash
	client := NewClient(ts1.URL, "imei-kill", "kill@example.com", ts1.Client())
	if err := client.Register(); err != nil {
		t.Fatal(err)
	}
	uid := client.UserID()
	dates := []string{"2014-09-01", "2014-09-02", "2014-09-03", "2014-09-04", "2014-09-05"}
	for _, d := range dates {
		if err := client.SyncProfile(mkProfile(uid, d)); err != nil {
			t.Fatalf("upload %s: %v", d, err) // every upload here is acknowledged
		}
	}
	ts1.Close() // the "SIGKILL": server gone, store never flushed or closed

	st2, ts2 := boot()
	defer st2.Close()
	defer ts2.Close()
	client2 := NewClient(ts2.URL, "imei-kill", "kill@example.com", ts2.Client())
	if err := client2.Register(); err != nil {
		t.Fatal(err)
	}
	if client2.UserID() != uid {
		t.Fatalf("user id changed across restart: %s -> %s", uid, client2.UserID())
	}
	for _, d := range dates {
		p, err := client2.Profile(d)
		if err != nil {
			t.Errorf("acknowledged profile %s lost after kill+restart: %v", d, err)
			continue
		}
		if len(p.Places) != 1 || p.Places[0].PlaceID != "p0" {
			t.Errorf("profile %s corrupted after recovery: %+v", d, p)
		}
	}
}

// TestStoreReadsAreDeepCopies: mutating anything a read returns must not
// change journaled state (the aliasing leaks the old store had).
func TestStoreReadsAreDeepCopies(t *testing.T) {
	s := NewStore(fixedNow(simclock.Epoch))
	uid := "u1"
	if err := s.SetRoutes(uid, []RouteWire{{ID: 0, Cells: []world.CellID{{MCC: 1}}, Trips: []VisitWire{{Arrive: simclock.Epoch}}}}); err != nil {
		t.Fatal(err)
	}
	r := s.Routes(uid, 0)
	r[0].Trips[0].Arrive = r[0].Trips[0].Arrive.Add(time.Hour)
	r[0].Cells[0].MCC = 999
	if got := s.Routes(uid, 0); !got[0].Trips[0].Arrive.Equal(simclock.Epoch) || got[0].Cells[0].MCC != 1 {
		t.Error("Routes result aliases store state")
	}

	if err := s.PutProfile(uid, mkProfile(uid, "2014-09-01")); err != nil {
		t.Fatal(err)
	}
	p, _ := s.Profile(uid, "2014-09-01")
	p.Places[0].PlaceID = "tampered"
	p.Date = "1999-01-01"
	if got, _ := s.Profile(uid, "2014-09-01"); got.Places[0].PlaceID != "p0" {
		t.Error("Profile result aliases store state")
	}
	rng := s.ProfileRange(uid, "", "")
	rng[0].Places[0].PlaceID = "tampered-again"
	if got, _ := s.Profile(uid, "2014-09-01"); got.Places[0].PlaceID != "p0" {
		t.Error("ProfileRange result aliases store state")
	}

	if err := s.SetPlaces(uid, []PlaceWire{{ID: 0, Cells: []world.CellID{{MCC: 5}}}}); err != nil {
		t.Fatal(err)
	}
	ps := s.Places(uid)
	ps[0].Cells[0].MCC = 777
	if got := s.Places(uid); got[0].Cells[0].MCC != 5 {
		t.Error("Places result aliases store state")
	}

	// The input side too: mutating what the caller passed in after the call
	// must not corrupt the store.
	in := []PlaceWire{{ID: 9, Cells: []world.CellID{{MCC: 3}}}}
	if err := s.SetPlaces(uid, in); err != nil {
		t.Fatal(err)
	}
	in[0].Cells[0].MCC = 444
	if got := s.Places(uid); got[0].Cells[0].MCC != 3 {
		t.Error("SetPlaces retained the caller's slice")
	}
	prof := mkProfile(uid, "2014-09-09")
	if err := s.PutProfile(uid, prof); err != nil {
		t.Fatal(err)
	}
	prof.Places[0].PlaceID = "mutated-after-put"
	if got, _ := s.Profile(uid, "2014-09-09"); got.Places[0].PlaceID != "p0" {
		t.Error("PutProfile retained the caller's profile")
	}
}

package cloud

import (
	"testing"
	"time"

	"repro/internal/profile"
	"repro/internal/simclock"
	"repro/internal/world"
)

func fixedNow(t time.Time) func() time.Time {
	return func() time.Time { return t }
}

func TestRegisterIssuesToken(t *testing.T) {
	s := NewStore(fixedNow(simclock.Epoch))
	resp, err := s.Register("imei-1", "a@b.c")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Token == "" || resp.UserID == "" {
		t.Fatal("empty token or user")
	}
	if !resp.ExpiresAt.Equal(simclock.Epoch.Add(TokenTTL)) {
		t.Errorf("expiry = %v", resp.ExpiresAt)
	}
	uid, err := s.Authenticate(resp.Token)
	if err != nil || uid != resp.UserID {
		t.Errorf("Authenticate = %q, %v", uid, err)
	}
	if s.UserCount() != 1 {
		t.Errorf("users = %d", s.UserCount())
	}
}

func TestRegisterSameDeviceSameUser(t *testing.T) {
	s := NewStore(fixedNow(simclock.Epoch))
	r1, _ := s.Register("imei-1", "a@b.c")
	r2, _ := s.Register("imei-1", "a@b.c")
	if r1.UserID != r2.UserID {
		t.Error("same device got two users")
	}
	if r1.Token == r2.Token {
		t.Error("re-registration should issue a fresh token")
	}
	r3, _ := s.Register("imei-2", "a@b.c")
	if r3.UserID == r1.UserID {
		t.Error("different device must get a different user (IMEI+email jointly identify)")
	}
}

func TestRegisterValidation(t *testing.T) {
	s := NewStore(fixedNow(simclock.Epoch))
	if _, err := s.Register("", "a@b.c"); err == nil {
		t.Error("empty imei accepted")
	}
	if _, err := s.Register("x", ""); err == nil {
		t.Error("empty email accepted")
	}
}

func TestTokenExpiry(t *testing.T) {
	now := simclock.Epoch
	s := NewStore(func() time.Time { return now })
	resp, _ := s.Register("imei-1", "a@b.c")

	now = now.Add(TokenTTL - time.Minute)
	if _, err := s.Authenticate(resp.Token); err != nil {
		t.Error("token expired early")
	}
	now = now.Add(2 * time.Minute)
	if _, err := s.Authenticate(resp.Token); err == nil {
		t.Error("expired token accepted")
	}
}

func TestRefreshRotatesToken(t *testing.T) {
	now := simclock.Epoch
	s := NewStore(func() time.Time { return now })
	reg, _ := s.Register("imei-1", "a@b.c")

	ref, err := s.Refresh(reg.Token)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Token == reg.Token {
		t.Error("refresh returned the same token")
	}
	if _, err := s.Authenticate(reg.Token); err == nil {
		t.Error("old token survives refresh")
	}
	if uid, err := s.Authenticate(ref.Token); err != nil || uid != reg.UserID {
		t.Error("new token invalid")
	}
	// Refreshing an expired token fails.
	now = now.Add(2 * TokenTTL)
	if _, err := s.Refresh(ref.Token); err == nil {
		t.Error("expired token refreshed")
	}
}

func TestPlacesRoundTripAndLabels(t *testing.T) {
	s := NewStore(fixedNow(simclock.Epoch))
	places := []PlaceWire{
		{ID: 0, Cells: []world.CellID{{MCC: 404, MNC: 10, LAC: 1, CID: 5}}},
		{ID: 1},
	}
	s.SetPlaces("u1", places)
	if err := s.LabelPlace("u1", 0, "Home"); err != nil {
		t.Fatal(err)
	}
	if err := s.LabelPlace("u1", 9, "X"); err == nil {
		t.Error("labeling unknown place accepted")
	}
	got := s.Places("u1")
	if len(got) != 2 || got[0].Label != "Home" {
		t.Errorf("places = %+v", got)
	}
	// Re-discovery replaces places but keeps labels by ID.
	s.SetPlaces("u1", []PlaceWire{{ID: 0}, {ID: 1}, {ID: 2}})
	got = s.Places("u1")
	if got[0].Label != "Home" {
		t.Error("label lost across re-discovery")
	}
	if len(s.Places("other")) != 0 {
		t.Error("cross-user leak")
	}
}

func TestProfilesCRUD(t *testing.T) {
	s := NewStore(fixedNow(simclock.Epoch))
	mk := func(date string) *profile.DayProfile {
		day, _ := time.Parse(profile.DateFormat, date)
		return &profile.DayProfile{
			UserID: "u1", Date: date,
			Places: []profile.PlaceVisit{{PlaceID: "p0", Arrive: day.Add(8 * time.Hour), Depart: day.Add(9 * time.Hour)}},
		}
	}
	for _, d := range []string{"2014-09-03", "2014-09-01", "2014-09-02"} {
		if err := s.PutProfile("u1", mk(d)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Profile("u1", "2014-09-02"); !ok {
		t.Error("profile missing")
	}
	if _, ok := s.Profile("u1", "2014-09-09"); ok {
		t.Error("phantom profile")
	}
	all := s.ProfileRange("u1", "", "")
	if len(all) != 3 || all[0].Date != "2014-09-01" {
		t.Errorf("range = %d, first %s", len(all), all[0].Date)
	}
	some := s.ProfileRange("u1", "2014-09-02", "2014-09-02")
	if len(some) != 1 {
		t.Errorf("bounded range = %d", len(some))
	}
	// Invalid profile rejected.
	bad := mk("2014-09-04")
	bad.Places[0].Depart = bad.Places[0].Arrive
	if err := s.PutProfile("u1", bad); err == nil {
		t.Error("invalid profile stored")
	}
	if err := s.PutProfile("u1", nil); err == nil {
		t.Error("nil profile stored")
	}
}

func TestContacts(t *testing.T) {
	s := NewStore(fixedNow(simclock.Epoch))
	s.AddContacts("u1", []profile.Encounter{
		{ContactID: "u2", PlaceID: "work", Start: simclock.Epoch, End: simclock.Epoch.Add(time.Hour)},
		{ContactID: "u3", PlaceID: "cafe", Start: simclock.Epoch, End: simclock.Epoch.Add(time.Hour)},
	})
	if got := s.Contacts("u1", ""); len(got) != 2 {
		t.Errorf("all contacts = %d", len(got))
	}
	if got := s.Contacts("u1", "work"); len(got) != 1 || got[0].ContactID != "u2" {
		t.Errorf("work contacts = %v", got)
	}
}

func TestRoutesMinFrequency(t *testing.T) {
	s := NewStore(fixedNow(simclock.Epoch))
	s.SetRoutes("u1", []RouteWire{
		{ID: 0, Trips: []VisitWire{{}, {}, {}}},
		{ID: 1, Trips: []VisitWire{{}}},
	})
	if got := s.Routes("u1", 0); len(got) != 2 {
		t.Errorf("all routes = %d", len(got))
	}
	if got := s.Routes("u1", 2); len(got) != 1 || got[0].ID != 0 {
		t.Errorf("frequent routes = %v", got)
	}
}

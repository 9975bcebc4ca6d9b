package study

import (
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/world"
)

// smallConfig keeps test runtime reasonable: 4 participants, 5 days.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Participants = 4
	cfg.Days = 5
	return cfg
}

func TestRunValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Participants = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero participants accepted")
	}
	cfg = smallConfig()
	cfg.Days = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative days accepted")
	}
}

func TestRunSmallStudy(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Participants) != 4 {
		t.Fatalf("participants = %d", len(res.Participants))
	}
	if res.TotalDiscovered == 0 {
		t.Fatal("nothing discovered")
	}
	if res.TotalTagged == 0 || res.TotalTagged > res.TotalDiscovered {
		t.Errorf("tagged = %d of %d", res.TotalTagged, res.TotalDiscovered)
	}
	for _, pr := range res.Participants {
		if pr.DiscoveredPlaces == 0 {
			t.Errorf("%s discovered nothing", pr.ID)
		}
		if pr.TrueVenues < 2 {
			t.Errorf("%s visited only %d venues", pr.ID, pr.TrueVenues)
		}
		if pr.EnergySamples == 0 || pr.ProjectedLifeHours <= 0 {
			t.Errorf("%s has no energy accounting", pr.ID)
		}
		if pr.Report == nil || pr.ReportGSM == nil || pr.ReportWiFi == nil {
			t.Fatalf("%s missing reports", pr.ID)
		}
	}
	if res.Likes+res.Dislikes == 0 {
		t.Error("PlaceADs served nothing")
	}
	// Aggregates match the sum of parts.
	sumDisc := 0
	for _, pr := range res.Participants {
		sumDisc += pr.DiscoveredPlaces
	}
	if sumDisc != res.TotalDiscovered {
		t.Errorf("TotalDiscovered %d != sum %d", res.TotalDiscovered, sumDisc)
	}
}

func TestRunDeterminism(t *testing.T) {
	r1, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalDiscovered != r2.TotalDiscovered || r1.Likes != r2.Likes || r1.Dislikes != r2.Dislikes {
		t.Errorf("same seed, different results: %d/%d likes %d/%d",
			r1.TotalDiscovered, r2.TotalDiscovered, r1.Likes, r2.Likes)
	}
	c1, m1, d1 := r1.Fused.Rates()
	c2, m2, d2 := r2.Fused.Rates()
	if c1 != c2 || m1 != m2 || d1 != d2 {
		t.Error("rates differ between identical runs")
	}
}

func TestStudyShapeClaims(t *testing.T) {
	// The paper's qualitative claims must hold even on a small study:
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 1. WiFi augmentation does not increase the merge count (it exists to
	// split merged places).
	if res.Fused.Merged > res.GSMOnly.Merged {
		t.Errorf("fusion increased merges: %d > %d", res.Fused.Merged, res.GSMOnly.Merged)
	}
	// 2. WiFi-only never misses fewer venues than the GSM pipelines (WiFi
	// coverage is ~60%; on small cohorts the counts can tie). The full-size
	// gap is asserted by the deployment-study benchmarks.
	if res.WiFiOnly.Missed < res.Fused.Missed {
		t.Errorf("WiFi-only missed fewer venues: %d vs %d", res.WiFiOnly.Missed, res.Fused.Missed)
	}
	// 3. Most evaluable venues are correct in the fused pipeline.
	c, _, _ := res.Fused.Rates()
	if c < 0.5 {
		t.Errorf("fused correct rate %.2f below 0.5", c)
	}
	// 4. Users like most ads (context relevance).
	if res.Likes <= res.Dislikes {
		t.Errorf("likes %d <= dislikes %d", res.Likes, res.Dislikes)
	}
}

func TestLikeRatioNormalization(t *testing.T) {
	r := &Result{Likes: 17, Dislikes: 3}
	l, d := r.LikeRatio()
	if l != 17 || d != 3 {
		t.Errorf("ratio = %v:%v", l, d)
	}
	empty := &Result{}
	if l, d := empty.LikeRatio(); l != 0 || d != 0 {
		t.Error("empty ratio should be 0:0")
	}
}

func TestWriteReport(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteReport(&sb, res); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"places discovered", "GSM + opportunistic WiFi", "PlaceADs", "paper: 123", "per participant", "u01"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestRunWithSocial(t *testing.T) {
	cfg := smallConfig()
	cfg.Social = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Social mode must not break anything; encounter counts are non-negative
	// and Bluetooth costs battery.
	for _, pr := range res.Participants {
		if pr.Encounters < 0 {
			t.Errorf("%s encounters = %d", pr.ID, pr.Encounters)
		}
	}
	// Compare battery against the asocial run: Bluetooth scanning can only
	// cost energy.
	asocial, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Participants {
		if res.Participants[i].ProjectedLifeHours > asocial.Participants[i].ProjectedLifeHours+1 {
			t.Errorf("%s: social run projects MORE battery (%f vs %f)",
				res.Participants[i].ID,
				res.Participants[i].ProjectedLifeHours,
				asocial.Participants[i].ProjectedLifeHours)
		}
	}
}

func TestRunWithHTTPCloud(t *testing.T) {
	// The full REST stack end to end, small scale.
	w := world.Generate(smallConfig().World, rand.New(rand.NewSource(smallConfig().Seed)))
	store := cloud.NewStore(nil)
	server := cloud.NewServer(store, cloud.WithCellDatabase(cloud.NewCellDatabase(w, 150)))
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	cfg := smallConfig()
	cfg.Participants = 2
	cfg.Days = 3
	cfg.CloudBaseURL = ts.URL
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDiscovered == 0 {
		t.Fatal("nothing discovered through HTTP cloud")
	}
	if store.UserCount() != 2 {
		t.Errorf("cloud registered %d users, want 2", store.UserCount())
	}
	// Places must be geolocated through the real endpoint.
	located := 0
	for _, pr := range res.Participants {
		for _, c := range pr.PlaceCenters {
			if !c.IsZero() {
				located++
			}
		}
	}
	if located == 0 {
		t.Error("no place geolocated through HTTP cloud")
	}
}

// TestHTTPCloudMatchesInProcess runs one small study twice, against the
// in-process cloud adapter and over the JSON wire to a real cloud.Server,
// and requires each participant's places and scores to come out the same:
// the wire carries the traces and decides nothing.
func TestHTTPCloudMatchesInProcess(t *testing.T) {
	cfg := smallConfig()
	cfg.Participants = 2
	cfg.Days = 3
	local, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	w := world.Generate(cfg.World, rand.New(rand.NewSource(cfg.Seed)))
	server := cloud.NewServer(cloud.NewStore(nil), cloud.WithCellDatabase(cloud.NewCellDatabase(w, 150)))
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()
	cfg.CloudBaseURL = ts.URL
	remote, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(remote.Participants) != len(local.Participants) {
		t.Fatalf("%d participants over HTTP, %d in process", len(remote.Participants), len(local.Participants))
	}
	for i, want := range local.Participants {
		got := remote.Participants[i]
		if got.DiscoveredPlaces != want.DiscoveredPlaces {
			t.Errorf("%s: %d places over HTTP, %d in process", want.ID, got.DiscoveredPlaces, want.DiscoveredPlaces)
		}
		if !reflect.DeepEqual(got.Report, want.Report) {
			t.Errorf("%s: fused report over HTTP %+v, in process %+v", want.ID, got.Report, want.Report)
		}
		if !reflect.DeepEqual(got.ReportGSM, want.ReportGSM) {
			t.Errorf("%s: GSM report over HTTP %+v, in process %+v", want.ID, got.ReportGSM, want.ReportGSM)
		}
		if !reflect.DeepEqual(got.PlaceCenters, want.PlaceCenters) {
			t.Errorf("%s: place centers over HTTP %v, in process %v", want.ID, got.PlaceCenters, want.PlaceCenters)
		}
	}
}

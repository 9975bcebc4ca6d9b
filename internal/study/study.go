// Package study reproduces the paper's deployment study (Section 4): 16
// participants run the PMWare mobile service packaged with the life-logging
// application plus the PlaceADs connected application for two weeks. The
// study measures how many places PMWare discovers, how many the participants
// tag, the correct/merged/divided discovery rates against diary ground
// truth, and the PlaceADs like:dislike ratio.
//
// The paper reports: 123 places discovered, 85 tagged (~70%), and — over the
// 62 evaluable places — 79.03% correct, 14.52% merged, 6.45% divided, with a
// 17:3 like:dislike ratio.
package study

import (
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/apps/placeads"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/world"
)

// Config shapes a study run. Start from DefaultConfig.
type Config struct {
	Participants int
	Days         int
	Seed         int64

	// World is the shared city every participant lives in.
	World world.Config
	// HauntsPerParticipant is how many public venues each participant
	// frequents besides home and work.
	HauntsPerParticipant int

	// TaggingProb is the chance a participant tags a discovered place with a
	// semantic label (the paper observed ~70%).
	TaggingProb float64

	// MinStay is the ground-truth place-visit threshold.
	MinStay time.Duration
	// EvalOverlap is the attribution floor for scoring.
	EvalOverlap time.Duration

	// Swiper probabilities for the PlaceADs user model.
	RelevantLikeProb   float64
	IrrelevantLikeProb float64

	// Schedule drives the participants' daily routine.
	Schedule mobility.ScheduleConfig
	// Sensors configures the handset radios.
	Sensors trace.Config
	// Service configures the PMS.
	ServiceTemplate func(userID string) core.Config

	// Social, when set, enables Bluetooth proximity sensing between the
	// participants (via the meetup connected app) and records encounters in
	// the mobility profiles.
	Social bool

	// CloudBaseURL, when non-empty, sends every participant's cloud.Client
	// over HTTP to this PMWare cloud instance. When empty, the same client
	// and the same cloud.Server handlers run in-process, without a socket.
	// The endpoint must be a Server from internal/cloud, with a cell
	// database built from the same world seed.
	CloudBaseURL string
}

// DefaultConfig returns the configuration calibrated to reproduce the
// paper's Section 4.
func DefaultConfig() Config {
	wc := world.DefaultConfig()
	// A denser core than the generic default: venues close enough that some
	// share cell signatures, which is what produces the paper's merged
	// places (library vs academic building).
	wc.ExtentMeters = 3200
	wc.PublicVenues = 34
	wc.TowerGridMeters = 500
	wc.TowerRangeMeters = 800
	return Config{
		Participants:         16,
		Days:                 14,
		Seed:                 2014,
		World:                wc,
		HauntsPerParticipant: 7,
		TaggingProb:          0.70,
		MinStay:              10 * time.Minute,
		EvalOverlap:          5 * time.Minute,
		RelevantLikeProb:     0.92,
		IrrelevantLikeProb:   0.25,
		Schedule:             mobility.DefaultScheduleConfig(),
		Sensors:              trace.DefaultConfig(),
		ServiceTemplate:      core.DefaultConfig,
	}
}

// ParticipantResult holds one participant's outcome.
type ParticipantResult struct {
	ID string

	DiscoveredPlaces int
	TaggedPlaces     int
	TrueVenues       int

	Report     *eval.Report
	ReportGSM  *eval.Report // GSM-only ablation
	ReportWiFi *eval.Report // WiFi-only ablation

	// PlaceCenters are the geolocated centers of discovered places (zero
	// values for places the geo service could not resolve).
	PlaceCenters []geo.LatLng
	// Encounters is the number of social encounters recorded (0 unless
	// cfg.Social).
	Encounters         int
	Likes              int
	Dislikes           int
	Impressions        int
	EnergySamples      int
	ProjectedLifeHours float64
}

// Result aggregates the study.
type Result struct {
	Config Config

	// World is the synthetic city the study ran in (for map rendering).
	World *world.World

	Participants []ParticipantResult

	TotalDiscovered int
	TotalTagged     int

	// Fused is the headline pipeline (GSM + opportunistic WiFi).
	Fused *eval.Report
	// GSMOnly and WiFiOnly are the ablation pipelines.
	GSMOnly  *eval.Report
	WiFiOnly *eval.Report

	Likes    int
	Dislikes int
}

// LikeRatio returns likes:dislikes normalized to 20 cards, the paper's
// 17:3 form.
func (r *Result) LikeRatio() (likes20, dislikes20 float64) {
	total := r.Likes + r.Dislikes
	if total == 0 {
		return 0, 0
	}
	return 20 * float64(r.Likes) / float64(total), 20 * float64(r.Dislikes) / float64(total)
}

// Run executes the study.
func Run(cfg Config) (*Result, error) {
	if cfg.Participants <= 0 || cfg.Days <= 0 {
		return nil, fmt.Errorf("study: need positive participants and days")
	}
	w := world.Generate(cfg.World, rand.New(rand.NewSource(cfg.Seed)))

	// Every participant's PMS talks to the cloud instance through a
	// cloud.Client. Without CloudBaseURL the instance is the PCI's own
	// handler over a fresh in-memory store, reached without a socket and on
	// the binary wire.
	baseURL, wire := cfg.CloudBaseURL, cloud.WireJSON
	var httpc *http.Client
	if baseURL == "" {
		server := cloud.NewServer(cloud.NewStore(nil), cloud.WithCellDatabase(cloud.NewCellDatabase(w, 150)))
		defer server.Close()
		baseURL, wire = "http://pci.invalid", cloud.WireBinary
		httpc = &http.Client{Transport: handlerTransport{server.Handler()}}
	}

	// Build participants with homes, workplaces, and haunts. The cohort has
	// its own RNG stream so it is identical across world variations (e.g.
	// the WiFi-coverage ablation): venue positions are drawn before any AP
	// installation in Generate, and nothing here depends on the world RNG's
	// post-generation state.
	agents := buildParticipants(w, cfg, rand.New(rand.NewSource(cfg.Seed+11)))

	// Pre-build itineraries so peers' positions are available for social
	// proximity if needed.
	itins := make([]*mobility.Itinerary, len(agents))
	for i, a := range agents {
		it, err := mobility.BuildItinerary(a, w, simclock.Epoch, cfg.Days, cfg.Schedule, rand.New(rand.NewSource(cfg.Seed+int64(100+i))))
		if err != nil {
			return nil, fmt.Errorf("study: itinerary for %s: %w", a.ID, err)
		}
		itins[i] = it
	}

	res := &Result{Config: cfg, World: w}
	var fusedReports, gsmReports, wifiReports []*eval.Report

	directory := placeads.NewPOIDirectory(w)
	inventory := placeads.DefaultInventory()

	for i, a := range agents {
		client := cloud.NewClient(baseURL, "imei-"+a.ID, a.ID+"@study.example", httpc, cloud.WithWireCodec(wire))
		if err := client.Register(); err != nil {
			return nil, fmt.Errorf("study: register %s with cloud: %w", a.ID, err)
		}
		pr, reports, err := runParticipant(cfg, w, a, itins[i], i, client, directory, inventory, peersFor(agents, itins, i))
		if err != nil {
			return nil, err
		}
		res.Participants = append(res.Participants, *pr)
		res.TotalDiscovered += pr.DiscoveredPlaces
		res.TotalTagged += pr.TaggedPlaces
		res.Likes += pr.Likes
		res.Dislikes += pr.Dislikes
		fusedReports = append(fusedReports, reports[0])
		gsmReports = append(gsmReports, reports[1])
		wifiReports = append(wifiReports, reports[2])
	}
	res.Fused = eval.Merge(fusedReports...)
	res.GSMOnly = eval.Merge(gsmReports...)
	res.WiFiOnly = eval.Merge(wifiReports...)
	return res, nil
}

func buildParticipants(w *world.World, cfg Config, r *rand.Rand) []*mobility.Agent {
	var agents []*mobility.Agent
	public := append([]*world.Venue(nil), w.Venues...)

	// Draw all geometry and routine choices from the shared RNG with a draw
	// count that does not depend on WiFi coverage, so sweeping
	// WiFiVenueFraction (the India-vs-Switzerland ablation) compares the
	// same city and the same participants. AP installation uses per-venue
	// derived RNGs. PlanParticipant owns the draw-order contract; a golden
	// test pins it to this loop's historical behavior.
	plans := make([]ParticipantPlan, 0, cfg.Participants)
	for i := 0; i < cfg.Participants; i++ {
		plans = append(plans, PlanParticipant(r, cfg.World, cfg.HauntsPerParticipant, len(public), i))
	}
	for i, p := range plans {
		// One RNG per venue: the work venue's geometry must not depend on
		// how many APs the home venue installed (WiFi-coverage ablation).
		homeRand := rand.New(rand.NewSource(cfg.Seed + int64(7000+2*i)))
		workRand := rand.New(rand.NewSource(cfg.Seed + int64(7001+2*i)))
		home := w.AddVenue(
			fmt.Sprintf("home-%s", p.ID), fmt.Sprintf("Home of %s", p.ID),
			world.KindHome, p.HomePos, p.HomeWiFi, cfg.World, homeRand)
		work := w.AddVenue(
			fmt.Sprintf("work-%s", p.ID), fmt.Sprintf("Office of %s", p.ID),
			world.KindWorkplace, p.WorkPos, p.WorkWiFi, cfg.World, workRand)
		haunts := make([]*world.Venue, 0, len(p.HauntIdx))
		for _, j := range p.HauntIdx {
			haunts = append(haunts, public[j])
		}
		agents = append(agents, &mobility.Agent{
			ID: p.ID, Home: home, Work: work, SpeedMPS: p.SpeedMPS, Haunts: haunts,
		})
	}
	return agents
}

func randomPoint(wc world.Config, r *rand.Rand) geo.LatLng {
	dx := (r.Float64()*2 - 1) * wc.ExtentMeters
	dy := (r.Float64()*2 - 1) * wc.ExtentMeters
	return geo.Offset(geo.Offset(wc.Origin, 0, dy), 90, dx)
}

// peersFor builds the Bluetooth peer map for participant i: every other
// participant's true position function. Returns nil when social sensing is
// off (the map would never be read).
func peersFor(agents []*mobility.Agent, itins []*mobility.Itinerary, i int) map[string]trace.PositionFunc {
	peers := make(map[string]trace.PositionFunc, len(agents)-1)
	for j, a := range agents {
		if j == i {
			continue
		}
		it := itins[j]
		peers[a.ID] = it.PositionAt
	}
	return peers
}

// truthVisits converts an itinerary into scoring ground truth, with venue
// keys prefixed by participant for global uniqueness.
func truthVisits(agentID string, it *mobility.Itinerary, minStay time.Duration) []eval.TruthVisit {
	var out []eval.TruthVisit
	for _, v := range it.SignificantVisits(minStay) {
		out = append(out, eval.TruthVisit{
			VenueID: agentID + "/" + v.VenueID,
			Start:   v.Arrive,
			End:     v.Depart,
		})
	}
	return out
}

// toDiscovered converts unified places to the scorer's shape, with IDs
// prefixed per participant.
func toDiscovered(agentID string, places []*core.UnifiedPlace) []eval.DiscoveredPlace {
	var out []eval.DiscoveredPlace
	for _, p := range places {
		dp := eval.DiscoveredPlace{ID: agentID + "/" + p.ID}
		for _, v := range p.Visits {
			dp.Visits = append(dp.Visits, eval.Interval{Start: v.Arrive, End: v.Depart})
		}
		out = append(out, dp)
	}
	return out
}

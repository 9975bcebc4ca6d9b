package study

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/apps/lifelog"
	"repro/internal/apps/meetup"
	"repro/internal/apps/placeads"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/eval"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/world"
)

// handlerTransport serves each request with the PCI's own handler on the
// calling goroutine: a cloud.Client's whole exchange — encoding, auth,
// routing, timeout middleware, discovery pool, decoding — without a
// listener. Responses are buffered, so a streamed response (SSE) reaches the
// caller only once its handler returns.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r := req.Clone(req.Context())
	r.RequestURI = req.URL.RequestURI()
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	if req.Body != nil {
		req.Body.Close()
	}
	return rec.Result(), nil
}

// runParticipant simulates one participant end to end and scores the three
// discovery pipelines.
func runParticipant(
	cfg Config,
	w *world.World,
	a *mobility.Agent,
	it *mobility.Itinerary,
	idx int,
	api core.CloudAPI,
	directory *placeads.POIDirectory,
	inventory *placeads.Inventory,
	peers map[string]trace.PositionFunc,
) (*ParticipantResult, [3]*eval.Report, error) {
	var reports [3]*eval.Report
	seed := cfg.Seed + int64(1000+idx)

	clock := simclock.New()
	sensors := trace.NewSensors(w, it, cfg.Sensors, rand.New(rand.NewSource(seed)))
	meter := energy.NewMeter(energy.DefaultModel())
	svcCfg := cfg.ServiceTemplate(a.ID)
	if cfg.Social {
		svcCfg.Peers = peers
	}
	svc := core.NewService(svcCfg, clock, sensors, meter, api)

	// Every participant runs the packaged life-logging app (building-level,
	// Section 3) plus PlaceADs (area-level).
	logApp := lifelog.New()
	if err := logApp.Attach(svc); err != nil {
		return nil, reports, err
	}
	swiper := &placeads.SimSwiper{
		Directory:      directory,
		TruePosition:   it.PositionAt,
		RelevanceM:     2500,
		RelevantProb:   cfg.RelevantLikeProb,
		IrrelevantProb: cfg.IrrelevantLikeProb,
		Rand:           rand.New(rand.NewSource(seed + 1)),
	}
	adsApp := placeads.New(inventory, directory, swiper)
	if err := adsApp.Attach(svc); err != nil {
		return nil, reports, err
	}
	var meetApp *meetup.App
	if cfg.Social {
		meetApp = meetup.New()
		if err := meetApp.Attach(svc); err != nil {
			return nil, reports, err
		}
	}

	svc.Run(time.Duration(cfg.Days) * 24 * time.Hour)

	// Tagging model: the participant tags ~TaggingProb of discovered places
	// with the label of the dominant true venue.
	tagRand := rand.New(rand.NewSource(seed + 2))
	tagged := 0
	for _, p := range svc.Places() {
		if tagRand.Float64() >= cfg.TaggingProb {
			continue
		}
		if label := dominantVenueLabel(w, it, p); label != "" {
			if err := svc.LabelPlace(p.ID, label); err == nil {
				tagged++
			}
		}
	}

	// Score the three pipelines against diary ground truth.
	truth := truthVisits(a.ID, it, cfg.MinStay)
	fused := eval.Evaluate(toDiscovered(a.ID, svc.Places()), truth, cfg.EvalOverlap)
	gsmOnly := eval.Evaluate(toDiscovered(a.ID, core.UnifyGSM(svc.RawGSMPlaces())), truth, cfg.EvalOverlap)
	wifiOnly := eval.Evaluate(toDiscovered(a.ID, core.UnifyWiFi(svc.RawWiFiPlaces())), truth, cfg.EvalOverlap)
	reports = [3]*eval.Report{fused, gsmOnly, wifiOnly}

	likes, dislikes := adsApp.LikeDislike()
	var centers []geo.LatLng
	for _, p := range svc.Places() {
		centers = append(centers, p.Center)
	}
	encounters := 0
	if meetApp != nil {
		encounters = meetApp.EncounterCount()
	}
	pr := &ParticipantResult{
		ID:                 a.ID,
		DiscoveredPlaces:   len(svc.Places()),
		TaggedPlaces:       tagged,
		TrueVenues:         len(it.VisitedVenueIDs(cfg.MinStay)),
		Report:             fused,
		ReportGSM:          gsmOnly,
		ReportWiFi:         wifiOnly,
		PlaceCenters:       centers,
		Encounters:         encounters,
		Likes:              likes,
		Dislikes:           dislikes,
		Impressions:        len(adsApp.Impressions()),
		EnergySamples:      meter.TotalSamples(),
		ProjectedLifeHours: meter.ProjectedLifeHours(time.Duration(cfg.Days) * 24 * time.Hour),
	}
	return pr, reports, nil
}

// dominantVenueLabel finds the true venue where the discovered place's
// visits spent the most time, returning its name. The participant "knows"
// where they were — this is the diary.
func dominantVenueLabel(w *world.World, it *mobility.Itinerary, p *core.UnifiedPlace) string {
	dwell := map[string]time.Duration{}
	for _, visit := range p.Visits {
		// Sample the itinerary mid-visit at a few points.
		span := visit.Depart.Sub(visit.Arrive)
		for f := 0.2; f < 1.0; f += 0.3 {
			at := visit.Arrive.Add(time.Duration(float64(span) * f))
			if v := it.VenueAt(at); v != nil {
				dwell[v.ID] += span / 3
			}
		}
	}
	best, bestD := "", time.Duration(0)
	for id, d := range dwell {
		if d > bestD {
			best, bestD = id, d
		}
	}
	if best == "" {
		return ""
	}
	if v := w.VenueByID(best); v != nil {
		return v.Name
	}
	return ""
}

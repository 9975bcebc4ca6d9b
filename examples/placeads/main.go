// PlaceADs demo (paper Section 3): the contextual-advertisement application
// connects to PMWare at area-level granularity — the user's privacy
// preference caps what it can see — and pushes ad cards for points of
// interest near each place the user visits. The simulated user swipes left
// (like) on context-relevant cards.
//
//	go run ./examples/placeads
package main

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"time"

	"repro/internal/apps/placeads"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/world"
)

func main() {
	cfg := world.DefaultConfig()
	cfg.TowerGridMeters = 500
	cfg.TowerRangeMeters = 800
	r := rand.New(rand.NewSource(21))
	w := world.Generate(cfg, r)
	home := w.AddVenue("home", "Home", world.KindHome, geo.Offset(cfg.Origin, 210, 2300), true, cfg, r)
	work := w.AddVenue("work", "Office", world.KindWorkplace, geo.Offset(cfg.Origin, 30, 2400), true, cfg, r)
	agent := &mobility.Agent{ID: "carol", Home: home, Work: work, SpeedMPS: 7}
	for _, v := range w.Venues {
		if v.Kind != world.KindHome && v.Kind != world.KindWorkplace {
			agent.Haunts = append(agent.Haunts, v)
		}
	}
	it, err := mobility.BuildItinerary(agent, w, simclock.Epoch, 7, mobility.DefaultScheduleConfig(), rand.New(rand.NewSource(22)))
	if err != nil {
		panic(err)
	}

	clock := simclock.New()
	sensors := trace.NewSensors(w, it, trace.DefaultConfig(), rand.New(rand.NewSource(23)))
	meter := energy.NewMeter(energy.DefaultModel())

	// PlaceADs needs geolocated place coordinates: the cloud instance's geo
	// service (Cell-ID -> lat/lng), over loopback HTTP.
	server := cloud.NewServer(cloud.NewStore(nil), cloud.WithCellDatabase(cloud.NewCellDatabase(w, 150)))
	defer server.Close()
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()
	api := cloud.NewClient(ts.URL, "imei-carol", "carol@example.com", ts.Client())
	if err := api.Register(); err != nil {
		panic(err)
	}
	svc := core.NewService(core.DefaultConfig("carol"), clock, sensors, meter, api)

	// The user allows advertisement apps only area-level location.
	svc.Prefs.SetAppGranularity(placeads.AppID, core.GranularityArea)

	directory := placeads.NewPOIDirectory(w)
	swiper := &placeads.SimSwiper{
		Directory:      directory,
		TruePosition:   it.PositionAt,
		RelevanceM:     2000,
		RelevantProb:   0.92,
		IrrelevantProb: 0.25,
		Rand:           rand.New(rand.NewSource(24)),
	}
	app := placeads.New(placeads.DefaultInventory(), directory, swiper)
	if err := app.Attach(svc); err != nil {
		panic(err)
	}

	fmt.Println("a week with PlaceADs connected to PMWare...")
	svc.Run(7 * 24 * time.Hour)

	fmt.Printf("\nad cards shown: %d\n", len(app.Impressions()))
	for i, im := range app.Impressions() {
		if i >= 12 {
			fmt.Printf("  ... and %d more\n", len(app.Impressions())-i)
			break
		}
		swipe := "liked   <-"
		if !im.Liked {
			swipe = "disliked ->"
		}
		fmt.Printf("  %s  %-28s (%s, %d%% off)  %s\n",
			im.At.Format("Mon 15:04"), im.Ad.Title, im.Ad.Category, im.Ad.Discount, swipe)
	}
	likes, dislikes := app.LikeDislike()
	total := likes + dislikes
	if total > 0 {
		fmt.Printf("\nlike:dislike = %d:%d  (%.1f : %.1f of 20; paper reports 17:3)\n",
			likes, dislikes, 20*float64(likes)/float64(total), 20*float64(dislikes)/float64(total))
	}
}

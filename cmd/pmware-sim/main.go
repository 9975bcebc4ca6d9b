// Command pmware-sim runs the paper's deployment study (Section 4): 16
// simulated participants carry the PMWare mobile service (packaged with the
// life-logging app) plus the PlaceADs connected application for two weeks,
// and the study reports discovery counts, tagging, correct/merged/divided
// rates, and the PlaceADs like:dislike ratio — next to the paper's numbers.
//
// Usage:
//
//	pmware-sim [-participants 16] [-days 14] [-seed 2014] [-http [-data-dir DIR]]
//
// Every participant's PMS reaches the cloud instance (registration, GCA
// offload, profile sync, geolocation) through the real cloud.Client and the
// PCI's own handlers; by default they run in-process, without a socket.
// -http adds a loopback HTTP listener between them. Adding -data-dir runs
// that instance on a durable store rooted at DIR — the same directory
// layout pmware-cloud -data-dir serves, so the study's output can be served
// directly afterwards.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"

	"repro/internal/cloud"
	"repro/internal/geo"
	"repro/internal/study"
	"repro/internal/viz"
	"repro/internal/world"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, runs the study, and writes the
// report to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pmware-sim", flag.ExitOnError)
	participants := fs.Int("participants", 16, "number of participants")
	days := fs.Int("days", 14, "study duration in days")
	seed := fs.Int64("seed", 2014, "master random seed")
	useHTTP := fs.Bool("http", false, "run the cloud instance over loopback HTTP")
	social := fs.Bool("social", false, "enable Bluetooth social discovery between participants")
	showMap := fs.Bool("map", false, "render an ASCII map of all discovered places (Figure 5b)")
	dataDir := fs.String("data-dir", "", "durable data directory for the -http cloud instance (WAL + snapshots); empty = in-memory")
	fs.Parse(args) // ExitOnError: a bad flag never returns
	if *dataDir != "" && !*useHTTP {
		fs.Usage()
		return fmt.Errorf("-data-dir needs -http: without it the study's cloud store stays in memory")
	}

	cfg := study.DefaultConfig()
	cfg.Participants = *participants
	cfg.Days = *days
	cfg.Seed = *seed
	cfg.Social = *social

	stop := func() error { return nil }
	if *useHTTP {
		// Build the same world the study will generate, for the cell DB.
		w := world.Generate(cfg.World, rand.New(rand.NewSource(cfg.Seed)))
		store := cloud.NewStore(nil)
		if *dataDir != "" {
			var err error
			if store, err = cloud.OpenStore(*dataDir, cloud.StoreConfig{}); err != nil {
				return fmt.Errorf("open store: %w", err)
			}
		}
		server := cloud.NewServer(store, cloud.WithCellDatabase(cloud.NewCellDatabase(w, 150)))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			store.Close()
			return fmt.Errorf("listen: %w", err)
		}
		srv := &http.Server{Handler: server.Handler()}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				log.Printf("cloud server: %v", err)
			}
		}()
		// Stop serving and the discovery workers before the store closes
		// under them; Close compacts, so the next open replays nothing.
		stop = func() error {
			srv.Close()
			server.Close()
			return store.Close()
		}
		cfg.CloudBaseURL = "http://" + ln.Addr().String()
		log.Printf("cloud instance on %s", cfg.CloudBaseURL)
	}

	res, err := study.Run(cfg)
	if cerr := stop(); err == nil && cerr != nil {
		err = fmt.Errorf("close store: %w", cerr)
	}
	if err != nil {
		return err
	}
	if err := study.WriteReport(out, res); err != nil {
		return err
	}
	if *showMap {
		var centers []geo.LatLng
		for _, pr := range res.Participants {
			centers = append(centers, pr.PlaceCenters...)
		}
		m, skipped := viz.PlacesMap(res.World, centers, 100, 36)
		fmt.Fprintf(out, "\nall places discovered during the study (Figure 5b); %s, %d not geolocated:\n", m.Summary(), skipped)
		if err := m.Render(out); err != nil {
			return err
		}
	}
	return nil
}

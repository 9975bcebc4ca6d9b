// Command pmware-cloud runs the PMWare Cloud Instance: the REST service the
// mobile service syncs against (paper Section 2.3). It serves registration,
// place/route discovery offload, mobility profiles, social contacts, Cell-ID
// geolocation, and the analytics/prediction endpoints.
//
// Usage:
//
//	pmware-cloud [-addr :8080] [-data-dir ./pmware-data] [-fsync always]
//	             [-shards 8] [-compact-every 4096]
//	             [-discover-workers 4] [-discover-queue 64] [-max-body 64MiB]
//	             [-event-queue 64] [-event-history 256] [-event-heartbeat 15s]
//	             [-pprof :6060] [-slow-request 0s] [-world-seed 2014]
//
// With -data-dir the instance runs on the durable storage engine: every
// mutation is journaled to a per-shard write-ahead log, snapshots compact the
// logs periodically, and on boot the instance recovers automatically from
// whatever the last run left on disk (including crashes mid-write). -fsync
// picks the durability/latency trade-off and -shards the number of data
// shards for concurrent writers; the shard count is pinned by the data
// directory's manifest after the first boot. -compact-every tunes how many
// journaled records a shard accepts before it snapshots and rotates its log;
// the snapshot encode and fsync run off the shard lock (DESIGN.md §16), so a
// smaller cadence buys faster recovery without stalling writers.
//
// Discovery offload runs on a bounded worker pool: -discover-workers sets
// how many GCA runs execute concurrently and -discover-queue how many may
// wait; past that the instance answers 429 + Retry-After instead of piling
// up goroutines. -max-body caps request body size (oversized uploads are
// rejected with 413); the streaming ingest and event-subscription routes are
// exempt, since they are long-lived by design.
//
// Real-time events: -event-queue sets the per-subscriber bounded queue (a
// consumer that falls further behind is evicted and must resume with
// Last-Event-ID), -event-history the per-user replay ring backing resume,
// and -event-heartbeat the SSE keep-alive period on idle subscriptions.
//
// Clustering: -cluster lists the members as id=url pairs and -node-id names
// this node's entry; the node then partitions users over the consistent-hash
// ring, ships its WAL to the ring-assigned follower, and gates client
// requests on ownership (see DESIGN.md §15). -repl-dir holds the stream
// epoch and replication cursors, and -coord runs the embedded coordinator —
// exactly one node per cluster should pass it — which health-probes the
// members and pushes failover ring versions.
//
// The -pprof side listener also serves /metrics: a JSON (or, with
// ?format=text, expvar-style) dump of the process-wide observability
// registry — request, storage, retry, and outbox counter families.
// -slow-request logs any API request slower than the given threshold.
//
// The world seed builds the synthetic Open-Cell-ID database so geolocation
// answers match simulations generated from the same seed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/storage"
	"repro/internal/world"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data-dir", "", "durable data directory (WAL + snapshots); empty = in-memory")
	fsyncMode := flag.String("fsync", "interval", "WAL fsync policy: always | interval | never")
	fsyncEvery := flag.Duration("fsync-interval", storage.DefaultSyncEvery, "max ack-to-disk lag under -fsync interval")
	shards := flag.Int("shards", cloud.DefaultShards, "data shards (pinned by the data directory after first boot)")
	compactEvery := flag.Int("compact-every", 0, "snapshot+rotate a shard after this many journaled records (0 = engine default, negative = disable auto-compaction)")
	discoverWorkers := flag.Int("discover-workers", cloud.DefaultDiscoverWorkers, "concurrent discovery (GCA) runs")
	discoverQueue := flag.Int("discover-queue", cloud.DefaultDiscoverQueue, "queued discovery requests before 429 backpressure")
	maxBody := flag.Int64("max-body", cloud.DefaultMaxBodyBytes, "max request body bytes (oversized uploads get 413; streaming routes exempt)")
	eventQueue := flag.Int("event-queue", 0, "per-subscriber event queue capacity before slow-consumer eviction (0 = default)")
	eventHistory := flag.Int("event-history", 0, "per-user event replay ring backing Last-Event-ID resume (0 = default)")
	eventHeartbeat := flag.Duration("event-heartbeat", cloud.DefaultEventHeartbeat, "SSE heartbeat period on idle event subscriptions")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and /metrics on this side address (empty = disabled)")
	slowReq := flag.Duration("slow-request", 0, "log API requests slower than this threshold (0 = disabled)")
	worldSeed := flag.Int64("world-seed", 2014, "seed of the synthetic world for the cell database")
	extent := flag.Float64("extent", 2600, "world half-extent in meters (must match the simulation)")
	clusterSpec := flag.String("cluster", "", "cluster membership as comma-separated id=url pairs (e.g. a=http://h1:8080,b=http://h2:8080); empty = single node")
	nodeID := flag.String("node-id", "", "this node's ID within -cluster")
	advertiseURL := flag.String("advertise", "", "override this node's advertised base URL (default: its -cluster entry)")
	replDir := flag.String("repl-dir", "", "replication state directory (stream epoch + cursors); default <data-dir>/repl")
	coord := flag.Bool("coord", false, "run the embedded cluster coordinator on this node (health probes + ring pushes)")
	coordInterval := flag.Duration("coord-interval", 2*time.Second, "coordinator health probe period")
	coordFails := flag.Int("coord-fails", 3, "consecutive failed probes before the coordinator promotes a node's follower")
	flag.Parse()

	var side *sidecar
	if *pprofAddr != "" {
		var err error
		side, err = startSidecar(*pprofAddr)
		if err != nil {
			log.Fatalf("pprof/metrics side listener: %v", err)
		}
		log.Printf("pprof + /metrics listening on %s", side.Addr())
	}

	wc := world.DefaultConfig()
	wc.ExtentMeters = *extent
	wc.TowerGridMeters = 500
	wc.TowerRangeMeters = 800
	w := world.Generate(wc, rand.New(rand.NewSource(*worldSeed)))

	var store *cloud.Store
	var cnode *cloud.ClusterNode
	var coordinator *cluster.Coordinator
	storeCfg, err := buildStoreConfig(*dataDir, *fsyncMode, *fsyncEvery, *shards, *compactEvery)
	if err != nil {
		log.Fatalf("open store: %v", err)
	}
	if *clusterSpec != "" {
		peers, self, err := parseClusterSpec(*clusterSpec, *nodeID, *advertiseURL)
		if err != nil {
			log.Fatalf("cluster: %v", err)
		}
		rd := *replDir
		if rd == "" && *dataDir != "" {
			rd = filepath.Join(*dataDir, "repl")
		}
		cnode, err = cloud.NewClusterNode(*dataDir, storeCfg, cloud.ClusterNodeConfig{
			Self:    self,
			Peers:   peers,
			ReplDir: rd,
			Logf:    log.Printf,
		})
		if err != nil {
			log.Fatalf("cluster node: %v", err)
		}
		store = cnode.Store()
		log.Printf("cluster node %s up (%d members, follower stream armed)", self.ID, len(peers))
		if *coord {
			coordinator = cluster.NewCoordinator(peers, cluster.DefaultVNodes, nil, log.Printf)
			coordinator.StartHealth(*coordInterval, *coordFails)
			log.Printf("embedded coordinator probing %d members every %s", len(peers), *coordInterval)
		}
	} else {
		store, err = openStore(*dataDir, storeCfg)
		if err != nil {
			log.Fatalf("open store: %v", err)
		}
	}

	opts := []cloud.ServerOption{
		cloud.WithCellDatabase(cloud.NewCellDatabase(w, 150)),
		cloud.WithDiscoverPool(*discoverWorkers, *discoverQueue),
		cloud.WithMaxBodyBytes(*maxBody),
		cloud.WithEventQueue(*eventQueue, *eventHistory),
		cloud.WithEventHeartbeat(*eventHeartbeat),
	}
	if *slowReq > 0 {
		opts = append(opts, cloud.WithSlowRequestLog(*slowReq, nil))
	}
	if cnode != nil {
		opts = append(opts, cloud.WithClusterNode(cnode))
	}
	server := cloud.NewServer(store, opts...)

	api := &http.Server{Addr: *addr, Handler: server.Handler()}

	// On SIGINT/SIGTERM drain both listeners; the close sequence then
	// runs on the main goroutine after ListenAndServe returns, so the side
	// listener can never outlive the API server (or the process).
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if side != nil {
			if err := side.Shutdown(ctx); err != nil {
				log.Printf("side listener shutdown: %v", err)
			}
		}
		if err := api.Shutdown(ctx); err != nil {
			log.Printf("api shutdown: %v", err)
		}
	}()

	log.Printf("PMWare cloud instance listening on %s (world seed %d, %d towers in cell DB)",
		*addr, *worldSeed, len(w.Towers))
	if err := api.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	code := 0
	// Stop the discovery workers before the store goes away under them.
	server.Close()
	if coordinator != nil {
		coordinator.Stop()
	}
	if cnode != nil {
		// Flush the replication stream and persist exact cursors before the
		// store closes under the shipper/receiver.
		if err := cnode.Close(); err != nil {
			log.Printf("cluster close failed: %v", err)
			code = 1
		}
	}
	// Close compacts each shard and fsyncs, so the next boot recovers from
	// snapshots instead of replaying the full logs.
	if err := store.Close(); err != nil {
		log.Printf("close failed: %v", err)
		code = 1
	}
	os.Exit(code)
}

// parseClusterSpec parses "id=url,id=url" into the membership list and
// resolves this node's own entry.
func parseClusterSpec(spec, selfID, advertise string) ([]cluster.Node, cluster.Node, error) {
	if selfID == "" {
		return nil, cluster.Node{}, fmt.Errorf("-cluster requires -node-id")
	}
	var peers []cluster.Node
	var self cluster.Node
	found := false
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, u, ok := strings.Cut(part, "=")
		if !ok || id == "" || u == "" {
			return nil, cluster.Node{}, fmt.Errorf("bad -cluster entry %q (want id=url)", part)
		}
		n := cluster.Node{ID: id, URL: strings.TrimSuffix(u, "/")}
		if id == selfID {
			if advertise != "" {
				n.URL = strings.TrimSuffix(advertise, "/")
			}
			self = n
			found = true
		}
		peers = append(peers, n)
	}
	if !found {
		return nil, cluster.Node{}, fmt.Errorf("-node-id %q not present in -cluster", selfID)
	}
	if len(peers) < 2 {
		return nil, cluster.Node{}, fmt.Errorf("-cluster needs at least 2 members (got %d)", len(peers))
	}
	return peers, self, nil
}

// buildStoreConfig assembles the StoreConfig the node opens its store with
// (dir may be empty for memory-only).
func buildStoreConfig(dir, fsyncMode string, fsyncEvery time.Duration, shards, compactEvery int) (cloud.StoreConfig, error) {
	cfg := cloud.StoreConfig{
		Shards:       shards,
		SyncEvery:    fsyncEvery,
		CompactEvery: compactEvery,
	}
	if dir != "" {
		policy, err := storage.ParseSyncPolicy(fsyncMode)
		if err != nil {
			return cloud.StoreConfig{}, err
		}
		cfg.Sync = policy
	}
	return cfg, nil
}

// openStore builds the in-memory store or opens (and recovers) a durable one.
func openStore(dir string, cfg cloud.StoreConfig) (*cloud.Store, error) {
	if dir == "" {
		return cloud.NewStore(nil), nil
	}
	store, err := cloud.OpenStore(dir, cfg)
	if err != nil {
		return nil, err
	}
	log.Printf("durable store open at %s (fsync=%s, %d data shards, %d users recovered)",
		dir, cfg.Sync, store.ShardCount(), store.UserCount())
	return store, nil
}

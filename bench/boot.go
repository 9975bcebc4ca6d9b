package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/obs"
)

// node is one booted PCI: store, server and loopback listener, wired the way
// cmd/pmware-cloud wires them, with run-private metric registries.
type node struct {
	id    string
	url   string
	dir   string
	store *cloud.Store
	cnode *cloud.ClusterNode
	srv   *cloud.Server
	http  *http.Server
	done  chan struct{}
}

// pci is the program under test: one node, or two replicating cluster nodes.
type pci struct {
	nodes []*node
	// reg holds every server-side family of the run (storage_*, pci_*,
	// analytics_*, popular_*) summed over nodes.
	reg *obs.Registry
}

func (p *pci) urls() []string {
	out := make([]string, len(p.nodes))
	for i, n := range p.nodes {
		out[i] = n.url
	}
	return out
}

// boot starts the workload's PCI under dir. wrap, when set, is mounted around
// each node's handler (the traced run's server.handle seam); replHTTP, when
// set, carries the nodes' replication POSTs (the cluster.repl_post seam).
func boot(w workload, in *inputs, dir string, wrap func(http.Handler) http.Handler, replHTTP *http.Client) (*pci, error) {
	p := &pci{reg: obs.NewRegistry()}
	n := 1
	if w.cluster {
		n = 2
	}
	listeners := make([]net.Listener, n)
	peers := make([]cluster.Node, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = l
		peers[i] = cluster.Node{ID: fmt.Sprintf("n%d", i), URL: "http://" + l.Addr().String()}
	}
	cells := cloud.NewCellDatabase(in.pop.World(), 150)
	for i := range listeners {
		nd := &node{id: peers[i].ID, url: peers[i].URL, dir: filepath.Join(dir, peers[i].ID), done: make(chan struct{})}
		cfg := w.storeConfig()
		cfg.Metrics = p.reg
		var err error
		if w.cluster {
			nd.cnode, err = cloud.NewClusterNode(nd.dir, cfg, cloud.ClusterNodeConfig{
				Self:    peers[i],
				Peers:   peers,
				ReplDir: filepath.Join(nd.dir, "repl"),
				HTTP:    replHTTP,
				Metrics: p.reg,
			})
			if err == nil {
				nd.store = nd.cnode.Store()
			}
		} else {
			nd.store, err = cloud.OpenStore(nd.dir, cfg)
		}
		if err != nil {
			listeners[i].Close()
			p.close()
			return nil, fmt.Errorf("boot %s: %w", nd.id, err)
		}
		opts := []cloud.ServerOption{
			cloud.WithCellDatabase(cells),
			cloud.WithDiscoverPool(cloud.DefaultDiscoverWorkers, cloud.DefaultDiscoverQueue),
			cloud.WithMaxBodyBytes(cloud.DefaultMaxBodyBytes),
			cloud.WithEventQueue(0, 0),
			cloud.WithEventHeartbeat(cloud.DefaultEventHeartbeat),
			cloud.WithMetrics(p.reg),
		}
		if nd.cnode != nil {
			opts = append(opts, cloud.WithClusterNode(nd.cnode))
		}
		nd.srv = cloud.NewServer(nd.store, opts...)
		h := nd.srv.Handler()
		if wrap != nil {
			h = wrap(h)
		}
		nd.http = &http.Server{Handler: h}
		go func(l net.Listener) {
			defer close(nd.done)
			_ = nd.http.Serve(l) // returns ErrServerClosed on Shutdown
		}(listeners[i])
		p.nodes = append(p.nodes, nd)
	}
	return p, nil
}

// close shuts the PCI down in cmd/pmware-cloud's order: listener, server
// (discovery pool, event hub), cluster node, store.
func (p *pci) close() {
	for _, nd := range p.nodes {
		if nd.http != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if nd.http.Shutdown(ctx) != nil {
				nd.http.Close()
			}
			cancel()
			<-nd.done
		}
	}
	for _, nd := range p.nodes {
		if nd.srv != nil {
			nd.srv.Close()
		}
	}
	for _, nd := range p.nodes {
		if nd.cnode != nil {
			_ = nd.cnode.Close()
		}
	}
	for _, nd := range p.nodes {
		if nd.store != nil {
			_ = nd.store.Close()
		}
	}
}

// copyTree copies every regular file under src to dst, file by file, the way
// a crash-consistent backup taken under a live store would: no Close, no
// Sync, torn tails included.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
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
		if !info.Mode().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// onTmpfs reports whether dir is on a memory-backed filesystem, so results
// can flag latencies that include device time.
func onTmpfs(dir string) bool {
	return statfsType(dir) == 0x01021994 // TMPFS_MAGIC
}

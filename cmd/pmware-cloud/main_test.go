package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/storage"
)

// TestSidecarServesMetrics boots the side listener on an ephemeral port and
// checks both /metrics renderings plus the pprof index.
func TestSidecarServesMetrics(t *testing.T) {
	sc, err := startSidecar("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Shutdown(context.Background())

	resp, err := http.Get("http://" + sc.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, body)
	}
	// The default registry carries the package-init client and PMS families
	// (this binary links internal/cloud and internal/core), so a freshly
	// booted process already exposes them.
	for _, name := range []string{"client_attempts_total", "pms_outbox_enqueued_total"} {
		if _, ok := doc.Counters[name]; !ok {
			t.Errorf("/metrics missing counter %q", name)
		}
	}

	resp, err = http.Get("http://" + sc.Addr() + "/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "client_attempts_total") {
		t.Errorf("text rendering missing client_attempts_total:\n%s", text)
	}

	resp, err = http.Get("http://" + sc.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/ = %d", resp.StatusCode)
	}
}

// TestSidecarShutdown pins the lifecycle fix: Shutdown returns only after the
// serve loop exits, and the port stops accepting connections.
func TestSidecarShutdown(t *testing.T) {
	sc, err := startSidecar("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := sc.Addr()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sc.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case <-sc.done:
	default:
		t.Fatal("serve loop still running after Shutdown returned")
	}
	if conn, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
		conn.Close()
		t.Fatalf("port %s still accepting connections after shutdown", addr)
	}

	// The freed address can be rebound immediately — no lingering listener.
	sc2, err := startSidecar(addr)
	if err != nil {
		t.Fatalf("rebind after shutdown: %v", err)
	}
	sc2.Shutdown(context.Background())
}

// TestSidecarBadAddr: a bad address fails synchronously at startup instead of
// logging from a goroutine after main has moved on.
func TestSidecarBadAddr(t *testing.T) {
	if _, err := startSidecar("256.256.256.256:99999"); err == nil {
		t.Fatal("startSidecar accepted an unusable address")
	}
}

// TestParseClusterSpec covers the -cluster / -node-id / -advertise wiring:
// each refusal names its flag, and a good spec yields every member with
// trailing slashes trimmed and this node's URL taken from -advertise when set.
func TestParseClusterSpec(t *testing.T) {
	const two = "a=http://h1:8080,b=http://h2:8080"
	for _, tc := range []struct {
		name, spec, self, advertise string
		wantErr                     string
		peers                       []cluster.Node
		wantSelf                    cluster.Node
	}{
		{name: "missing node id", spec: two, wantErr: "requires -node-id"},
		{name: "entry without =", spec: "a=http://h1:8080,b", self: "a", wantErr: `bad -cluster entry "b"`},
		{name: "entry without url", spec: "a=http://h1:8080,b=", self: "a", wantErr: `bad -cluster entry "b="`},
		{name: "self not listed", spec: two, self: "c", wantErr: `-node-id "c" not present`},
		{name: "one member", spec: "a=http://h1:8080", self: "a", wantErr: "at least 2 members (got 1)"},
		{name: "two members", spec: " a=http://h1:8080 ,, b=http://h2:8080", self: "b",
			peers:    []cluster.Node{{ID: "a", URL: "http://h1:8080"}, {ID: "b", URL: "http://h2:8080"}},
			wantSelf: cluster.Node{ID: "b", URL: "http://h2:8080"}},
		{name: "advertise overrides self", spec: two, self: "a", advertise: "http://public:9000/",
			peers:    []cluster.Node{{ID: "a", URL: "http://public:9000"}, {ID: "b", URL: "http://h2:8080"}},
			wantSelf: cluster.Node{ID: "a", URL: "http://public:9000"}},
		{name: "trailing slash trimmed", spec: "a=http://h1:8080/,b=http://h2:8080/", self: "a",
			peers:    []cluster.Node{{ID: "a", URL: "http://h1:8080"}, {ID: "b", URL: "http://h2:8080"}},
			wantSelf: cluster.Node{ID: "a", URL: "http://h1:8080"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peers, self, err := parseClusterSpec(tc.spec, tc.self, tc.advertise)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(peers, tc.peers) || self != tc.wantSelf {
				t.Fatalf("got peers %v self %v, want %v and %v", peers, self, tc.peers, tc.wantSelf)
			}
		})
	}
}

// TestBuildStoreConfig: the storage flags land in the StoreConfig as given,
// and -fsync is parsed (so a bad mode refused) only when there is a data
// directory for it to govern.
func TestBuildStoreConfig(t *testing.T) {
	for _, tc := range []struct {
		name, dir, fsync string
		wantErr          bool
		wantSync         storage.SyncPolicy
	}{
		{name: "memory ignores a bad mode", fsync: "sometimes"},
		{name: "durable refuses a bad mode", dir: "d", fsync: "sometimes", wantErr: true},
		{name: "durable always", dir: "d", fsync: "always", wantSync: storage.SyncAlways},
		{name: "durable interval", dir: "d", fsync: "interval", wantSync: storage.SyncInterval},
		{name: "durable never", dir: "d", fsync: "never", wantSync: storage.SyncNever},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := buildStoreConfig(tc.dir, tc.fsync, 7*time.Millisecond, 3, -1)
			if tc.wantErr {
				if err == nil || !strings.Contains(err.Error(), "unknown fsync policy") {
					t.Fatalf("err = %v, want an unknown-policy refusal", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := cloud.StoreConfig{Shards: 3, Sync: tc.wantSync, SyncEvery: 7 * time.Millisecond, CompactEvery: -1}
			if !reflect.DeepEqual(cfg, want) {
				t.Fatalf("config %+v, want %+v", cfg, want)
			}
		})
	}
}

// TestOpenStore: no directory is a memory-only store; a fresh directory is
// laid out with its MANIFEST and the configured shard count; a directory an
// older commit wrote in record format 2 is refused with every file of it left
// as it was.
func TestOpenStore(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		s, err := openStore("", cloud.StoreConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if s.UserCount() != 0 {
			t.Fatalf("fresh memory store has %d users", s.UserCount())
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("fresh directory", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "data")
		cfg, err := buildStoreConfig(dir, "never", time.Second, 2, -1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := openStore(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s.ShardCount() != 2 || s.UserCount() != 0 {
			t.Fatalf("fresh store: %d shards, %d users; want 2 and 0", s.ShardCount(), s.UserCount())
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, "MANIFEST.json")); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("format 2 refused", func(t *testing.T) {
		src := filepath.Join("..", "..", "internal", "cloud", "testdata", "parent", "format2store")
		want := readTree(t, src)
		dir := t.TempDir()
		for rel, data := range want {
			if err := os.MkdirAll(filepath.Join(dir, filepath.Dir(rel)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, rel), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		cfg, err := buildStoreConfig(dir, "interval", storage.DefaultSyncEvery, cloud.DefaultShards, 0)
		if err != nil {
			t.Fatal(err)
		}
		s, err := openStore(dir, cfg)
		if err == nil {
			s.Close()
			t.Fatal("format-2 directory opened")
		}
		if !strings.Contains(err.Error(), "holds record format 2") || !strings.Contains(err.Error(), "format 3 only") {
			t.Fatalf("err = %v, want a refusal naming formats 2 and 3", err)
		}
		got := readTree(t, dir)
		if len(got) != len(want) {
			t.Errorf("directory holds %d files after the refusal, the fixture %d", len(got), len(want))
		}
		for rel, data := range want {
			if !bytes.Equal(got[rel], data) {
				t.Errorf("%s changed", rel)
			}
		}
	})
}

// readTree returns every regular file under root, keyed by its path relative
// to root.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no files under %s", root)
	}
	return files
}

package cloud

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/profile"
)

// The chaos suite: a 3-node cluster soaked by fault-injected clients loses a
// node mid-run, the coordinator promotes the follower, and at the end the
// surviving cluster's merged state is byte-identical to a fault-free
// single-node control run of the same write sequence. Zero acked profiles
// lost, zero spurious ones gained.

type chaosNode struct {
	id  string
	url string
	cn  *ClusterNode
	srv *Server
	ts  *httptest.Server
	reg *obs.Registry
}

// startChaosCluster boots n cluster nodes on pre-bound loopback listeners
// (the peer list must be known before any node starts).
func startChaosCluster(t *testing.T, n int, opts ...ServerOption) []*chaosNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	peers := make([]cluster.Node, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		peers[i] = cluster.Node{ID: fmt.Sprintf("n%d", i), URL: "http://" + l.Addr().String()}
	}
	nodes := make([]*chaosNode, n)
	for i := range nodes {
		reg := obs.NewRegistry()
		cn, err := NewClusterNode("", StoreConfig{Shards: 2, StableIDs: true}, ClusterNodeConfig{
			Self:    peers[i],
			Peers:   peers,
			Metrics: reg,
			Logf:    t.Logf,
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		srv := NewServer(cn.Store(), append(opts, WithClusterNode(cn))...)
		ts := httptest.NewUnstartedServer(srv.Handler())
		ts.Listener.Close()
		ts.Listener = listeners[i]
		ts.Start()
		node := &chaosNode{id: peers[i].ID, url: peers[i].URL, cn: cn, srv: srv, ts: ts, reg: reg}
		nodes[i] = node
		t.Cleanup(func() {
			node.ts.Close()
			node.srv.Close()
			node.cn.Close()
		})
	}
	return nodes
}

// mustEventually retries op until it succeeds; chaos makes individual calls
// fail, but every logical write must eventually land (that is the loss-free
// claim being tested: acked == applied, exactly once-or-idempotent).
func mustEventually(t *testing.T, what string, op func() error) {
	t.Helper()
	var err error
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if err = op(); err == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s never succeeded: %v", what, err)
}

func chaosProfile(uid, date string) *profile.DayProfile {
	day, _ := time.Parse("2006-01-02", date)
	return &profile.DayProfile{
		UserID: uid,
		Date:   date,
		Places: []profile.PlaceVisit{{
			PlaceID: "place-7",
			Arrive:  day.Add(9 * time.Hour),
			Depart:  day.Add(17 * time.Hour),
		}},
	}
}

// TestClusterChaosFailoverEquivalence is the pinned chaos run: kill a node
// mid-soak, promote its follower, and require the cluster's merged profile
// state to be byte-identical to a fault-free single-node control.
func TestClusterChaosFailoverEquivalence(t *testing.T) {
	const (
		users  = 9
		rounds = 6
	)
	nodes := startChaosCluster(t, 3)
	urls := make([]string, len(nodes))
	for i, n := range nodes {
		urls[i] = n.url
	}

	coord := cluster.NewCoordinator([]cluster.Node{
		{ID: nodes[0].id, URL: nodes[0].url},
		{ID: nodes[1].id, URL: nodes[1].url},
		{ID: nodes[2].id, URL: nodes[2].url},
	}, cluster.DefaultVNodes, nil, t.Logf)
	defer coord.Stop()

	// Fault-free single-node control: the same logical writes applied to a
	// plain store. Idempotent upserts make the cluster's retried/duplicated
	// applications converge to exactly this state.
	control, err := newStore("", StoreConfig{Shards: 2, StableIDs: true})
	if err != nil {
		t.Fatal(err)
	}

	type chaosUser struct {
		imei, email, uid string
		client           *Client
		faults           *faultnet.Transport
	}
	cusers := make([]*chaosUser, users)
	for i := range cusers {
		imei := fmt.Sprintf("chaos-imei-%03d", i)
		email := fmt.Sprintf("chaos-%d@example.com", i)
		ft := faultnet.Wrap(nil, faultnet.Config{
			Seed:            int64(1000 + i),
			ConnErrorRate:   0.08,
			ServerErrorRate: 0.05,
			BurstLen:        2,
			Sleep:           func(time.Duration) {},
		})
		httpc := &http.Client{Transport: ft, Timeout: 5 * time.Second}
		client := NewClient(urls[i%len(urls)], imei, email, httpc,
			WithCluster(urls),
			WithRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, PerTryTimeout: 5 * time.Second}),
		)
		u := &chaosUser{imei: imei, email: email, uid: StableUserID(imei, email), client: client, faults: ft}
		cusers[i] = u
		mustEventually(t, "register "+imei, u.client.Register)
		if got := u.client.UserID(); got != u.uid {
			t.Fatalf("user %d: cluster assigned id %s, want stable id %s", i, got, u.uid)
		}
		if _, err := control.Register(imei, email); err != nil {
			t.Fatal(err)
		}
	}

	killAt := rounds / 2
	for r := 0; r < rounds; r++ {
		if r == killAt {
			// Kill n1 mid-soak: its listener dies with in-flight
			// connections, then the coordinator promotes its follower.
			nodes[1].ts.Close()
			if err := coord.Fail("n1"); err != nil {
				t.Fatalf("coordinator fail: %v", err)
			}
		}
		date := fmt.Sprintf("2014-04-%02d", 10+r)
		for _, u := range cusers {
			p := chaosProfile(u.uid, date)
			mustEventually(t, fmt.Sprintf("profile %s round %d", u.imei, r), func() error {
				return u.client.SyncProfile(p)
			})
			if err := control.PutProfile(u.uid, chaosProfile(u.uid, date)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Merged read-back through the surviving cluster: every user's full
	// profile range, routed to the post-failover owner by the client ring.
	from, to := "2014-04-01", "2014-04-30"
	clusterState := map[string][]*profile.DayProfile{}
	for _, u := range cusers {
		var got []*profile.DayProfile
		mustEventually(t, "read-back "+u.imei, func() error {
			var err error
			got, err = u.client.ProfileRange(from, to)
			return err
		})
		clusterState[u.uid] = got
	}
	controlState := map[string][]*profile.DayProfile{}
	for _, u := range cusers {
		controlState[u.uid] = control.ProfileRange(u.uid, from, to)
	}

	clusterJSON, err := json.MarshalIndent(clusterState, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	controlJSON, err := json.MarshalIndent(controlState, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(clusterJSON) != string(controlJSON) {
		t.Fatalf("merged cluster state diverged from fault-free control:\ncluster:\n%s\ncontrol:\n%s", clusterJSON, controlJSON)
	}

	// Sanity on the chaos itself: the run must actually have injected
	// faults and survived a promotion, or the equivalence proves nothing.
	totalFaults := 0
	for _, u := range cusers {
		totalFaults += u.faults.Stats().Faults()
	}
	if totalFaults == 0 {
		t.Fatal("chaos run injected zero faults; equivalence is vacuous")
	}
	if v := coord.Ring().Version; v < 2 {
		t.Fatalf("coordinator ring version %d, want >= 2 after failover", v)
	}
	for _, n := range []*chaosNode{nodes[0], nodes[2]} {
		if got := n.cn.Ring().Version; got != coord.Ring().Version {
			t.Fatalf("node %s ring version %d, coordinator at %d", n.id, got, coord.Ring().Version)
		}
	}
	t.Logf("chaos summary: %d injected faults across %d clients, ring at v%d",
		totalFaults, users, coord.Ring().Version)
}

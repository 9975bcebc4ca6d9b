package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/events"
	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Routing and failover behavior, pinned to exact metric deltas: the server
// gate's serve/proxy/redirect decisions, the client router's redirect
// adoption on ring change, and conn-error failovers tied one-to-one to
// faultnet's injected-fault ground truth.

func clusterNodeByID(t *testing.T, nodes []*chaosNode, id string) *chaosNode {
	t.Helper()
	for _, n := range nodes {
		if n.id == id {
			return n
		}
	}
	t.Fatalf("no node %s", id)
	return nil
}

func rawRegister(t *testing.T, url string, hdr map[string]string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(RegisterRequest{IMEI: "route-imei-1", Email: "route@example.com"})
	req, err := http.NewRequest("POST", url+PathRegister, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestClusterGateRouting pins the server-side gate decision table: owner
// serves, follower-of-owner proxies (one hop), anyone else redirects with
// the owner's URL, keyless requests are served locally, and a proxied
// request for a key this node does not own bounces 421 (the hop is not a
// license to serve someone else's user) — each with its exact
// pci_cluster_* delta.
func TestClusterGateRouting(t *testing.T) {
	const maxBody = 4 << 10
	nodes := startChaosCluster(t, 3, WithMaxBodyBytes(maxBody))
	uid := StableUserID("route-imei-1", "route@example.com")
	ring := nodes[0].cn.Ring()
	ownerID := ring.PrimaryID(uid)
	followerID, ok := ring.FollowerID(ownerID)
	if !ok {
		t.Fatalf("no follower for %s", ownerID)
	}
	owner := clusterNodeByID(t, nodes, ownerID)
	follower := clusterNodeByID(t, nodes, followerID)
	var third *chaosNode
	for _, n := range nodes {
		if n.id != ownerID && n.id != followerID {
			third = n
		}
	}

	key := map[string]string{cluster.HeaderKey: uid}

	// Owner serves directly; no routing counters move.
	if resp := rawRegister(t, owner.url, key); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner: status %d", resp.StatusCode)
	}
	// Follower-of-owner proxies the request to the owner, one hop.
	if resp := rawRegister(t, follower.url, key); resp.StatusCode != http.StatusOK {
		t.Fatalf("follower proxy: status %d", resp.StatusCode)
	}
	if got := follower.reg.Counter("pci_cluster_proxied_total").Value(); got != 1 {
		t.Fatalf("follower proxied counter = %d, want 1", got)
	}
	// The proxy buffers under the server's body cap: an upload over it is
	// answered 413 at the hop, never truncated and forwarded.
	big, err := http.NewRequest("POST", follower.url+PathRegister, bytes.NewReader(make([]byte, 2*maxBody)))
	if err != nil {
		t.Fatal(err)
	}
	big.Header.Set(cluster.HeaderKey, uid)
	bigResp, err := http.DefaultClient.Do(big)
	if err != nil {
		t.Fatal(err)
	}
	bigBody, _ := io.ReadAll(bigResp.Body)
	bigResp.Body.Close()
	if want := fmt.Sprintf("exceeds %d bytes", maxBody); bigResp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(bigBody), want) {
		t.Fatalf("oversized proxied upload: status %d body %q, want 413 %q", bigResp.StatusCode, bigBody, want)
	}
	if got := follower.reg.Counter("pci_cluster_proxied_total").Value(); got != 1 {
		t.Fatalf("follower proxied counter = %d after the refused upload, want still 1", got)
	}
	// Any other node redirects, naming the owner.
	resp := rawRegister(t, third.url, key)
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("third node: status %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get(cluster.HeaderOwner); got != owner.url {
		t.Fatalf("redirect owner = %q, want %q", got, owner.url)
	}
	if got := third.reg.Counter("pci_cluster_misrouted_total").Value(); got != 1 {
		t.Fatalf("third misrouted counter = %d, want 1", got)
	}
	// Keyless requests (pre-cluster clients) are served wherever they land.
	if resp := rawRegister(t, third.url, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("keyless: status %d", resp.StatusCode)
	}
	// A proxied request is still ownership-checked: a hop off a stale ring
	// must not land a write on a non-owner. It is never proxied a second
	// time (single hop) — it bounces 421 naming the real owner, for the
	// proxying node to relay.
	hopped := map[string]string{cluster.HeaderKey: uid, cluster.HeaderProxied: "1"}
	resp = rawRegister(t, third.url, hopped)
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("proxied flag: status %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get(cluster.HeaderOwner); got != owner.url {
		t.Fatalf("proxied bounce owner = %q, want %q", got, owner.url)
	}
	if got := third.reg.Counter("pci_cluster_misrouted_total").Value(); got != 2 {
		t.Fatalf("third misrouted counter = %d, want 2", got)
	}
	// A proxied request for a key this node DOES own is served (the normal
	// proxy hop terminates here).
	ownerHop := map[string]string{cluster.HeaderKey: uid, cluster.HeaderProxied: "1"}
	if resp := rawRegister(t, owner.url, ownerHop); resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied-to-owner: status %d", resp.StatusCode)
	}
	if got := owner.reg.Counter("pci_cluster_proxied_total").Value() +
		owner.reg.Counter("pci_cluster_misrouted_total").Value(); got != 0 {
		t.Fatalf("owner routing counters = %d, want 0", got)
	}
}

// TestClusterEveryCallRingRouted constructs the client with the bystander —
// the one node that neither owns nor follows the user — as its base URL, on
// both wire codecs. Every kind of request the client can make (buffered,
// streamed upload, streamed binary discover, SSE subscription) must go to the
// ring owner on the first hop: nothing reaches the bystander, so neither its
// 421 counter nor the client's redirect counter moves.
func TestClusterEveryCallRingRouted(t *testing.T) {
	nodes := startChaosCluster(t, 3)
	urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	ring := nodes[0].cn.Ring()
	for _, wc := range []WireCodec{WireJSON, WireBinary} {
		t.Run(wc.String(), func(t *testing.T) {
			imei, email := "bystander-imei-"+wc.String(), "bystander@example.com"
			uid := StableUserID(imei, email)
			ownerID := ring.PrimaryID(uid)
			followerID, _ := ring.FollowerID(ownerID)
			var bystander *chaosNode
			for _, n := range nodes {
				if n.id != ownerID && n.id != followerID {
					bystander = n
				}
			}
			owner := clusterNodeByID(t, nodes, ownerID)
			misroutedBefore := bystander.reg.Counter("pci_cluster_misrouted_total").Value()

			creg := obs.NewRegistry()
			client := NewClient(bystander.url, imei, email, &http.Client{},
				WithCluster(urls), WithWireCodec(wc), WithClientMetrics(creg),
				WithRetryPolicy(RetryPolicy{MaxAttempts: 1}))
			if err := client.Register(); err != nil {
				t.Fatalf("register: %v", err)
			}
			sub, err := client.Subscribe(context.Background())
			if err != nil {
				t.Fatalf("subscribe: %v", err)
			}
			defer sub.Close()
			history := oscillatingTrace()
			if _, err := client.StreamObservations(context.Background(), history[:60], 16); err != nil {
				t.Fatalf("stream: %v", err)
			}
			select {
			case ev, ok := <-sub.C:
				if !ok || ev.UserID != uid {
					t.Fatalf("subscription delivered %+v (open=%v, err=%v), want an event for %s", ev, ok, sub.Err(), uid)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("no event delivered over the subscription")
			}
			places, err := client.DiscoverPlaces(history)
			if err != nil {
				t.Fatalf("discover: %v", err)
			}
			if len(places) == 0 {
				t.Fatal("discover returned no places")
			}

			if got := len(owner.cn.Store().Places(uid)); got != len(places) {
				t.Errorf("owner holds %d places, client was answered %d", got, len(places))
			}
			if got := len(bystander.cn.Store().Places(uid)); got != 0 {
				t.Errorf("bystander holds %d places for a user it does not own", got)
			}
			if st := bystander.cn.Store().TraceStatusFor(uid); st.Len != 0 {
				t.Errorf("bystander holds a %d-observation trace for a user it does not own", st.Len)
			}
			if d := bystander.reg.Counter("pci_cluster_misrouted_total").Value() - misroutedBefore; d != 0 {
				t.Errorf("bystander answered %d 421s, want 0: the ring names the owner", d)
			}
			// Register, subscribe, stream, discover: one attempt each, no
			// redirect and no failover.
			for fam, want := range map[string]uint64{
				"client_attempts_total":          4,
				"client_cluster_redirects_total": 0,
				"client_cluster_failovers_total": 0,
			} {
				if got := creg.Counter(fam).Value(); got != want {
					t.Errorf("%s = %d, want %d", fam, got, want)
				}
			}
		})
	}
}

// heldStream is a transport that holds a streamed upload's body back: the
// first pass newline-terminated batches of each stream flow, the rest wait for
// release (a stream of no more batches than that is not held at all). It puts a handoff between two batches of one StreamObservations.
type heldStream struct {
	pass    int
	release chan struct{}
}

func (h *heldStream) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == PathObservationsStream {
		req = req.Clone(req.Context())
		req.Body = &heldBody{ReadCloser: req.Body, h: h}
	}
	return http.DefaultTransport.RoundTrip(req)
}

type heldBody struct {
	io.ReadCloser
	h     *heldStream
	lines int
}

func (b *heldBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if n > 0 && b.lines >= b.h.pass {
		<-b.h.release
	}
	b.lines += bytes.Count(p[:n], []byte{'\n'})
	return n, err
}

// TestClusterLeaveHandoffRedirect pins the ring-change path end to end: a
// coordinator Leave hands the departing node's users off to their new
// owners, a client holding the stale ring gets exactly one 421, adopts the
// owner, replays, and reads back the handed-off profile intact.
func TestClusterLeaveHandoffRedirect(t *testing.T) {
	httpReg := obs.NewRegistry() // the three servers' pci_http_* families
	nodes := startChaosCluster(t, 3, WithMetrics(httpReg))
	urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	coord := cluster.NewCoordinator([]cluster.Node{
		{ID: nodes[0].id, URL: nodes[0].url},
		{ID: nodes[1].id, URL: nodes[1].url},
		{ID: nodes[2].id, URL: nodes[2].url},
	}, cluster.DefaultVNodes, nil, t.Logf)
	defer coord.Stop()

	imei, email := "leave-imei-1", "leave@example.com"
	uid := StableUserID(imei, email)
	creg := obs.NewRegistry()
	// No keep-alive: the connection sweep that later drops the subscription
	// must not also hit a pooled connection a later request would reuse (a
	// GET is silently resent, putting the 421 count off by one; a streamed
	// POST fails).
	fresh := &http.Transport{DisableKeepAlives: true}
	client := NewClient(urls[0], imei, email, &http.Client{Timeout: 5 * time.Second, Transport: fresh},
		WithCluster(urls),
		WithClientMetrics(creg),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond}))
	if err := client.Register(); err != nil {
		t.Fatal(err)
	}
	date := "2014-05-02"
	if err := client.SyncProfile(chaosProfile(uid, date)); err != nil {
		t.Fatal(err)
	}

	oldOwnerID := nodes[0].cn.Ring().PrimaryID(uid)
	oldOwner := clusterNodeByID(t, nodes, oldOwnerID)

	// The same user over the streaming paths: a live subscription, and a
	// second client (same identity, its own stale ring after the Leave)
	// whose streamed upload delivers the subscription's first events.
	ctx := context.Background()
	sub, err := client.Subscribe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	sreg := obs.NewRegistry()
	streamer := NewClient(urls[0], imei, email, &http.Client{Transport: fresh},
		WithCluster(urls), WithClientMetrics(sreg), WithRetryPolicy(RetryPolicy{MaxAttempts: 1}))
	if err := streamer.Register(); err != nil {
		t.Fatal(err)
	}
	history := oscillatingTrace()
	res, err := streamer.StreamObservations(ctx, history[:60], 16)
	if err != nil || res.Events == 0 {
		t.Fatalf("pre-leave stream: %+v, %v (want events)", res, err)
	}
	nextEvent := func(what string) events.Event {
		t.Helper()
		select {
		case ev, ok := <-sub.C:
			if !ok {
				t.Fatalf("%s: subscription ended: %v", what, sub.Err())
			}
			return ev
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no event", what)
		}
		return events.Event{}
	}
	for i := 0; i < res.Events; i++ {
		if ev := nextEvent("pre-leave"); ev.Seq != uint64(i+1) {
			t.Fatalf("pre-leave event %d has seq %d", i, ev.Seq)
		}
	}

	// Two more users of the same owner hold a streamed upload open across the
	// Leave. mid's first batch lands before the handoff and its second after;
	// mid0's stream is admitted by the gate but its first batch is held back
	// until the user has moved.
	type heldUpload struct {
		c    *Client
		reg  *obs.Registry
		uid  string
		hold *heldStream
		done chan error
		res  StreamResult
	}
	hold := func(imei string, pass int) *heldUpload {
		for nodes[0].cn.Ring().PrimaryID(StableUserID(imei, email)) != oldOwnerID {
			imei += "x"
		}
		h := &heldUpload{reg: obs.NewRegistry(), uid: StableUserID(imei, email),
			hold: &heldStream{pass: pass, release: make(chan struct{})}, done: make(chan error, 1)}
		h.c = NewClient(urls[0], imei, email, &http.Client{Transport: h.hold},
			WithCluster(urls), WithClientMetrics(h.reg), WithRetryPolicy(RetryPolicy{MaxAttempts: 1}))
		if err := h.c.Register(); err != nil {
			t.Fatal(err)
		}
		return h
	}
	stream := func(h *heldUpload, obs []trace.GSMObservation, batch int) {
		go func() {
			var err error
			h.res, err = h.c.StreamObservations(ctx, obs, batch)
			h.done <- err
		}()
	}
	mid, mid0 := hold("leave-imei-mid", 1), hold("leave-imei-mid0", 0)
	if _, err := mid.c.StreamObservations(ctx, history[:10], 0); err != nil { // a stored cursor to resume from
		t.Fatal(err)
	}
	midAttempts := mid.reg.Counter("client_attempts_total").Value()
	stream(mid, history[:40], 15)
	waitFor(t, "mid's first batch durable", func() bool {
		return oldOwner.cn.Store().TraceStatusFor(mid.uid).Len == 25
	})
	inFlight := httpReg.Gauge("pci_http_in_flight").Value()
	stream(mid0, history[:40], 16)
	waitFor(t, "mid0's stream admitted", func() bool {
		return httpReg.Gauge("pci_http_in_flight").Value() == inFlight+1
	})

	redirectsBefore := creg.Counter("client_cluster_redirects_total").Value()
	misroutedBefore := oldOwner.reg.Counter("pci_cluster_misrouted_total").Value()

	// Leave is synchronous through AdoptRing: when it returns, the
	// departing node has exported its users to their new owners.
	if err := coord.Leave(oldOwnerID); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if got := oldOwner.reg.Counter("pci_cluster_handoff_users_total").Value(); got < 1 {
		t.Fatalf("leaver handoff counter = %d, want >= 1", got)
	}
	newOwnerID := coord.Ring().PrimaryID(uid)
	if newOwnerID == oldOwnerID {
		t.Fatalf("owner did not move off %s", oldOwnerID)
	}

	// The client still holds ring v1, so its next call lands on the old
	// owner: exactly one 421, owner adopted, whole call replayed.
	got, err := client.ProfileRange("2014-05-01", "2014-05-03")
	if err != nil {
		t.Fatalf("post-leave read: %v", err)
	}
	if len(got) != 1 || got[0].Date != date {
		t.Fatalf("post-leave read returned %d profiles, want the handed-off one", len(got))
	}
	want, _ := json.Marshal(chaosProfile(uid, date))
	gotJSON, _ := json.Marshal(got[0])
	if string(gotJSON) != string(want) {
		t.Fatalf("handed-off profile mutated:\ngot  %s\nwant %s", gotJSON, want)
	}
	if d := creg.Counter("client_cluster_redirects_total").Value() - redirectsBefore; d != 1 {
		t.Fatalf("client redirects delta = %d, want 1", d)
	}
	if d := oldOwner.reg.Counter("pci_cluster_misrouted_total").Value() - misroutedBefore; d != 1 {
		t.Fatalf("old owner misrouted delta = %d, want 1", d)
	}
	// The old owner no longer holds the user locally.
	if oldOwner.cn.Store().UserCount() != 0 {
		t.Fatalf("leaver still holds %d users after handoff", oldOwner.cn.Store().UserCount())
	}

	// mid0's first batch raced the handoff with nothing of the stream landed:
	// the store refuses it, the handler answers the gate's 421 contract (not a
	// 500), and the client adopts the owner and replays the whole stream.
	close(mid0.hold.release)
	if err := <-mid0.done; err != nil {
		t.Fatalf("stream handed off before its first batch: %v", err)
	}
	owner0, _ := coord.Ring().Primary(mid0.uid)
	if st := clusterNodeByID(t, nodes, owner0.ID).cn.Store().TraceStatusFor(mid0.uid); mid0.res.Appended != 40 ||
		st.Len != 40 || st.Hash != TraceHash(history[:40]) {
		t.Fatalf("replayed stream: result %+v, new owner holds %+v, want all 40 observations once", mid0.res, st)
	}
	if d := mid0.reg.Counter("client_cluster_redirects_total").Value(); d != 1 {
		t.Fatalf("mid0 redirects = %d, want the handler's one 421", d)
	}

	// mid's second batch raced the handoff after its first had landed and
	// moved with the user. A 421 would make the client replay the first batch
	// onto the owner that already holds it: the call ends with a 503 after a
	// single attempt, nothing is duplicated, and the next discover upload
	// (re-routed by the old owner's gate) dedups the overlap and catches up.
	close(mid.hold.release)
	err = <-mid.done
	if status, _ := StatusCode(err); status != http.StatusServiceUnavailable {
		t.Fatalf("stream handed off mid-upload: %v, want a 503", err)
	}
	if d := mid.reg.Counter("client_attempts_total").Value() - midAttempts; d != 1 {
		t.Fatalf("interrupted stream made %d attempts: it must not be replayed", d)
	}
	ownerMid, _ := coord.Ring().Primary(mid.uid)
	midStore := clusterNodeByID(t, nodes, ownerMid.ID).cn.Store()
	if st := midStore.TraceStatusFor(mid.uid); st.Len != 25 || st.Hash != TraceHash(history[:25]) {
		t.Fatalf("new owner holds %+v of the interrupted stream, want the 25 observations handed off", st)
	}
	if _, err := mid.c.DiscoverPlaces(history[:40]); err != nil {
		t.Fatalf("discover after the interrupted stream: %v", err)
	}
	if st := midStore.TraceStatusFor(mid.uid); st.Len != 40 || st.Hash != TraceHash(history[:40]) {
		t.Fatalf("new owner holds %+v after the catch-up, want all 40 observations once", st)
	}
	if d := mid.reg.Counter("client_cluster_redirects_total").Value(); d != 1 {
		t.Fatalf("mid redirects = %d after the catch-up, want 1", d)
	}

	// The subscription's connection to the leaver drops. It had delivered
	// events, so that is no routing failure: the subscription reconnects to
	// the same node, whose gate answers one 421, and re-targets without
	// backoff or failover. The new owner's hub has never seen the stream the
	// Last-Event-ID names, so the resume is answered with a reset.
	newOwner := clusterNodeByID(t, nodes, newOwnerID)
	misroutedBefore = oldOwner.reg.Counter("pci_cluster_misrouted_total").Value()
	redirectsBefore = creg.Counter("client_cluster_redirects_total").Value()
	failoversBefore := creg.Counter("client_cluster_failovers_total").Value()
	oldOwner.ts.CloseClientConnections()
	if ev := nextEvent("resume"); ev.Type != events.KindReset {
		t.Fatalf("resumed subscription delivered %+v, want the new owner's reset", ev)
	}
	if d := creg.Counter("client_cluster_redirects_total").Value() - redirectsBefore; d != 1 {
		t.Fatalf("subscription redirects delta = %d, want 1", d)
	}
	if d := oldOwner.reg.Counter("pci_cluster_misrouted_total").Value() - misroutedBefore; d != 1 {
		t.Fatalf("old owner misrouted delta = %d, want the subscription's one 421", d)
	}
	if d := creg.Counter("client_cluster_failovers_total").Value() - failoversBefore; d != 0 {
		t.Fatalf("subscription failovers delta = %d: an ordinary disconnect is not a failover", d)
	}

	// The streamer still holds ring v1: its upload meets exactly one 421 on
	// the old owner, adopts the new one and replays there (recovering its
	// token, which did not move with the user), extending the handed-off
	// trace; the resumed subscription sees the events.
	misroutedBefore = oldOwner.reg.Counter("pci_cluster_misrouted_total").Value()
	res, err = streamer.StreamObservations(ctx, history, 16)
	if err != nil {
		t.Fatalf("post-leave stream: %v", err)
	}
	if res.Appended != len(history)-60 || res.TraceLen != int64(len(history)) || res.Events == 0 {
		t.Fatalf("post-leave stream result %+v, want the %d-observation tail appended with events", res, len(history)-60)
	}
	if got := newOwner.cn.Store().TraceStatusFor(uid).Len; got != int64(len(history)) {
		t.Fatalf("new owner holds %d observations, want %d", got, len(history))
	}
	if d := sreg.Counter("client_cluster_redirects_total").Value(); d != 1 {
		t.Fatalf("streamer redirects = %d, want 1", d)
	}
	if d := oldOwner.reg.Counter("pci_cluster_misrouted_total").Value() - misroutedBefore; d != 1 {
		t.Fatalf("old owner misrouted delta = %d, want 1", d)
	}
	if ev := nextEvent("post-leave"); ev.UserID != uid || ev.Seq != 1 {
		t.Fatalf("post-leave event %+v, want the new owner's seq 1 for %s", ev, uid)
	}
}

// TestClusterHandoffAdmission pins that a handoff passes the same admission
// as a batch or resync before its first record is applied: a sender with a
// different shard layout (its records would land in shards no reader looks
// in) or a stale ring is refused, nothing is applied, and the sender keeps —
// and keeps serving — its users.
func TestClusterHandoffAdmission(t *testing.T) {
	nodes := startChaosCluster(t, 2)
	urls := []string{nodes[0].url, nodes[1].url}
	imei, email := "handoff-imei-1", "handoff@example.com"
	uid := StableUserID(imei, email)
	v1 := nodes[0].cn.Ring()
	sender := clusterNodeByID(t, nodes, v1.PrimaryID(uid))
	dest := nodes[0]
	if dest == sender {
		dest = nodes[1]
	}
	client := NewClient(urls[0], imei, email, nil, WithCluster(urls))
	if err := client.Register(); err != nil {
		t.Fatal(err)
	}
	date := "2014-05-02"
	if err := client.SyncProfile(chaosProfile(uid, date)); err != nil {
		t.Fatal(err)
	}

	// Let the sender's replication stream settle first: a batch still in
	// flight would be refused as stale below and counted like a handoff.
	waitFor(t, "sender's shipper caught up", func() bool {
		return sender.reg.Gauge("pci_repl_degraded").Value() == 0 && sender.reg.Gauge("pci_repl_lag_records").Value() == 0
	})
	// The destination moves two ring versions ahead (same members, so
	// nothing moves): a handoff stamped v1 or v2 is now from a stale sender.
	if err := dest.cn.AdoptRing(cluster.NewRing(3, v1.Nodes, v1.VNodes)); err != nil {
		t.Fatal(err)
	}
	ghost := encodeRecord(&record{Op: opRegister, UserID: "ghost", IMEI: "g", Email: "g"})
	post := func(req cluster.BatchRequest) cluster.BatchResponse {
		t.Helper()
		req.From = sender.id
		req.Records = []cluster.ShipRecord{{Engine: cluster.EngineMain, Shard: 0, Rec: ghost}}
		hr, err := cluster.PostBatch(http.DefaultClient, dest.url+cluster.PathHandoff, cluster.EncodeBatchBinary(nil, &req))
		if err != nil {
			t.Fatal(err)
		}
		return hr
	}
	holdsGhost := func() bool {
		for _, id := range dest.cn.Store().userIDs() {
			if id == "ghost" {
				return true
			}
		}
		return false
	}
	rejected := dest.reg.Counter("pci_repl_batches_rejected_total")
	for _, tc := range []struct {
		name string
		req  cluster.BatchRequest
		want string
	}{
		{"shard layout", cluster.BatchRequest{RingVersion: 3, DataShards: 3, TraceShards: 3}, "shard layout mismatch"},
		{"stale ring", cluster.BatchRequest{RingVersion: 2, DataShards: 2, TraceShards: 2}, "stale ring v2"},
	} {
		before := rejected.Value()
		if hr := post(tc.req); !strings.Contains(hr.Error, tc.want) {
			t.Fatalf("%s: handoff answered %+v, want a refusal naming %q", tc.name, hr, tc.want)
		}
		if holdsGhost() {
			t.Fatalf("%s: refused handoff was applied", tc.name)
		}
		if d := rejected.Value() - before; d != 1 {
			t.Fatalf("%s: rejected counter delta = %d, want 1", tc.name, d)
		}
	}
	// Anything but the binary framing — here the retired JSON envelope — is
	// 415 before a byte of it is read: not applied, not counted as a refusal.
	before := rejected.Value()
	jsonBody, _ := json.Marshal(cluster.BatchRequest{From: sender.id, RingVersion: 3, DataShards: 2, TraceShards: 2,
		Records: []cluster.ShipRecord{{Engine: cluster.EngineMain, Shard: 0, Rec: ghost}}})
	resp, err := http.Post(dest.url+cluster.PathHandoff, "application/json", bytes.NewReader(jsonBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType || holdsGhost() || rejected.Value() != before {
		t.Fatalf("JSON handoff: status %d, applied=%v, rejected delta %d; want 415, false, 0",
			resp.StatusCode, holdsGhost(), rejected.Value()-before)
	}
	if hr := post(cluster.BatchRequest{RingVersion: 3, DataShards: 2, TraceShards: 2}); hr.Error != "" || !holdsGhost() {
		t.Fatalf("admissible handoff answered %+v (applied=%v), want OK and applied", hr, holdsGhost())
	}

	// End to end: the sender is told to leave under a v2 ring, which moves
	// its user to the destination. The handoff is refused as stale, so the
	// sender drops nothing and still serves the user's data.
	if err := sender.cn.AdoptRing(v1.WithLeave(sender.id)); err != nil {
		t.Fatal(err)
	}
	if got := sender.reg.Counter("pci_cluster_handoff_users_total").Value(); got != 0 {
		t.Fatalf("sender counted %d users handed off through a refused handoff", got)
	}
	local := NewClient(sender.url, imei, email, nil) // unstamped: served where it lands
	if err := local.Register(); err != nil {
		t.Fatal(err)
	}
	if got, err := local.ProfileRange(date, date); err != nil || len(got) != 1 {
		t.Fatalf("sender read after refused handoff: %d profiles, %v", len(got), err)
	}
}

// TestClusterFailoverMetricsPinned ties the client's failover counter to
// faultnet's ground truth: with a stable ring, every injected connection
// error and synthesized 5xx produces exactly one candidate failover — no
// more, no fewer — and zero redirects.
func TestClusterFailoverMetricsPinned(t *testing.T) {
	nodes := startChaosCluster(t, 3)
	urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}

	const clients = 4
	var transports []*faultnet.Transport
	var cs []*Client
	var cregs []*obs.Registry
	for i := 0; i < clients; i++ {
		ft := faultnet.Wrap(nil, faultnet.Config{
			Seed:            int64(7000 + i),
			ConnErrorRate:   0.15,
			ServerErrorRate: 0.1,
			BurstLen:        2,
			Sleep:           func(time.Duration) {},
			// Ring refreshes are swallowed by the router (stale ring kept),
			// so faults there would break the one-fault-one-failover pin.
			Exempt: func(r *http.Request) bool {
				return strings.HasPrefix(r.URL.Path, cluster.PathRing)
			},
		})
		reg := obs.NewRegistry()
		c := NewClient(urls[i%len(urls)], fmt.Sprintf("pin-imei-%d", i), fmt.Sprintf("pin-%d@example.com", i),
			&http.Client{Transport: ft, Timeout: 5 * time.Second},
			WithCluster(urls),
			WithClientMetrics(reg),
			WithRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}))
		transports = append(transports, ft)
		cs = append(cs, c)
		cregs = append(cregs, reg)
		mustEventually(t, "register", c.Register)
	}
	for r := 0; r < 8; r++ {
		date := fmt.Sprintf("2014-06-%02d", 10+r)
		for i, c := range cs {
			uid := StableUserID(fmt.Sprintf("pin-imei-%d", i), fmt.Sprintf("pin-%d@example.com", i))
			mustEventually(t, "write", func() error { return c.SyncProfile(chaosProfile(uid, date)) })
			mustEventually(t, "read", func() error {
				_, err := c.ProfileRange(date, date)
				return err
			})
		}
	}

	totalFaults, totalFailovers, totalRedirects := 0, uint64(0), uint64(0)
	for i := range cs {
		st := transports[i].Stats()
		faults := st.ConnErrors + st.ServerError
		failovers := cregs[i].Counter("client_cluster_failovers_total").Value()
		totalFaults += faults
		totalFailovers += failovers
		totalRedirects += cregs[i].Counter("client_cluster_redirects_total").Value()
		if uint64(faults) != failovers {
			t.Errorf("client %d: %d injected faults (%d conn, %d 5xx) but %d failovers",
				i, faults, st.ConnErrors, st.ServerError, failovers)
		}
	}
	if totalFaults == 0 {
		t.Fatal("faultnet injected nothing; pin is vacuous")
	}
	// Failing over past the owner's follower lands on a peer that answers
	// 421, so redirects do occur on a stable ring — but every one the
	// clients observed must match a 421 some node issued, one to one.
	var misrouted uint64
	for _, n := range nodes {
		misrouted += n.reg.Counter("pci_cluster_misrouted_total").Value()
	}
	if totalRedirects != misrouted {
		t.Fatalf("clients saw %d redirects but nodes issued %d 421s", totalRedirects, misrouted)
	}
	t.Logf("pinned %d injected faults to %d failovers and %d redirects to %d 421s across %d clients",
		totalFaults, totalFailovers, totalRedirects, misrouted, clients)

	// Replication accounting under the same load: once every shipper
	// drains, batch-shipped and batch-applied record counts agree across
	// the cluster (initial resyncs shipped zero records: empty stores).
	deadline := time.Now().Add(10 * time.Second)
	for {
		lag := uint64(0)
		for _, n := range nodes {
			lag += n.cn.Lag()
		}
		if lag == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shippers never drained (lag %d)", lag)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var shipped, applied uint64
	for _, n := range nodes {
		shipped += n.reg.Counter("pci_repl_shipped_records_total").Value()
		applied += n.reg.Counter("pci_repl_applied_records_total").Value()
	}
	if shipped == 0 || shipped != applied {
		t.Fatalf("repl accounting: shipped %d != applied %d", shipped, applied)
	}
}

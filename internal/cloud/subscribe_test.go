package cloud

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/faultnet"
	"repro/internal/obs"
	"repro/internal/simclock"
)

// subscribeRetry is a generous no-sleep retry policy for chaos runs: the
// reconnect loop should survive long fault bursts without real backoff
// delays slowing the test down.
func subscribeRetry() RetryPolicy {
	p := DefaultRetryPolicy()
	p.MaxAttempts = 100
	return p.WithSleep(func(context.Context, time.Duration) error { return nil })
}

func TestClientSubscribeDelivers(t *testing.T) {
	reg := obs.NewRegistry()
	ss := newStreamServer(t, WithMetrics(reg))
	c := NewClient(ss.srv.URL, "imei-9", "tester@example.com", ss.srv.Client())
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	for i := 0; i < 5; i++ {
		ss.server.Hub().Publish(events.Event{Type: events.KindPlaceEntry, UserID: c.UserID(), Label: fmt.Sprintf("e%d", i)})
	}
	for i := 0; i < 5; i++ {
		select {
		case ev := <-sub.C:
			if ev.Seq != uint64(i+1) {
				t.Errorf("event %d: seq %d, want %d", i, ev.Seq, i+1)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for event %d", i)
		}
	}
	sub.Close()
	if err := sub.Err(); err != nil {
		t.Errorf("Err after clean Close = %v, want nil", err)
	}
	// The server notices the disconnect when its SSE handler returns,
	// shortly after the client side closed.
	gauge := reg.Gauge("pci_events_subscribers")
	for start := time.Now(); gauge.Value() != 0 && time.Since(start) < 10*time.Second; {
		time.Sleep(time.Millisecond)
	}
	if g := gauge.Value(); g != 0 {
		t.Errorf("subscribers gauge = %d after Close, want 0", g)
	}
}

// TestClientSubscribeBusBridge pins the PMS-side bridge: events delivered
// over the subscription are broadcast on the local core bus as the intents
// local detection would have produced.
func TestClientSubscribeBusBridge(t *testing.T) {
	ss := newStreamServer(t)
	c := NewClient(ss.srv.URL, "imei-9", "tester@example.com", ss.srv.Client())
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	bus := core.NewBus()
	got := make(chan core.Intent, 16)
	bus.Register("app", core.Filter{Actions: []string{core.ActionPlaceArrival, core.ActionPlaceDeparture}},
		func(in core.Intent) { got <- in })

	sub, err := c.Subscribe(context.Background(), WithEventBus(bus))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	ss.server.Hub().Publish(events.Event{
		Type: events.KindPlaceEntry, UserID: c.UserID(),
		At: simclock.Epoch, PlaceID: 3, Label: "office",
	})
	select {
	case in := <-got:
		if in.Action != core.ActionPlaceArrival {
			t.Errorf("bridged action = %q, want place arrival", in.Action)
		}
		if in.Place == nil || in.Place.ID != "p3" || in.Place.Label != "office" {
			t.Errorf("bridged place = %+v, want id p3 label office", in.Place)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no intent bridged to the bus")
	}
}

// TestClientSubscribeTokenRecovery pins the 401 path: a subscription opened
// with a stale token recovers it (refresh, falling back to registration)
// exactly like every other authenticated call, then streams normally.
func TestClientSubscribeTokenRecovery(t *testing.T) {
	ss := newStreamServer(t)
	c := NewClient(ss.srv.URL, "imei-9", "tester@example.com", ss.srv.Client(),
		WithRetryPolicy(subscribeRetry()))
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	uid := c.UserID()
	c.setToken("stale-token", "") // simulate server-side expiry

	sub, err := c.Subscribe(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// The subscription needs a beat to run through 401 -> recover ->
	// reconnect; publish until the event arrives.
	deadline := time.After(10 * time.Second)
	for {
		ss.server.Hub().Publish(events.Event{Type: events.KindPlaceEntry, UserID: uid})
		select {
		case <-sub.C:
			return
		case <-deadline:
			t.Fatal("no event after token recovery")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestClientSubscribeTerminalError pins the give-up path: against a server
// that refuses every connection, the subscription channel closes and Err
// reports the exhausted reconnect budget instead of spinning forever.
func TestClientSubscribeTerminalError(t *testing.T) {
	ss := newStreamServer(t)
	faults := faultnet.Wrap(ss.srv.Client().Transport, faultnet.Config{Seed: 1, ConnErrorRate: 1})
	c := NewClient(ss.srv.URL, "imei-9", "tester@example.com",
		&http.Client{Transport: faults},
		WithRetryPolicy(DefaultRetryPolicy().WithSleep(func(context.Context, time.Duration) error { return nil })))
	c.setToken("whatever", "u1") // Subscribe only needs a token installed

	sub, err := c.Subscribe(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-sub.C:
		if ok {
			t.Fatal("received an event through a 100% fault link")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscription did not give up")
	}
	if sub.Err() == nil {
		t.Error("Err = nil after reconnect budget exhausted")
	}
}

// TestClientSubscribeChaosExactlyOnce is the chaos leg: under injected
// connection faults and 5xx bursts on every (re)connect, plus genuine
// mid-stream slow-consumer evictions forced by burst publishing against a
// tiny server-side queue, the reconnecting subscriber receives every
// sequence number exactly once.
func TestClientSubscribeChaosExactlyOnce(t *testing.T) {
	const total = 400
	reg := obs.NewRegistry()
	ss := newStreamServer(t, WithEventQueue(4, 4096), WithEventHeartbeat(5*time.Millisecond), WithMetrics(reg))
	faults := faultnet.Wrap(ss.srv.Client().Transport, faultnet.Config{
		Seed:            2,
		ConnErrorRate:   0.35,
		ServerErrorRate: 0.15,
		BurstLen:        2,
		Exempt: func(r *http.Request) bool {
			// Keep the control plane reliable; only the event stream burns.
			return r.URL.Path != PathEventsSubscribe
		},
	})
	c := NewClient(ss.srv.URL, "imei-9", "tester@example.com",
		&http.Client{Transport: faults}, WithRetryPolicy(subscribeRetry()))
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	uid := c.UserID()

	sub, err := c.Subscribe(context.Background(), WithSubscribeBuffer(8))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	var mu sync.Mutex
	seen := map[uint64]int{}
	evictions := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sub.C {
			switch ev.Type {
			case events.KindEvicted:
				mu.Lock()
				evictions++
				mu.Unlock()
			case events.KindReset:
				t.Error("reset signalled: history ring was sized to hold the whole run")
				return
			default:
				// Deliberately slow consumer: sustained TCP backpressure is
				// what overflows the server-side queue and forces evictions.
				time.Sleep(time.Millisecond)
				mu.Lock()
				seen[ev.Seq]++
				n := len(seen)
				mu.Unlock()
				if n == total {
					return
				}
			}
		}
	}()

	// Publishing only matters once the SSE connection is attached — before
	// that, events just land in the replay ring and nothing can be evicted.
	subscribers := reg.Gauge("pci_events_subscribers")
	for start := time.Now(); subscribers.Value() == 0; {
		if time.Since(start) > 10*time.Second {
			t.Fatal("subscription never attached")
		}
		time.Sleep(time.Millisecond)
	}

	// Bursts of 50 against a 4-slot queue: the dispatch loop fans a burst
	// out at memory speed, far faster than the SSE writer can drain it, so
	// the subscriber is evicted mid-stream and the resume path runs
	// repeatedly under connect faults.
	pad := strings.Repeat("x", 4096)
	for i := 0; i < total; i++ {
		if !ss.server.Hub().Publish(events.Event{Type: events.KindPlaceEntry, UserID: uid, Label: fmt.Sprintf("e%d-%s", i, pad)}) {
			t.Fatalf("publish %d rejected", i)
		}
		if i%50 == 49 {
			time.Sleep(20 * time.Millisecond) // let the subscriber reattach
		}
	}

	select {
	case <-done:
	case <-time.After(60 * time.Second):
		mu.Lock()
		t.Fatalf("timed out: received %d/%d distinct seqs (%d evictions)", len(seen), total, evictions)
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("subscription failed mid-run: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	for seq := uint64(1); seq <= total; seq++ {
		if n := seen[seq]; n != 1 {
			t.Errorf("seq %d received %d times, want exactly once", seq, n)
		}
	}
	if len(seen) != total {
		t.Errorf("distinct seqs = %d, want %d", len(seen), total)
	}
	if evictions == 0 && faults.Stats().Faults() == 0 {
		t.Error("chaos never engaged: no evictions and no injected faults")
	}
	t.Logf("chaos run: %d evictions, faultnet stats %+v", evictions, faults.Stats())
}

package events

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simclock"
)

func testNow() func() time.Time {
	var mu sync.Mutex
	t := simclock.Epoch
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Millisecond)
		return t
	}
}

func publishN(t *testing.T, h *Hub, user string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !h.Publish(Event{Type: KindPlaceEntry, UserID: user}) {
			t.Fatalf("Publish %d rejected", i)
		}
	}
	h.Sync()
}

// drain reads everything currently queued without blocking on a live hub.
func drain(sub *Subscriber) []Event {
	var out []Event
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				return out
			}
			out = append(out, ev)
		default:
			return out
		}
	}
}

func TestHubDeliversInOrder(t *testing.T) {
	h := NewHub(Config{Now: testNow()})
	defer h.Close()
	sub := h.Subscribe("u1", 0)
	publishN(t, h, "u1", 10)
	got := drain(sub)
	if len(got) != 10 {
		t.Fatalf("delivered %d events, want 10", len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d: seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.PublishedUnixNano == 0 {
			t.Errorf("event %d: missing publish stamp", i)
		}
	}
	// Streams are per user: another user's subscriber sees nothing.
	other := h.Subscribe("u2", 0)
	h.Sync()
	if evs := drain(other); len(evs) != 0 {
		t.Errorf("cross-user leak: %d events", len(evs))
	}
}

// TestHubSlowConsumerEviction pins the backpressure policy deterministically:
// a subscriber that never reads survives exactly QueueCap queued events and
// is evicted by the QueueCap+1st, with the dropped and eviction counters
// moving by exactly one and the dispatch loop never blocking.
func TestHubSlowConsumerEviction(t *testing.T) {
	reg := obs.NewRegistry()
	const queueCap = 8
	h := NewHub(Config{QueueCap: queueCap, Registry: reg, Now: testNow()})
	defer h.Close()

	slow := h.Subscribe("u1", 0)
	fast := h.Subscribe("u1", 0)

	dropped := reg.Counter("pci_events_dropped_total")
	evictions := reg.Counter("pci_events_evictions_total")

	// Exactly QueueCap events fit; nobody is evicted yet.
	publishN(t, h, "u1", queueCap)
	if d := dropped.Value(); d != 0 {
		t.Fatalf("dropped after %d events = %d, want 0", queueCap, d)
	}
	if g := reg.Gauge("pci_events_subscribers").Value(); g != 2 {
		t.Fatalf("subscribers gauge = %d, want 2", g)
	}
	// Drain the fast consumer synchronously — a background goroutine might
	// never get scheduled between publishes on a single-CPU runner, and
	// this test is about the slow subscriber's queue, not the scheduler's.
	for i := 0; i < queueCap; i++ {
		<-fast.C
	}

	// The next event overflows the slow consumer's queue: evicted, exactly
	// one drop, and the publish itself still lands (fast consumer gets it).
	publishN(t, h, "u1", 1)
	if ev := <-fast.C; ev.Seq != queueCap+1 {
		t.Errorf("fast consumer got seq %d, want %d", ev.Seq, queueCap+1)
	}
	if d := dropped.Value(); d != 1 {
		t.Errorf("dropped = %d, want exactly 1", d)
	}
	if e := evictions.Value(); e != 1 {
		t.Errorf("evictions = %d, want exactly 1", e)
	}
	if g := reg.Gauge("pci_events_subscribers").Value(); g != 1 {
		t.Errorf("subscribers gauge = %d, want 1 after eviction", g)
	}

	// The evicted subscriber's channel closes after the queued backlog; the
	// QueueCap events already queued are still readable.
	got := 0
	for range slow.C {
		got++
	}
	if got != queueCap {
		t.Errorf("evicted subscriber read %d events, want %d", got, queueCap)
	}
	if !slow.Evicted() {
		t.Error("Evicted() = false after slow-consumer close")
	}

	// Eviction never blocked the dispatch loop: more publishes flow, and
	// the surviving subscriber receives every one (drained in lockstep so
	// its own queue never overflows).
	for i := 0; i < 100; i++ {
		publishN(t, h, "u1", 1)
		if ev := <-fast.C; ev.Seq != uint64(queueCap+2+i) {
			t.Fatalf("post-eviction event %d: seq %d, want %d", i, ev.Seq, queueCap+2+i)
		}
	}
	if p := reg.Counter("pci_events_published_total").Value(); p != uint64(queueCap+1+100) {
		t.Errorf("published = %d, want %d", p, queueCap+1+100)
	}
}

// TestHubResume pins Last-Event-ID resume: a subscriber reconnecting with
// the last seq it saw receives every later event exactly once, in order,
// with no gap signal while the replay ring still holds the tail.
func TestHubResume(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHub(Config{QueueCap: 4, History: 64, Registry: reg, Now: testNow()})
	defer h.Close()

	publishN(t, h, "u1", 10)
	sub := h.Subscribe("u1", 6)
	if sub.Gap {
		t.Fatal("unexpected gap: ring holds seq 1..10, resumed from 6")
	}
	got := drain(sub)
	want := []uint64{7, 8, 9, 10}
	if len(got) != len(want) {
		t.Fatalf("replayed %d events, want %d", len(got), len(want))
	}
	for i, ev := range got {
		if ev.Seq != want[i] {
			t.Errorf("replay[%d].Seq = %d, want %d", i, ev.Seq, want[i])
		}
	}
	// Replay larger than QueueCap must not insta-evict the subscriber.
	big := h.Subscribe("u1", 0)
	if evs := drain(big); len(evs) != 10 || big.Evicted() {
		t.Errorf("full replay: got %d events, evicted=%v; want 10, false", len(evs), big.Evicted())
	}
	if r := reg.Counter("pci_events_resumed_total").Value(); r != 1 {
		t.Errorf("resumed = %d, want 1", r)
	}
	if g := reg.Counter("pci_events_resume_gaps_total").Value(); g != 0 {
		t.Errorf("gaps = %d, want 0", g)
	}
}

// TestHubResumeGap pins the gap signal: asking for events the ring no longer
// holds flags Gap and replays what is still available, and a Last-Event-ID
// from a previous server incarnation (ahead of the stream) flags Gap too.
func TestHubResumeGap(t *testing.T) {
	reg := obs.NewRegistry()
	const history = 16
	h := NewHub(Config{History: history, Registry: reg, Now: testNow()})
	defer h.Close()

	publishN(t, h, "u1", 100) // ring holds 85..100
	sub := h.Subscribe("u1", 10)
	if !sub.Gap {
		t.Fatal("Gap = false resuming from seq 10 with ring at 85..100")
	}
	if sub.HeadSeq != 100 {
		t.Errorf("HeadSeq = %d, want 100", sub.HeadSeq)
	}
	got := drain(sub)
	if len(got) != history {
		t.Fatalf("replayed %d, want the full ring (%d)", len(got), history)
	}
	if got[0].Seq != 85 || got[len(got)-1].Seq != 100 {
		t.Errorf("replay spans %d..%d, want 85..100", got[0].Seq, got[len(got)-1].Seq)
	}

	ahead := h.Subscribe("u1", 500)
	if !ahead.Gap {
		t.Error("Gap = false for Last-Event-ID ahead of the stream")
	}
	if g := reg.Counter("pci_events_resume_gaps_total").Value(); g != 2 {
		t.Errorf("gaps = %d, want 2", g)
	}
}

// TestHubRingModel checks the replay ring against a reference model that
// keeps every published event: after each publish the ring holds exactly
// min(seq, History) slots, and for every Last-Event-ID from 0 to one past
// the head, Subscribe replays exactly what the model says — resume no
// earlier than seq-History+1, with Gap set when that cuts the request short
// or the ID is ahead of the stream.
func TestHubRingModel(t *testing.T) {
	const history = 8
	h := NewHub(Config{History: history, Now: testNow()})
	defer h.Close()

	var published []string // published[s-1] is the label of seq s
	for seq := uint64(1); seq <= 20; seq++ {
		label := fmt.Sprintf("e%d", seq)
		h.Publish(Event{Type: KindPlaceEntry, UserID: "u1", Label: label})
		h.Sync()
		published = append(published, label)
		// The dispatch loop is idle after Sync, so reading its state is safe.
		if got, want := len(h.users["u1"].ring), min(int(seq), history); got != want {
			t.Fatalf("after seq %d: ring holds %d slots, want %d", seq, got, want)
		}

		for lastSeq := uint64(0); lastSeq <= seq+1; lastSeq++ {
			var want []string
			wantGap := lastSeq > seq
			if !wantGap {
				from := lastSeq + 1
				if oldest := uint64(max(int(seq)-history+1, 1)); from < oldest {
					wantGap, from = true, oldest
				}
				want = published[from-1 : seq]
			}
			sub := h.Subscribe("u1", lastSeq)
			var got []string
			for _, ev := range drain(sub) {
				got = append(got, ev.Label)
			}
			sub.Close()
			if sub.Gap != wantGap || sub.HeadSeq != seq || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seq %d, Last-Event-ID %d: replay %v gap %v head %d, want %v gap %v head %d",
					seq, lastSeq, got, sub.Gap, sub.HeadSeq, want, wantGap, seq)
			}
		}
	}
}

// TestHubWedgedSubscriberNeverBlocksPublish pins the no-blocking guarantee
// with a subscriber that is never read at all: publishing far past its queue
// capacity completes promptly.
func TestHubWedgedSubscriberNeverBlocksPublish(t *testing.T) {
	h := NewHub(Config{QueueCap: 2, Now: testNow()})
	defer h.Close()
	_ = h.Subscribe("u1", 0) // wedged: never read
	done := make(chan struct{})
	go func() {
		publishN(t, h, "u1", 1000)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publish blocked on a wedged subscriber")
	}
}

// TestHubConcurrentStress runs N publishers x M subscribers under -race:
// sequences are assigned gaplessly, every subscriber observes a strictly
// increasing subsequence, and subscribers that keep up see the full stream.
func TestHubConcurrentStress(t *testing.T) {
	const (
		publishers  = 4
		perPub      = 200
		subscribers = 8
		total       = publishers * perPub
	)
	reg := obs.NewRegistry()
	// Queues sized for the whole run: keeping-up consumers must survive any
	// scheduling; a separate test covers eviction.
	h := NewHub(Config{QueueCap: total, Registry: reg, Now: testNow()})
	defer h.Close()

	var wg sync.WaitGroup
	seqs := make([][]uint64, subscribers)
	for i := 0; i < subscribers; i++ {
		sub := h.Subscribe("u1", 0)
		wg.Add(1)
		go func(i int, sub *Subscriber) {
			defer wg.Done()
			for ev := range sub.C {
				seqs[i] = append(seqs[i], ev.Seq)
				if len(seqs[i]) == total {
					sub.Close()
				}
			}
		}(i, sub)
	}
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				if !h.Publish(Event{Type: KindPlaceEntry, UserID: "u1", Label: fmt.Sprintf("p%d-%d", p, i)}) {
					t.Errorf("publisher %d: publish %d rejected", p, i)
					return
				}
			}
		}(p)
	}
	wg.Wait()

	if p := reg.Counter("pci_events_published_total").Value(); p != total {
		t.Fatalf("published = %d, want %d", p, total)
	}
	if d := reg.Counter("pci_events_dropped_total").Value(); d != 0 {
		t.Fatalf("dropped = %d, want 0 (queues sized for the whole run)", d)
	}
	for i, got := range seqs {
		if len(got) != total {
			t.Errorf("subscriber %d saw %d events, want %d", i, len(got), total)
			continue
		}
		for j, s := range got {
			if s != uint64(j+1) {
				t.Errorf("subscriber %d: seq[%d] = %d, want %d", i, j, s, j+1)
				break
			}
		}
	}
}

// TestHubCloseUnblocksEveryone pins shutdown: Close closes every subscriber
// stream, later Publish/Subscribe fail fast, and Close is idempotent.
func TestHubCloseUnblocksEveryone(t *testing.T) {
	h := NewHub(Config{Now: testNow()})
	sub := h.Subscribe("u1", 0)
	h.Close()
	h.Close() // idempotent
	if _, ok := <-sub.C; ok {
		// Drain whatever was queued; the channel must eventually close.
		for range sub.C {
		}
	}
	if sub.Evicted() {
		t.Error("shutdown close flagged as eviction")
	}
	if h.Publish(Event{UserID: "u1"}) {
		t.Error("Publish accepted after Close")
	}
	if s := h.Subscribe("u1", 0); s != nil {
		t.Error("Subscribe returned a subscriber after Close")
	}
	sub.Close() // safe after shutdown
}

package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestNextEpoch: a missing REPL_EPOCH starts at 1 and each call bumps it
// durably; a file that exists but does not parse — what a torn write leaves —
// is a boot error, never a silent restart at epoch 1, which a follower may
// already hold a cursor for.
func TestNextEpoch(t *testing.T) {
	dir := t.TempDir()
	for want := uint64(1); want <= 3; want++ {
		if got, err := NextEpoch(dir); err != nil || got != want {
			t.Fatalf("NextEpoch = %d, %v; want %d", got, err, want)
		}
	}
	path := filepath.Join(dir, "REPL_EPOCH")
	if b, _ := os.ReadFile(path); string(b) != "3" {
		t.Fatalf("REPL_EPOCH holds %q, want 3", b)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("%d files in the replication directory, want only REPL_EPOCH", len(ents))
	}
	for _, content := range []string{"", "garbage", "12x", "-4"} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := NextEpoch(dir); err == nil {
			t.Fatalf("REPL_EPOCH %q: NextEpoch = %d, want an error", content, got)
		}
		if b, _ := os.ReadFile(path); string(b) != content {
			t.Fatalf("REPL_EPOCH %q was overwritten with %q", content, b)
		}
	}
	if got, err := NextEpoch(""); err != nil || got != 1 {
		t.Fatalf("memory-only NextEpoch = %d, %v; want 1", got, err)
	}
}

// testFollower is the follower end of a Shipper under test: a real Receiver
// over a recording Applier, behind a front handler that announces every POST
// on arrival, can hold it open or fail it, and reports a second POST in
// flight.
type testFollower struct {
	t        *testing.T
	srv      *httptest.Server
	posts    chan seenPost // buffered past any test's POST count: a handler never waits for a test that is not looking
	exports  atomic.Int32  // Export calls the shipper made
	inflight atomic.Int32

	mu      sync.Mutex
	recv    *Receiver
	applied []string      // Rec of every record the Receiver applied, in order
	hold    chan struct{} // non-nil: an announced POST proceeds on one receive from it
	fail    bool          // answer 500 without reaching the Receiver
}

// seenPost is one replication POST as the follower saw it arrive.
type seenPost struct {
	path  string
	start uint64
	n     int
}

const testShards = 2

// newShipperPair starts a follower and a Shipper targeting it, and returns
// once the target's baseline resync is done and the shipper is semi-sync.
func newShipperPair(t *testing.T) (*testFollower, *Shipper) {
	t.Helper()
	f := &testFollower{t: t, posts: make(chan seenPost, 64)}
	f.restart()
	f.srv = httptest.NewServer(f)
	var s *Shipper
	s = NewShipper(ShipperConfig{
		Self: "A", Epoch: 1, HTTP: f.srv.Client(), DataShards: testShards,
		Export: func() ([]ShipRecord, uint64, error) {
			f.exports.Add(1)
			return []ShipRecord{{Rec: []byte("snapshot")}}, s.Seq(), nil
		},
		Metrics: obs.NewRegistry(), Logf: t.Logf,
	})
	t.Cleanup(func() {
		f.letPostsThrough()
		s.Close()
		f.srv.Close()
	})
	s.SetTarget(&Node{ID: "B", URL: f.srv.URL})
	f.expectPost(PathReplSync, 0, 1)
	awaitSemiSync(t, s)
	return f, s
}

// restart replaces the Receiver with one that has never met the primary, as
// an unclean follower restart does.
func (f *testFollower) restart() {
	recv, err := OpenReceiver(ReceiverConfig{
		Applier: f, DataShards: testShards, Metrics: obs.NewRegistry(), Logf: f.t.Logf,
	})
	if err != nil {
		f.t.Fatal(err)
	}
	f.mu.Lock()
	f.recv = recv
	f.mu.Unlock()
}

func (f *testFollower) ApplyShippedBatch(recs []ShipRecord) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range recs {
		f.applied = append(f.applied, string(r.Rec))
	}
	return nil
}

func (f *testFollower) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if n := f.inflight.Add(1); n > 1 {
		f.t.Errorf("%d POSTs in flight, want one at a time", n)
	}
	defer f.inflight.Add(-1)
	body, _ := io.ReadAll(r.Body)
	b, err := DecodeBatchBinary(body)
	if err != nil {
		f.t.Errorf("POST %s: %v", r.URL.Path, err)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(b.Records) > shipMaxBatch {
		f.t.Errorf("POST carries %d records, over shipMaxBatch", len(b.Records))
	}
	// Read hold before announcing: a test that has seen the POST arrive may
	// change it for the next one.
	f.mu.Lock()
	hold, recv := f.hold, f.recv
	f.mu.Unlock()
	f.posts <- seenPost{r.URL.Path, b.Start, len(b.Records)}
	if hold != nil {
		<-hold
	}
	f.mu.Lock()
	fail := f.fail
	f.mu.Unlock()
	if fail {
		http.Error(w, "follower down", http.StatusInternalServerError)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	if r.URL.Path == PathReplSync {
		recv.HandleSync(w, r)
	} else {
		recv.HandleBatch(w, r)
	}
}

// holdPosts makes every later POST wait, once announced, for a releaseOne.
func (f *testFollower) holdPosts() {
	f.mu.Lock()
	f.hold = make(chan struct{})
	f.mu.Unlock()
}

func (f *testFollower) releaseOne() {
	f.mu.Lock()
	hold := f.hold
	f.mu.Unlock()
	hold <- struct{}{}
}

// letPostsThrough releases every held POST and stops holding new ones.
func (f *testFollower) letPostsThrough() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.hold != nil {
		close(f.hold)
		f.hold = nil
	}
}

func (f *testFollower) expectPost(path string, start uint64, n int) {
	f.t.Helper()
	want := seenPost{path, start, n}
	select {
	case got := <-f.posts:
		if got != want {
			f.t.Fatalf("follower saw POST %+v, want %+v", got, want)
		}
	case <-time.After(5 * time.Second):
		f.t.Fatalf("no POST in 5s, want %+v", want)
	}
}

func (f *testFollower) appliedRecs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.applied...)
}

// awaitSemiSync returns once the shipper is not degraded: from then on wait
// blocks for the follower's ack. Nothing announces that transition, so this
// polls.
func awaitSemiSync(t *testing.T, s *Shipper) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		degraded := s.degrade
		s.mu.Unlock()
		if !degraded {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("shipper still degraded after 5s")
		}
	}
}

// waiting calls s.Wait(tok) on its own goroutine; the channel closes when it
// returns.
func waiting(s *Shipper, tok uint64) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		s.Wait(tok)
		close(done)
	}()
	return done
}

func expectReturn(t *testing.T, done <-chan struct{}, after string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("wait still blocked 5s after %s", after)
	}
}

func expectBlocked(t *testing.T, done <-chan struct{}, when string) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("wait returned %s", when)
	default:
	}
}

// TestShipperBatchesByPostInFlight pins what sizes a batch now that no timer
// does: records enqueued while a POST is open all ride the next one, in
// enqueue order, each POST starting where the last ack ended, one POST at a
// time and never more than shipMaxBatch records in one.
func TestShipperBatchesByPostInFlight(t *testing.T) {
	f, s := newShipperPair(t)
	f.holdPosts()
	const burst, callers = 300, 8
	want := make([]string, 1+burst+1) // by sequence number; [0] is the baseline snapshot
	want[0] = "snapshot"
	enqueue := func(rec string) {
		want[s.Enqueue(0, []byte(rec))] = rec
	}
	enqueue("first")
	f.expectPost(PathReplBatch, 1, 1)

	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < burst; i += callers {
				enqueue(fmt.Sprintf("caller %d record %d", g, i))
			}
		}(g)
	}
	wg.Wait()
	f.releaseOne()
	f.expectPost(PathReplBatch, 2, shipMaxBatch)
	f.releaseOne()
	f.expectPost(PathReplBatch, 2+shipMaxBatch, burst-shipMaxBatch)
	f.releaseOne()
	s.Wait(1 + burst)
	if got := f.appliedRecs(); !slices.Equal(got, want) {
		t.Fatalf("follower applied %d records, want the %d enqueued in sequence order\n got %q\nwant %q", len(got), len(want), got, want)
	}
	if s.Lag() != 0 {
		t.Fatalf("lag %d after the last ack, want 0", s.Lag())
	}
}

// TestShipperWait pins the semi-sync contract: Wait(tok) blocks until the
// follower's ack covers tok, and stops blocking when the ack cannot be had —
// shipDegradeAfter failed POSTs, no follower any more, or shutdown.
func TestShipperWait(t *testing.T) {
	// Each case starts with record 1 in a held POST and a blocked Wait(1).
	for name, unblock := range map[string]func(*testing.T, *testFollower, *Shipper, <-chan struct{}){
		"follower acks": func(t *testing.T, f *testFollower, s *Shipper, done <-chan struct{}) {
			f.releaseOne()
			expectReturn(t, done, "the ack")
			if s.Lag() != 0 {
				t.Fatalf("wait returned with lag %d", s.Lag())
			}
		},
		"POSTs fail": func(t *testing.T, f *testFollower, s *Shipper, done <-chan struct{}) {
			f.mu.Lock()
			f.fail = true
			f.mu.Unlock()
			for i := 1; i < shipDegradeAfter; i++ {
				f.releaseOne()
				f.expectPost(PathReplBatch, 1, 1)
				expectBlocked(t, done, fmt.Sprintf("after %d failed POSTs, want %d", i, shipDegradeAfter))
			}
			f.releaseOne()
			expectReturn(t, done, fmt.Sprintf("%d failed POSTs", shipDegradeAfter))
		},
		"SetTarget(nil)": func(t *testing.T, f *testFollower, s *Shipper, done <-chan struct{}) {
			s.SetTarget(nil)
			expectReturn(t, done, "SetTarget(nil)")
		},
		"Close": func(t *testing.T, f *testFollower, s *Shipper, done <-chan struct{}) {
			closed := make(chan struct{})
			go func() {
				s.Close()
				close(closed)
			}()
			expectReturn(t, done, "Close")
			f.letPostsThrough()
			<-closed
		},
	} {
		t.Run(name, func(t *testing.T) {
			f, s := newShipperPair(t)
			f.holdPosts()
			tok := s.Enqueue(0, []byte("rec"))
			f.expectPost(PathReplBatch, 1, 1)
			done := waiting(s, tok)
			expectBlocked(t, done, "while the POST carrying its record was still open")
			unblock(t, f, s, done)
		})
	}
}

// TestShipperResyncOnDemand: a follower that cannot continue the stream (here
// it restarted and lost its cursor) answers Resync, and gets exactly one
// Export in one PathReplSync; the stream resumes at the record after the
// baseline.
func TestShipperResyncOnDemand(t *testing.T) {
	f, s := newShipperPair(t)
	s.Wait(s.Enqueue(0, []byte("a")))
	f.expectPost(PathReplBatch, 1, 1)

	f.restart()
	s.Enqueue(1, []byte("b"))
	f.expectPost(PathReplBatch, 2, 1) // answered Resync
	f.expectPost(PathReplSync, 2, 1)  // the baseline covers b
	s.Enqueue(0, []byte("c"))
	f.expectPost(PathReplBatch, 3, 1)
	awaitSemiSync(t, s)
	s.Wait(3)

	if got := f.exports.Load(); got != 2 {
		t.Fatalf("%d Exports, want 2 (the target's baseline and the demanded resync)", got)
	}
	if got, want := f.appliedRecs(), []string{"snapshot", "a", "snapshot", "c"}; !slices.Equal(got, want) {
		t.Fatalf("follower applied %q, want %q", got, want)
	}
	select {
	case p := <-f.posts:
		t.Fatalf("unexpected extra POST %+v", p)
	default:
	}
}

// TestShipperQueueOverflowDropsToResync: with the follower stalled the buffer
// stops at shipMaxQueue records — it is dropped, writers stop waiting, and the
// follower is re-baselined by one resync when it answers again.
func TestShipperQueueOverflowDropsToResync(t *testing.T) {
	f, s := newShipperPair(t)
	f.holdPosts()
	rec := []byte("rec")
	s.Enqueue(0, rec)
	f.expectPost(PathReplBatch, 1, 1) // stalls; record 1 stays buffered
	for i := 1; i < shipMaxQueue; i++ {
		s.Enqueue(0, rec)
	}
	s.mu.Lock()
	full := len(s.buf)
	s.mu.Unlock()
	tok := s.Enqueue(0, rec) // one past the cap
	s.mu.Lock()
	buffered, resync := len(s.buf), s.resync
	s.mu.Unlock()
	if full != shipMaxQueue || buffered != 0 || !resync {
		t.Fatalf("buffer %d then %d records, resync %v; want %d then dropped to 0 with a resync armed", full, buffered, resync, shipMaxQueue)
	}
	expectReturn(t, waiting(s, tok), "the buffer was dropped")

	f.letPostsThrough()
	f.expectPost(PathReplSync, tok, 1)
	s.Enqueue(0, rec)
	f.expectPost(PathReplBatch, tok+1, 1)
	awaitSemiSync(t, s)
	// degrade can clear before the shipper has taken in the follower's ack
	// of that last batch: wait for it before reading the lag.
	expectReturn(t, waiting(s, tok+1), "the follower acked the last batch")
	if got := f.exports.Load(); got != 2 || s.Lag() != 0 {
		t.Fatalf("%d Exports and lag %d after the follower answered, want 2 and 0", got, s.Lag())
	}
}

package cloud

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/world"
)

// The WAL-shipping equivalence suite: records journaled on a primary are
// shipped verbatim and journaled on the follower, so after catch-up the two
// store directories hold byte-identical shard state — through a clean
// follower restart and a torn garbage tail on the follower's WAL.

// replFollower is the follower half of the fixture: a durable store, the
// receiver applying the stream into it, and an httptest server exposing the
// replication endpoints. The server outlives receiver restarts; while the
// receiver is down it answers 503 (exactly what a rebooting node looks like
// to its primary).
type replFollower struct {
	t      *testing.T
	dir    string
	shards int

	mu       sync.Mutex
	store    *Store
	recv     *cluster.Receiver
	syncBody int64 // Content-Length of the last PathReplSync POST

	ts *httptest.Server
}

func newReplFollower(t *testing.T, shards int) *replFollower {
	t.Helper()
	f := &replFollower{t: t, dir: t.TempDir(), shards: shards}
	mux := http.NewServeMux()
	route := func(path string, h func(*cluster.Receiver) http.HandlerFunc) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			f.mu.Lock()
			recv := f.recv
			if r.URL.Path == cluster.PathReplSync {
				f.syncBody = r.ContentLength
			}
			f.mu.Unlock()
			if recv == nil {
				http.Error(w, "follower down", http.StatusServiceUnavailable)
				return
			}
			h(recv)(w, r)
		})
	}
	route("POST "+cluster.PathReplBatch, func(r *cluster.Receiver) http.HandlerFunc { return r.HandleBatch })
	route("POST "+cluster.PathReplSync, func(r *cluster.Receiver) http.HandlerFunc { return r.HandleSync })
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	f.open()
	return f
}

func (f *replFollower) storeDir() string { return filepath.Join(f.dir, "store") }
func (f *replFollower) replDir() string  { return filepath.Join(f.dir, "repl") }

func (f *replFollower) open() {
	f.t.Helper()
	store, err := newStore(f.storeDir(), StoreConfig{Shards: f.shards, StableIDs: true})
	if err != nil {
		f.t.Fatalf("open follower store: %v", err)
	}
	d, err := plannedShards(f.storeDir(), StoreConfig{Shards: f.shards})
	if err != nil {
		f.t.Fatalf("follower shards: %v", err)
	}
	recv, err := cluster.OpenReceiver(cluster.ReceiverConfig{
		Applier:    store,
		Dir:        f.replDir(),
		DataShards: d,
		Metrics:    obs.NewRegistry(),
		Logf:       f.t.Logf,
	})
	if err != nil {
		store.Close()
		f.t.Fatalf("open receiver: %v", err)
	}
	f.mu.Lock()
	f.store, f.recv = store, recv
	f.mu.Unlock()
}

// close shuts the follower down cleanly (cursors exact).
func (f *replFollower) close() {
	f.t.Helper()
	f.mu.Lock()
	store, recv := f.store, f.recv
	f.store, f.recv = nil, nil
	f.mu.Unlock()
	if recv != nil {
		if err := recv.Close(); err != nil {
			f.t.Fatalf("close receiver: %v", err)
		}
	}
	if store != nil {
		if err := store.Close(); err != nil {
			f.t.Fatalf("close follower store: %v", err)
		}
	}
}

func (f *replFollower) cursor(from string) (uint64, uint64) {
	f.mu.Lock()
	recv := f.recv
	f.mu.Unlock()
	if recv == nil {
		return 0, 0
	}
	return recv.Cursor(from)
}

// newReplPrimary opens a durable primary whose engines ship through a
// shipper pointed at the follower. Export cuts a full wholesale snapshot
// under the write gate (every user: a single test node owns the whole ring).
func newReplPrimary(t *testing.T, shards int, follower *replFollower) (*Store, *cluster.Shipper, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	var (
		store *Store
		ship  *cluster.Shipper
	)
	d, err := plannedShards(dir, StoreConfig{Shards: shards})
	if err != nil {
		t.Fatalf("primary shards: %v", err)
	}
	ship = cluster.NewShipper(cluster.ShipperConfig{
		Self:       "A",
		Epoch:      1,
		DataShards: d,
		Export: func() ([]cluster.ShipRecord, uint64, error) {
			store.gate.Lock()
			defer store.gate.Unlock()
			baseline := ship.Seq()
			recs, err := store.exportUsersLocked(func(string) bool { return true })
			return recs, baseline, err
		},
		Metrics: obs.NewRegistry(),
		Logf:    t.Logf,
	})
	store, err = newStore(dir, StoreConfig{
		Shards:    shards,
		StableIDs: true,
		Repl:      ship,
	})
	if err != nil {
		ship.Close()
		t.Fatalf("open primary store: %v", err)
	}
	return store, ship, dir
}

func waitCaughtUp(t *testing.T, ship *cluster.Shipper, f *replFollower) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, seq := f.cursor("A"); seq == ship.Seq() && ship.Lag() == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, seq := f.cursor("A")
	t.Fatalf("follower never caught up: primary seq %d, follower cursor %d, lag %d", ship.Seq(), seq, ship.Lag())
}

// seqSuffix normalizes rotation-sequenced file names (snapshot-42.snap,
// wal-42.log) so directories compacted a different number of times still
// compare: the follower restarts mid-test and compacts once more than the
// primary, shifting its rotation counters without changing the state.
var seqSuffix = regexp.MustCompile(`(snapshot|wal)-[0-9]+`)

// compareStoreDirs asserts the two store directories hold byte-identical
// state: same normalized file set, same bytes per file.
func compareStoreDirs(t *testing.T, dirA, dirB string) {
	t.Helper()
	collect := func(root string) map[string]string {
		files := map[string]string{}
		err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			norm := seqSuffix.ReplaceAllString(rel, "-N")
			if prev, dup := files[norm]; dup {
				t.Fatalf("%s: %s and %s normalize to the same name", root, prev, rel)
			}
			files[norm] = rel
			return nil
		})
		if err != nil {
			t.Fatalf("walk %s: %v", root, err)
		}
		return files
	}
	a, b := collect(dirA), collect(dirB)
	var names []string
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	for n := range b {
		if _, ok := a[n]; !ok {
			t.Errorf("follower has extra file %s", b[n])
		}
	}
	for _, n := range names {
		relB, ok := b[n]
		if !ok {
			t.Errorf("follower missing file %s", a[n])
			continue
		}
		ba, err := os.ReadFile(filepath.Join(dirA, a[n]))
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(filepath.Join(dirB, relB))
		if err != nil {
			t.Fatal(err)
		}
		if string(ba) != string(bb) {
			t.Errorf("%s differs between primary (%s, %d bytes) and follower (%s, %d bytes)",
				n, a[n], len(ba), relB, len(bb))
		}
	}
}

func testObs(n int) []trace.GSMObservation {
	base := time.Date(2014, 3, 1, 8, 0, 0, 0, time.UTC)
	out := make([]trace.GSMObservation, n)
	for i := range out {
		out[i] = trace.GSMObservation{
			At:        base.Add(time.Duration(i) * 30 * time.Second),
			Cell:      world.CellID{MCC: 262, MNC: 1, LAC: 1, CID: 100 + i%7},
			SignalDBM: -60 - float64(i%20),
		}
	}
	return out
}

func writeWorkload(t *testing.T, s *Store, users, round int) {
	t.Helper()
	for i := 0; i < users; i++ {
		imei := fmt.Sprintf("imei-%03d", i)
		email := fmt.Sprintf("u%d@example.com", i)
		reg, err := s.Register(imei, email)
		if err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
		uid := reg.UserID
		if want := StableUserID(imei, email); uid != want {
			t.Fatalf("register %d: got id %s, want stable id %s", i, uid, want)
		}
		date := fmt.Sprintf("2014-03-%02d", 10+round)
		if err := s.PutProfile(uid, &profile.DayProfile{UserID: uid, Date: date}); err != nil {
			t.Fatalf("profile %d: %v", i, err)
		}
		if err := s.SetPlaces(uid, []PlaceWire{{ID: round*100 + i, Label: fmt.Sprintf("p%d", round)}}); err != nil {
			t.Fatalf("places %d: %v", i, err)
		}
		if _, _, err := s.SyncTrace(uid, false, 0, 0, testObs(5+round)); err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
		if err := s.AddContacts(uid, []profile.Encounter{{
			ContactID: fmt.Sprintf("c-%d-%d", round, i),
			Start:     time.Date(2014, 3, 10+round, 9, 0, 0, 0, time.UTC),
			End:       time.Date(2014, 3, 10+round, 10, 0, 0, 0, time.UTC),
		}}); err != nil {
			t.Fatalf("contacts %d: %v", i, err)
		}
	}
}

// TestReplShippingByteEquivalence pins the core replication claim: the
// follower's on-disk shards are byte-identical to the primary's after
// catch-up — including across a clean follower restart and a torn garbage
// tail appended to a follower WAL while it was down.
func TestReplShippingByteEquivalence(t *testing.T) {
	const shards = 2
	follower := newReplFollower(t, shards)
	primary, ship, primaryDir := newReplPrimary(t, shards, follower)

	// Arm the stream while the primary is empty: the initial resync ships
	// zero records at baseline 0, so every subsequent record reaches the
	// follower verbatim from sequence 1 — the WALs evolve identically.
	ship.SetTarget(&cluster.Node{ID: "B", URL: follower.ts.URL})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if epoch, _ := follower.cursor("A"); epoch == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("initial resync never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Leg 1: plain catch-up.
	writeWorkload(t, primary, 6, 0)
	waitCaughtUp(t, ship, follower)

	// Leg 2: clean follower restart, with garbage appended to one of its
	// WAL files while it is down (a torn tail from a crashed writer).
	// Recovery truncates the garbage, the persisted cursor is exact, and
	// the stream resumes contiguously.
	follower.close()
	wals, err := filepath.Glob(filepath.Join(follower.storeDir(), "*", "wal-*.log"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no follower WAL files found: %v (%d)", err, len(wals))
	}
	wf, err := os.OpenFile(wals[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Write([]byte("\x99torn-garbage-tail\x00\x01")); err != nil {
		t.Fatal(err)
	}
	wf.Close()
	follower.open()

	// Leg 3: more writes after the restart, then final catch-up.
	writeWorkload(t, primary, 6, 1)
	waitCaughtUp(t, ship, follower)

	// Close both sides: each compacts its shards, leaving snapshots whose
	// bytes depend only on the state (encoding/json orders map keys).
	ship.Close()
	if err := primary.Close(); err != nil {
		t.Fatalf("close primary: %v", err)
	}
	follower.close()

	compareStoreDirs(t, primaryDir, follower.storeDir())
}

// TestReplEpochMismatchForcesResync pins the restart rule: a primary that
// comes back with a higher epoch cannot resume its old cursor — the
// follower demands a resync and the stream re-baselines.
func TestReplEpochMismatchForcesResync(t *testing.T) {
	const shards = 2
	follower := newReplFollower(t, shards)
	primary, ship, primaryDir := newReplPrimary(t, shards, follower)

	ship.SetTarget(&cluster.Node{ID: "B", URL: follower.ts.URL})
	writeWorkload(t, primary, 3, 0)
	waitCaughtUp(t, ship, follower)
	ship.Close()

	// "Restart" the primary's stream at epoch 2 over the same store.
	var ship2 *cluster.Shipper
	d, _ := plannedShards(primaryDir, StoreConfig{Shards: shards})
	ship2 = cluster.NewShipper(cluster.ShipperConfig{
		Self:       "A",
		Epoch:      2,
		DataShards: d,
		Export: func() ([]cluster.ShipRecord, uint64, error) {
			primary.gate.Lock()
			defer primary.gate.Unlock()
			baseline := ship2.Seq()
			recs, err := primary.exportUsersLocked(func(string) bool { return true })
			return recs, baseline, err
		},
		Metrics: obs.NewRegistry(),
		Logf:    t.Logf,
	})
	defer ship2.Close()
	ship2.SetTarget(&cluster.Node{ID: "B", URL: follower.ts.URL})

	deadline := time.Now().Add(10 * time.Second)
	for {
		if epoch, _ := follower.cursor("A"); epoch == 2 {
			break
		}
		if time.Now().After(deadline) {
			epoch, seq := follower.cursor("A")
			t.Fatalf("follower never re-baselined to epoch 2 (at epoch %d seq %d)", epoch, seq)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The resynced follower must hold every user wholesale.
	fstore := follower.store
	if got, want := fstore.UserCount(), primary.UserCount(); got != want {
		t.Fatalf("after resync follower has %d users, primary %d", got, want)
	}
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	follower.close()
}

// TestReplResyncBinaryBody pins what the resync — the largest node-to-node
// message — costs on the wire: a user with a ≥1 MB trace (64 000 observations
// at ~18 B each in the record codec) resyncs in a body within 5 % of the
// records it carries, and the resynced follower ends byte-identical to the
// primary. JSON on the sync endpoint is 415 and applies nothing.
func TestReplResyncBinaryBody(t *testing.T) {
	const shards = 2
	follower := newReplFollower(t, shards)
	primary, ship, primaryDir := newReplPrimary(t, shards, follower)

	reg, err := primary.Register("imei-big", "big@example.com")
	if err != nil {
		t.Fatal(err)
	}
	uid := reg.UserID
	if _, _, err := primary.SyncTrace(uid, false, 0, 0, testObs(64000)); err != nil {
		t.Fatal(err)
	}
	if err := primary.PutProfile(uid, &profile.DayProfile{UserID: uid, Date: "2014-03-10"}); err != nil {
		t.Fatal(err)
	}
	primary.gate.Lock()
	recs, err := primary.exportUsersLocked(func(string) bool { return true })
	primary.gate.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	var payload int64
	for _, r := range recs {
		payload += int64(len(r.Rec))
	}
	if payload < 1<<20 {
		t.Fatalf("export is %d bytes, the test wants at least 1 MB", payload)
	}

	resp, err := http.Post(follower.ts.URL+cluster.PathReplSync, "application/json", strings.NewReader(`{"From":"A","Epoch":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if epoch, _ := follower.cursor("A"); resp.StatusCode != http.StatusUnsupportedMediaType || epoch != 0 {
		t.Fatalf("JSON resync: status %d, cursor epoch %d; want 415 and nothing applied", resp.StatusCode, epoch)
	}

	ship.SetTarget(&cluster.Node{ID: "B", URL: follower.ts.URL})
	waitCaughtUp(t, ship, follower)
	if epoch, _ := follower.cursor("A"); epoch != 1 {
		t.Fatalf("follower cursor epoch %d after resync, want 1", epoch)
	}
	follower.mu.Lock()
	body := follower.syncBody
	follower.mu.Unlock()
	if body < payload || float64(body) > 1.05*float64(payload) {
		t.Fatalf("resync body %d bytes for %d record bytes (%.3fx), want within 1.00–1.05x", body, payload, float64(body)/float64(payload))
	}

	ship.Close()
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	follower.close()
	compareStoreDirs(t, primaryDir, follower.storeDir())
}

package cloud

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/storage"
)

// This file is the node side of the horizontal PCI cluster (DESIGN.md §15):
// the glue between the cloud Store and internal/cluster's ring, shipper and
// receiver. A ClusterNode owns one node's view of the ring, ships the
// store's WAL to its follower, applies the stream it follows, gates every
// client request on ring ownership, and moves users on topology changes.

// StableUserID derives the cluster user ID from the device identity: FNV-64a
// of the registration device key. Every node — and the client itself —
// computes the same ID for a device without coordination, which is what
// makes client-side ring routing possible before the first request.
func StableUserID(imei, email string) string {
	h := fnv.New64a()
	h.Write([]byte(deviceKey(imei, email)))
	return fmt.Sprintf("u%016x", h.Sum64())
}

// checkShard rejects a shipped record's shard outside this store's layout.
func (s *Store) checkShard(shard int) error {
	if n := s.eng.NumShards(); shard < 0 || shard >= n {
		return fmt.Errorf("cloud: record for shard %d of %d", shard, n)
	}
	return nil
}

// ApplyShippedBatch applies and journals a contiguous run of replicated
// records verbatim (cluster.Applier), grouped per shard so each shard pays
// one group-commit wait for the whole run instead of one per record: a
// shard's group is applied and enqueued under one lock hold and acknowledged
// by one commit of its last LSN (storage.Engine.ApplyShipped). Stream order
// is preserved within each shard, and per-shard WALs are the only place
// replication order exists. Shipped records bypass the write gate: they
// never enqueue on this node's own stream, and they only touch users owned
// by the sending primary — disjoint from any export this node cuts. When the
// call returns, every record is in this node's state, so a promoted follower
// serves and exports replicated users with no catch-up step.
func (s *Store) ApplyShippedBatch(recs []cluster.ShipRecord) error {
	groups := map[int][][]byte{}
	var order []int
	for _, rec := range recs {
		if err := s.checkShard(rec.Shard); err != nil {
			return err
		}
		if _, ok := groups[rec.Shard]; !ok {
			order = append(order, rec.Shard)
		}
		groups[rec.Shard] = append(groups[rec.Shard], rec.Rec)
	}
	for _, shard := range order {
		if err := s.eng.ApplyShipped(shard, groups[shard]); err != nil {
			return err
		}
	}
	return nil
}

// applyImported journals a handoff's records through the full primary
// mutation path (cluster.ReceiverConfig.Import): unlike ApplyShippedBatch it
// ships onward to this node's own follower, because an imported user is now
// this node's to replicate.
func (s *Store) applyImported(recs []cluster.ShipRecord) error {
	s.gate.RLock()
	defer s.gate.RUnlock()
	for i, rec := range recs {
		err := s.checkShard(rec.Shard)
		if err == nil {
			err = s.eng.ApplyRecord(rec.Shard, rec.Rec)
		}
		if err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	return nil
}

// userIDs returns every registered user ID.
func (s *Store) userIDs() []string {
	var ids []string
	s.eng.View(0, func() {
		ids = make([]string, 0, len(s.meta.users))
		for id := range s.meta.users {
			ids = append(ids, id)
		}
	})
	sort.Strings(ids)
	return ids
}

// exportUsersLocked builds the wholesale per-user record stream for every
// user matching own: a register record, a sync_user replacement of the
// user's mobility data, and a trace replace (or drop, so a follower's stale
// copy cannot outlive the primary's deletion). The caller must hold the
// write gate exclusively — the per-shard View locks below only protect the
// map reads against concurrent shipped applies, not the snapshot/stream
// consistency the gate provides.
func (s *Store) exportUsersLocked(own func(uid string) bool) ([]cluster.ShipRecord, error) {
	var users []User
	s.eng.View(0, func() {
		for id, u := range s.meta.users {
			if own(id) {
				users = append(users, *u)
			}
		}
	})
	sort.Slice(users, func(i, j int) bool { return users[i].ID < users[j].ID })

	// The receiver journals these bytes verbatim, and its WAL (and the batch
	// decoder before it) refuses a record over the engine's bound: a user
	// that large fails here, by name, instead of as a resync that never lands.
	var recs []cluster.ShipRecord
	var err error
	add := func(shard int, uid string, b []byte) {
		if len(b) > storage.MaxRecordSize && err == nil {
			err = fmt.Errorf("cloud: user %s exports a %d-byte %v record, over storage.MaxRecordSize", uid, len(b), op(b[0]))
		}
		recs = append(recs, cluster.ShipRecord{Shard: shard, Rec: b})
	}
	for _, u := range users {
		uid := u.ID
		add(0, uid, encodeRecord(&record{Op: opRegister, UserID: uid, IMEI: u.IMEI, Email: u.Email}))
		idx, d := s.dataFor(uid)
		s.eng.View(idx, func() {
			add(idx, uid, encodeRecord(syncUserRecord(uid, d.places[uid], d.routes[uid], d.profiles[uid], d.contacts[uid])))
		})
		tidx, t := s.traceFor(uid)
		s.eng.View(tidx, func() {
			if ut := t.users[uid]; ut != nil {
				// The resident blocks are the record's body: copied, not re-encoded.
				add(tidx, uid, appendTraceReplace(nil, uid, ut.n, ut.blocks))
			} else {
				add(tidx, uid, encodeRecord(&record{Op: opTraceDrop, UserID: uid}))
			}
		})
	}
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// dropUsersLocked removes the named users from this node after a handoff.
// The caller must hold the write gate exclusively — the drop is the second
// half of the export-then-drop pair, and only the gate makes the pair
// atomic against writes (a write landing between the export snapshot and
// the drop would be acknowledged and then deleted). Each drop is applied and
// journaled before the handoff acks, but deliberately NOT shipped
// (storage.Engine.ApplyShipped, one record at a time): this node's follower
// may be the very node that just imported the users as their new primary,
// and a shipped drop would delete its primary copy. The follower's replica
// copy goes stale instead — harmless, because serving is ring-gated, and
// the next full resync rebuilds only owned users anyway. Meta goes last so
// a crash mid-drop leaves the user discoverable.
func (s *Store) dropUsersLocked(uids []string) error {
	for _, uid := range uids {
		drop := func(shard int, o op) error {
			return s.eng.ApplyShipped(shard, [][]byte{encodeRecord(&record{Op: o, UserID: uid})})
		}
		if err := drop(s.dataShard(uid), opDropUser); err != nil {
			return err
		}
		if err := drop(s.traceShard(uid), opTraceDrop); err != nil {
			return err
		}
		if err := drop(0, opDropMeta); err != nil {
			return err
		}
	}
	// Tombstone the dropped users: a writer that was parked on the gate
	// during this drop re-checks ownership when it resumes and is refused
	// (ErrNotOwner) instead of re-creating state no reader is routed to.
	s.markMoved(uids)
	return nil
}

// ClusterNodeConfig configures one PCI cluster node.
type ClusterNodeConfig struct {
	// Self identifies this node in the ring (ID and advertised URL).
	Self cluster.Node
	// Peers is the initial membership, including Self (ring version 1; the
	// coordinator pushes every later version).
	Peers []cluster.Node
	// ReplDir persists the stream epoch and replication cursors ("" =
	// memory-only: every restart full-resyncs).
	ReplDir string
	// HTTP issues replication, proxy, and handoff requests.
	HTTP *http.Client
	// Metrics receives the pci_repl_* and pci_cluster_* families.
	Metrics *obs.Registry
	Logf    func(format string, args ...any)
}

// ClusterNode ties one Store into the cluster: it owns the node's ring
// view, the WAL shipper to its follower, and the receiver for the stream it
// follows, and it implements the ownership gate and topology-change moves.
type ClusterNode struct {
	cfg   ClusterNodeConfig
	store *Store
	ship  *cluster.Shipper
	recv  *cluster.Receiver
	httpc *http.Client
	logf  func(format string, args ...any)

	mu   sync.Mutex
	ring *cluster.Ring

	proxied   *obs.Counter // pci_cluster_proxied_total
	misrouted *obs.Counter // pci_cluster_misrouted_total
	handoffs  *obs.Counter // pci_cluster_handoff_users_total
	ringVer   *obs.Gauge   // pci_cluster_ring_version
}

// ErrStaleRing reports a pushed ring whose version does not exceed the one
// the node already holds.
var ErrStaleRing = errors.New("cloud: stale ring version")

// ErrNotOwner reports a store mutation for a user this node does not own
// under its current ring. The HTTP ownership gate runs before the handler;
// the ring can change — and a handoff can export and drop the user —
// before the store applies, and a write acknowledged after that would live
// on a node no reader is ever routed to. The store refuses it instead and
// the server answers the gate's 421 contract so the client re-targets.
var ErrNotOwner = errors.New("cloud: user not owned by this node")

// NewClusterNode opens the node's store (dir may be "" for memory-only) with
// replication wired in, restores replication cursors, and points the WAL
// stream at the ring-assigned follower. Close order on shutdown: HTTP server
// first, then the ClusterNode, then the Store.
func NewClusterNode(dir string, storeCfg StoreConfig, cfg ClusterNodeConfig) (*ClusterNode, error) {
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{Timeout: 15 * time.Second}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	shards, err := plannedShards(dir, storeCfg)
	if err != nil {
		return nil, err
	}
	epoch, err := cluster.NextEpoch(cfg.ReplDir)
	if err != nil {
		return nil, err
	}
	cn := &ClusterNode{
		cfg:       cfg,
		httpc:     cfg.HTTP,
		logf:      logf,
		ring:      cluster.NewRing(1, cfg.Peers, cluster.DefaultVNodes),
		proxied:   reg.Counter("pci_cluster_proxied_total"),
		misrouted: reg.Counter("pci_cluster_misrouted_total"),
		handoffs:  reg.Counter("pci_cluster_handoff_users_total"),
		ringVer:   reg.Gauge("pci_cluster_ring_version"),
	}
	if epoch > 1 {
		// This node restarted. The cluster may have moved on while it was
		// down — in particular it may have been failed over, in which case
		// the flag-seeded v1 ring names its own promoted heir as its
		// follower, and the resync armed below would replace the heir's
		// (now primary) data with this node's stale pre-crash copy. Fetch
		// the current ring from the peers before arming anything; if no
		// peer answers, the receivers' stream admission check (verifyStream)
		// is the backstop. A first boot (epoch 1, or memory-only) skips the
		// fetch: there is no pre-crash state to protect, and on a cold
		// cluster boot no peer is up to answer.
		if nr := cn.fetchPeerRing(); nr != nil && nr.Version > cn.ring.Version {
			cn.ring = nr
			logf("cluster: node %s booted onto fetched ring v%d", cfg.Self.ID, nr.Version)
		}
	}
	cn.ship = cluster.NewShipper(cluster.ShipperConfig{
		Self:        cfg.Self.ID,
		Epoch:       epoch,
		HTTP:        cfg.HTTP,
		DataShards:  shards,
		Export:      cn.exportForResync,
		RingVersion: func() uint64 { return cn.Ring().Version },
		Metrics:     reg,
		Logf:        logf,
	})
	storeCfg.StableIDs = true
	storeCfg.Repl = cn.ship
	store, err := newStore(dir, storeCfg)
	if err != nil {
		cn.ship.Close()
		return nil, err
	}
	cn.store = store
	// Ownership re-check under the write gate (see ErrNotOwner): closes the
	// window between the HTTP gate's ring lookup and the store apply.
	store.owns = func(uid string) bool {
		id := cn.Ring().PrimaryID(uid)
		return id == "" || id == cn.cfg.Self.ID
	}
	cn.recv, err = cluster.OpenReceiver(cluster.ReceiverConfig{
		Applier:      store,
		Import:       store.applyImported,
		Dir:          cfg.ReplDir,
		DataShards:   shards,
		VerifyStream: cn.verifyStream,
		Metrics:      reg,
		Logf:         logf,
	})
	if err != nil {
		cn.ship.Close()
		store.Close()
		return nil, err
	}
	if f, ok := cn.ring.Follower(cfg.Self.ID); ok {
		cn.ship.SetTarget(&f)
	}
	cn.ringVer.Set(int64(cn.ring.Version))
	return cn, nil
}

// fetchPeerRing asks every peer for its current ring and returns the
// newest one seen (nil when no peer answered). Best effort on a short
// timeout: it runs during boot, before this node serves anything, and a
// peer that is itself down just means the flag-seeded ring stands until
// the coordinator's next push.
func (cn *ClusterNode) fetchPeerRing() *cluster.Ring {
	httpc := &http.Client{Timeout: 2 * time.Second}
	var best *cluster.Ring
	for _, p := range cn.cfg.Peers {
		if p.ID == cn.cfg.Self.ID {
			continue
		}
		resp, err := httpc.Get(p.URL + cluster.PathRing)
		if err != nil {
			continue
		}
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		ring, derr := cluster.DecodeRing(body)
		if derr != nil {
			continue
		}
		if best == nil || ring.Version > best.Version {
			best = ring
		}
	}
	return best
}

// verifyStream is this node's replication stream admission check
// (cluster.ReceiverConfig.VerifyStream): a batch or resync is accepted
// only when the sender's stamped ring version is not provably stale.
// Cursor epochs order streams *within* one topology; this check orders
// them *across* topologies — without it a restarted pre-failover primary
// (ring v1 from flags) could wholesale-replace its promoted heir's data,
// destroying every write the heir acknowledged during the failover.
func (cn *ClusterNode) verifyStream(from string, ringVersion uint64) error {
	ring := cn.Ring()
	if ringVersion < ring.Version {
		return fmt.Errorf("stale ring v%d (this node holds v%d)", ringVersion, ring.Version)
	}
	if ringVersion == ring.Version && !ring.Alive(from) {
		return fmt.Errorf("sender %s is failed over under ring v%d", from, ring.Version)
	}
	return nil
}

// Store returns the node's store (the caller owns its lifecycle).
func (cn *ClusterNode) Store() *Store { return cn.store }

// Ring returns the node's current ring view.
func (cn *ClusterNode) Ring() *cluster.Ring {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.ring
}

// Lag reports how many records this node's follower is behind.
func (cn *ClusterNode) Lag() uint64 { return cn.ship.Lag() }

// Close stops the shipper (flushing what it can) and persists the
// receiver's cursors. The store stays open — close it after.
func (cn *ClusterNode) Close() error {
	cn.ship.Close()
	return cn.recv.Close()
}

// exportForResync is the shipper's Export callback: under the store-wide
// write gate (no write can slip between the snapshot and the baseline) it
// cuts a wholesale copy of every user this node currently owns, pinned to
// the stream position the follower's cursor re-baselines at.
func (cn *ClusterNode) exportForResync() ([]cluster.ShipRecord, uint64, error) {
	s := cn.store
	s.gate.Lock()
	defer s.gate.Unlock()
	baseline := cn.ship.Seq()
	ring := cn.Ring()
	self := cn.cfg.Self.ID
	recs, err := s.exportUsersLocked(func(uid string) bool {
		return ring.PrimaryID(uid) == self
	})
	return recs, baseline, err
}

// AdoptRing installs a newer ring version and performs the moves it
// implies: retarget the WAL stream at the new follower, full-resync when
// this node inherited ownership (its follower is missing that history), and
// hand off users it no longer owns — synchronously, so by the time the ring
// push is acknowledged the new owners hold the data.
func (cn *ClusterNode) AdoptRing(nr *cluster.Ring) error {
	cn.mu.Lock()
	old := cn.ring
	if nr.Version <= old.Version {
		cn.mu.Unlock()
		return ErrStaleRing
	}
	cn.ring = nr
	cn.mu.Unlock()
	cn.ringVer.Set(int64(nr.Version))
	self := cn.cfg.Self.ID
	cn.logf("cluster: node %s adopted ring v%d", self, nr.Version)

	// Users handed off earlier whose ranges this version routes back here
	// are no longer moved-away (the handoff back re-imports their data).
	cn.store.clearMovedOwned(func(uid string) bool { return nr.PrimaryID(uid) == self })

	if f, ok := nr.Follower(self); ok {
		cn.ship.SetTarget(&f)
	} else {
		cn.ship.SetTarget(nil)
	}

	var lost []string
	gained := false
	for _, uid := range cn.store.userIDs() {
		oldOwn := old.PrimaryID(uid) == self
		newOwn := nr.PrimaryID(uid) == self
		if oldOwn && !newOwn {
			lost = append(lost, uid)
		}
		if newOwn && !oldOwn {
			gained = true
		}
	}
	if gained {
		// Inherited users exist here only as replica or handed-off state the
		// follower never saw on this stream: re-baseline it wholesale.
		cn.ship.ForceResync()
	}
	if len(lost) > 0 {
		cn.handoff(nr, lost)
	}
	return nil
}

// handoff transfers the named users to their new owners and drops the local
// copies. Export, delivery, and drop run as one atomic step under the
// store-wide write gate: no write — stamped, unstamped, or proxied — can
// land between the snapshot the new owner receives and the local drop, so
// nothing acknowledged is ever deleted un-transferred. Holding the gate
// across the POST stalls this node's writes for one bounded round trip
// (the HTTP client timeout caps it); on failure the gate is released
// between attempts, writes proceed, and the next attempt's fresh export
// captures them. A destination that cannot be reached keeps its users here
// — data is never dropped unacknowledged; the users stay served by the
// ownership gate's redirect until a later ring version retries the move.
// (Two nodes handing off to each other could block on each other's gates
// for one timeout; a single membership change only ever moves keys toward
// or away from one node, so the pair never arises from one ring step.)
func (cn *ClusterNode) handoff(ring *cluster.Ring, uids []string) {
	byDest := map[string][]string{}
	for _, uid := range uids {
		if owner, ok := ring.Primary(uid); ok && owner.ID != cn.cfg.Self.ID {
			byDest[owner.ID] = append(byDest[owner.ID], uid)
		}
	}
	for destID, users := range byDest {
		dest, ok := ring.NodeByID(destID)
		if !ok {
			continue
		}
		set := map[string]bool{}
		for _, uid := range users {
			set[uid] = true
		}
		s := cn.store
		done := false
		for attempt := 0; attempt < 3 && !done; attempt++ {
			if attempt > 0 {
				time.Sleep(time.Duration(attempt) * 200 * time.Millisecond)
			}
			s.gate.Lock()
			recs, err := s.exportUsersLocked(func(uid string) bool { return set[uid] })
			if err != nil {
				s.gate.Unlock()
				cn.logf("cluster: handoff export to %s failed: %v", destID, err)
				break
			}
			if err := cn.postHandoff(dest, ring.Version, recs); err != nil {
				s.gate.Unlock()
				cn.logf("cluster: handoff of %d users to %s failed (keeping local copies): %v", len(users), destID, err)
				continue
			}
			err = s.dropUsersLocked(users)
			s.gate.Unlock()
			if err != nil {
				cn.logf("cluster: dropping %d handed-off users: %v", len(users), err)
				break
			}
			done = true
		}
		if !done {
			continue
		}
		cn.handoffs.Add(uint64(len(users)))
		cn.logf("cluster: handed %d users to %s", len(users), destID)
	}
}

// postHandoff delivers one handoff — a single attempt, because the caller
// holds the write gate across it; retries (with fresh exports) are the
// caller's loop. The request carries this node's shard layout and the ring
// version that caused the move, for the receiver's admission check.
func (cn *ClusterNode) postHandoff(dest cluster.Node, ringVersion uint64, recs []cluster.ShipRecord) error {
	resp, err := cluster.PostBatch(cn.httpc, dest.URL+cluster.PathHandoff, cluster.EncodeBatchBinary(nil, &cluster.BatchRequest{
		From:        cn.cfg.Self.ID,
		RingVersion: ringVersion,
		DataShards:  len(cn.store.data),
		TraceShards: len(cn.store.data),
		Records:     recs,
	}))
	if err == nil && resp.Error != "" {
		err = errors.New(resp.Error)
	}
	return err
}

// Mount attaches the node-to-node cluster endpoints (replication stream,
// ring exchange, handoff) to mux. These are mounted outside the ownership
// gate and the request timeout: they are peer traffic, not client traffic.
func (cn *ClusterNode) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST "+cluster.PathReplBatch, cn.recv.HandleBatch)
	mux.HandleFunc("POST "+cluster.PathReplSync, cn.recv.HandleSync)
	mux.HandleFunc("GET "+cluster.PathRing, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(cn.Ring().Encode())
	})
	mux.HandleFunc("POST "+cluster.PathRing, func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
		if err != nil {
			writeError(w, http.StatusBadRequest, "reading ring: %v", err)
			return
		}
		ring, err := cluster.DecodeRing(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "decoding ring: %v", err)
			return
		}
		if err := cn.AdoptRing(ring); err != nil {
			if errors.Is(err, ErrStaleRing) {
				writeError(w, http.StatusConflict, "%v", err)
				return
			}
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		writeAck(w)
	})
	mux.HandleFunc("POST "+cluster.PathHandoff, cn.recv.HandleHandoff)
}

// owner resolves the routing key's owner under the current ring, reporting
// whether this node is it.
func (cn *ClusterNode) owner(uid string) (cluster.Node, bool) {
	ring := cn.Ring()
	owner, ok := ring.Primary(uid)
	if !ok {
		return cluster.Node{}, true // no ring owner: serve locally
	}
	return owner, owner.ID == cn.cfg.Self.ID
}

// Gate is the ownership middleware for client traffic: a request stamped
// with a routing key this node does not own is proxied to the owner when
// this node is the owner's follower (the failover window — the client fell
// over here for a reason), and answered 421 Misdirected Request with the
// owner's URL otherwise. Unstamped requests (non-cluster-aware clients) are
// served locally. A proxied request is ownership-checked like any other:
// the proxying peer may have routed it off a stale ring, and serving it
// here would land the write on a non-owner that silently diverges from the
// real owner's copy. It is just never proxied a second time (single hop,
// loop guard) — a misdirected one bounces 421 with the owner's URL, which
// the proxying node relays verbatim so the client re-targets.
func (cn *ClusterNode) Gate(next http.Handler, maxBody int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		uid := r.Header.Get(cluster.HeaderKey)
		if uid == "" {
			next.ServeHTTP(w, r)
			return
		}
		owner, self := cn.owner(uid)
		if self {
			next.ServeHTTP(w, r)
			return
		}
		if r.Header.Get(cluster.HeaderProxied) == "" {
			if f, ok := cn.Ring().Follower(owner.ID); ok && f.ID == cn.cfg.Self.ID {
				cn.proxy(w, r, owner, maxBody)
				return
			}
		}
		cn.redirect(w, owner, uid)
	})
}

// GateStreaming guards a streaming handler (SSE, chunked ingest): proxying
// a long-lived stream through a second node would pin two connections per
// client, so a misrouted stream is always redirected, never proxied.
func (cn *ClusterNode) GateStreaming(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		uid := r.Header.Get(cluster.HeaderKey)
		if uid == "" {
			next(w, r)
			return
		}
		if owner, self := cn.owner(uid); !self {
			cn.redirect(w, owner, uid)
			return
		}
		next(w, r)
	}
}

func (cn *ClusterNode) redirect(w http.ResponseWriter, owner cluster.Node, uid string) {
	cn.misrouted.Inc()
	w.Header().Set(cluster.HeaderOwner, owner.URL)
	writeError(w, http.StatusMisdirectedRequest, "user %s is owned by node %s", uid, owner.ID)
}

// proxy forwards one request, buffered under the server's body cap (an
// upload over it answers 413 here, exactly as the owner would), to the owner
// and relays the response. A proxy transport failure answers 503 so the
// client's retry loop runs its own failover instead of trusting this hop.
func (cn *ClusterNode) proxy(w http.ResponseWriter, r *http.Request, owner cluster.Node, maxBody int64) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		bodyError(w, "reading request body", err)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, owner.URL+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "building proxy request: %v", err)
		return
	}
	req.Header = r.Header.Clone()
	req.Header.Set(cluster.HeaderProxied, "1")
	resp, err := cn.httpc.Do(req)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "proxy to owner %s failed: %v", owner.ID, err)
		return
	}
	defer resp.Body.Close()
	cn.proxied.Inc()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

package cloud

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/storage"
)

// TokenTTL is how long an issued token stays valid before the mobile service
// must refresh it (Section 2.2.1: "the authentication token is refreshed
// periodically based on its expiry time").
const TokenTTL = 24 * time.Hour

// DefaultShards is the data-shard count when none is configured. User state
// is hashed across the shards, each with its own lock and write-ahead log,
// so concurrent uploads from different users do not serialize.
const DefaultShards = 8

// User is a registered device/account pair.
type User struct {
	ID, IMEI, Email string
}

type tokenInfo struct {
	UserID    string    `json:"user_id"`
	ExpiresAt time.Time `json:"expires_at"`
}

// Store is the cloud instance's state: users, tokens, places, routes,
// profiles, and contacts. Safe for concurrent use.
//
// Store is a thin typed layer over the sharded storage engine
// (internal/storage): every mutation is journaled as a WAL record on the
// owning shard and replayed on startup, so an acknowledged write survives a
// crash (under the engine's fsync policy). Shard 0 holds the registration
// keyspace (users, device index); per-user data is hashed across the
// remaining shards. Tokens are deliberately in-memory only — they never
// survive a restart, devices re-register (matching the paper's token
// refresh flow).
type Store struct {
	eng  *storage.Engine
	meta *metaState
	data []*dataState

	// The per-user GSM trace keyspace (the delta sync substrate) lives in
	// its own engine under <data-dir>/traces: existing data directories keep
	// their manifest-pinned shard layout untouched, and trace churn never
	// competes with place/profile writes for a WAL.
	traceEng *storage.Engine
	traces   []*traceState

	tokenMu sync.RWMutex
	tokens  map[string]tokenInfo

	// gate is the store-wide write gate cluster resync/handoff exports cut
	// their consistent snapshots under: every mutation path holds it for
	// read, an export holds it for write, freezing the replication stream
	// position relative to state. Uncontended in single-node mode.
	gate sync.RWMutex

	// stableIDs derives user IDs from the device key instead of a
	// registration counter, so any cluster node (and the client itself)
	// computes the same routing key for a device without coordination.
	stableIDs bool

	// owns, when set (cluster mode), re-checks user ownership under the
	// write gate on every primary mutation. The HTTP ownership gate runs
	// before the handler; the ring can change — and a handoff can export
	// and drop the user — between that check and the store apply, and a
	// write acknowledged after the drop would live on a node no reader is
	// ever routed to. Mutations for users this node handed off (see moved)
	// and still does not own fail with ErrNotOwner instead, and the client
	// retries at the new owner. Set once before the node serves traffic;
	// nil means own everything.
	owns func(userID string) bool

	// moved tombstones users this node handed off to a new owner. The
	// refusal above is gated on it so only the actual loss window — a
	// write that raced the export→drop of its user — is refused; keyless
	// (pre-cluster) traffic for users that never moved keeps its
	// served-where-it-lands contract. Entries are cleared when a ring
	// version makes this node the user's owner again (the handoff back
	// re-imports the data). Guarded by movedMu, not the gate: readers
	// check it under gate.RLock while drops write it under gate.Lock, but
	// ring adoption clears it outside any gate hold.
	movedMu sync.Mutex
	moved   map[string]struct{}

	now func() time.Time

	obsReg       *obs.Registry
	idxHits      *obs.Counter // analytics_index_hits_total
	idxFallbacks *obs.Counter // analytics_index_fallbacks_total
}

// StoreConfig configures a durable store opened with OpenStore.
type StoreConfig struct {
	// Shards is the data-shard count (default DefaultShards). Ignored when
	// the data directory already exists: the persisted layout wins.
	Shards int
	// Sync is the WAL fsync policy (default storage.SyncAlways).
	Sync storage.SyncPolicy
	// SyncEvery is the storage.SyncInterval period (default 100ms).
	SyncEvery time.Duration
	// CompactEvery snapshots a shard after this many journaled records
	// (default storage.DefaultCompactEvery; negative disables).
	CompactEvery int
	// RecoverWorkers bounds how many shards boot recovery (and close)
	// processes concurrently (default 0: min(shards, max(2, GOMAXPROCS));
	// 1 forces serial recovery).
	RecoverWorkers int
	// Now is the time source (nil means time.Now; simulations inject the
	// virtual clock).
	Now func() time.Time
	// Metrics is the registry the store's storage_*, analytics_*, and
	// popular_* families register in (nil means the process-wide default).
	Metrics *obs.Registry
	// StableIDs derives user IDs from the device key (cluster mode) instead
	// of a registration counter, making placement computable client-side.
	StableIDs bool
	// Repl/TraceRepl receive every record journaled by the main and trace
	// engines for shipment to this node's follower (nil = unreplicated).
	Repl      storage.ReplSink
	TraceRepl storage.ReplSink
}

// plannedShards resolves the shard counts a store over dir would open with:
// the persisted manifests win over cfg.Shards, exactly as newStore decides.
// Cluster wiring calls this before the store exists, because the shipper
// must advertise the shard layout its stream was journaled under.
func plannedShards(dir string, cfg StoreConfig) (data, trace int, err error) {
	data = cfg.Shards
	if data <= 0 {
		data = DefaultShards
	}
	trace = -1
	if dir != "" {
		if n, ok, err := storage.ReadManifest(dir); err != nil {
			return 0, 0, err
		} else if ok {
			data = n - 1 // shard 0 is the registration keyspace
		}
		if n, ok, err := storage.ReadManifest(filepath.Join(dir, "traces")); err != nil {
			return 0, 0, err
		} else if ok {
			trace = n
		}
	}
	if trace < 0 {
		trace = data
	}
	return data, trace, nil
}

// NewStore returns an empty memory-only store using the given time source
// (nil means time.Now; simulations inject the virtual clock). State is still
// sharded for concurrency but nothing is journaled; use OpenStore for
// durability.
func NewStore(now func() time.Time) *Store {
	s, err := newStore("", StoreConfig{Now: now})
	if err != nil {
		// Memory-only construction touches no I/O and cannot fail.
		panic(fmt.Sprintf("cloud: memory store: %v", err))
	}
	return s
}

// OpenStore opens (creating if needed) a durable store rooted at dir,
// recovering state from its snapshots and write-ahead logs: torn WAL tails
// from a crash are truncated, every intact acknowledged write is replayed.
func OpenStore(dir string, cfg StoreConfig) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cloud: OpenStore needs a data directory (use NewStore for memory-only)")
	}
	return newStore(dir, cfg)
}

func newStore(dir string, cfg StoreConfig) (*Store, error) {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	// A pre-existing layout pins the shard counts: rehashing users across a
	// different count would strand their data on the wrong shards.
	shards, tshards, err := plannedShards(dir, cfg)
	if err != nil {
		return nil, err
	}

	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	s := &Store{
		meta:         newMetaState(),
		data:         make([]*dataState, shards),
		tokens:       map[string]tokenInfo{},
		stableIDs:    cfg.StableIDs,
		now:          cfg.Now,
		obsReg:       reg,
		idxHits:      reg.Counter("analytics_index_hits_total"),
		idxFallbacks: reg.Counter("analytics_index_fallbacks_total"),
	}
	states := make([]storage.ShardState, 0, shards+1)
	states = append(states, s.meta)
	for i := range s.data {
		s.data[i] = newDataState()
		states = append(states, s.data[i])
	}
	open := func(dir string, repl storage.ReplSink, states []storage.ShardState) (*storage.Engine, error) {
		return storage.Open(storage.Options{
			Dir:            dir,
			Sync:           cfg.Sync,
			SyncEvery:      cfg.SyncEvery,
			CompactEvery:   cfg.CompactEvery,
			RecoverWorkers: cfg.RecoverWorkers,
			Metrics:        reg,
			Repl:           repl,
			Format:         recordFormat,
		}, states)
	}
	eng, err := open(dir, cfg.Repl, states)
	if err != nil {
		return nil, err
	}
	s.eng = eng

	traceDir := ""
	if dir != "" {
		traceDir = filepath.Join(dir, "traces")
	}
	s.traces = make([]*traceState, tshards)
	tstates := make([]storage.ShardState, tshards)
	for i := range s.traces {
		s.traces[i] = newTraceState()
		tstates[i] = s.traces[i]
	}
	teng, err := open(traceDir, cfg.TraceRepl, tstates)
	if err != nil {
		eng.Close()
		return nil, err
	}
	s.traceEng = teng
	return s, nil
}

// Close compacts every shard (so the next boot replays nothing), flushes the
// logs, and releases the store's files. Memory-only stores need not call it.
func (s *Store) Close() error {
	err := s.eng.Close()
	if terr := s.traceEng.Close(); err == nil {
		err = terr
	}
	return err
}

// ShardCount returns the number of data shards.
func (s *Store) ShardCount() int { return len(s.data) }

// dataShard maps a user to its engine shard index (1-based; 0 is meta).
func (s *Store) dataShard(userID string) int {
	return 1 + int(shardHash(userID)%uint32(len(s.data)))
}

// shardHash is the FNV-1a-32 hash of userID that places a user on a data and
// a trace shard — hash/fnv's function, computed over the string in place so
// placement costs no allocation. Changing it moves users between shards on
// disk.
func shardHash(userID string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(userID); i++ {
		h ^= uint32(userID[i])
		h *= 16777619
	}
	return h
}

func (s *Store) dataFor(userID string) (int, *dataState) {
	idx := s.dataShard(userID)
	return idx, s.data[idx-1]
}

// markMoved tombstones users just dropped by a handoff (caller holds the
// write gate exclusively, so no mutation can interleave with the marking).
func (s *Store) markMoved(uids []string) {
	s.movedMu.Lock()
	if s.moved == nil {
		s.moved = map[string]struct{}{}
	}
	for _, uid := range uids {
		s.moved[uid] = struct{}{}
	}
	s.movedMu.Unlock()
}

// clearMovedOwned drops tombstones for users the given predicate reports as
// owned again — called on ring adoption, when a rejoin hands ranges back.
func (s *Store) clearMovedOwned(owned func(userID string) bool) {
	s.movedMu.Lock()
	for uid := range s.moved {
		if owned(uid) {
			delete(s.moved, uid)
		}
	}
	s.movedMu.Unlock()
}

// admitWrite takes the write gate shared for one primary mutation of the
// user. It refuses with ErrNotOwner, gate released, when this node handed the
// user off and the current ring still routes it elsewhere (see the moved
// field); on nil the caller holds the gate and must RUnlock it.
func (s *Store) admitWrite(userID string) error {
	s.gate.RLock()
	if s.owns != nil {
		s.movedMu.Lock()
		_, moved := s.moved[userID]
		s.movedMu.Unlock()
		if moved && !s.owns(userID) {
			s.gate.RUnlock()
			return ErrNotOwner
		}
	}
	return nil
}

// mutateData runs one record — built over the store's own copy of the
// caller's values — through the owning data shard: the same apply path
// recovery replays, journaled only when it succeeds. Its timestamps are
// canonicalised first, and the encode runs after apply so the journal
// captures any normalization apply performed.
func (s *Store) mutateData(userID string, rec *record) error {
	if err := s.admitWrite(userID); err != nil {
		return err
	}
	defer s.gate.RUnlock()
	rec.instants()
	idx, d := s.dataFor(userID)
	return s.eng.Mutate(idx, func() ([]byte, error) {
		if err := d.apply(rec); err != nil {
			return nil, err
		}
		return encodeRecord(rec), nil
	})
}

func deviceKey(imei, email string) string { return imei + "|" + email }

func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("cloud: token entropy unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Register creates (or finds) the user for the device and issues a fresh
// token. User creation is journaled; the token itself is ephemeral.
func (s *Store) Register(imei, email string) (RegisterResponse, error) {
	if imei == "" || email == "" {
		return RegisterResponse{}, fmt.Errorf("cloud: imei and email are required")
	}
	var uid string
	// Cluster mode forces stable IDs, so the routing key is known before
	// the user exists and ownership can be re-checked under the gate.
	if err := s.admitWrite(StableUserID(imei, email)); err != nil {
		return RegisterResponse{}, err
	}
	err := s.eng.Mutate(0, func() ([]byte, error) {
		key := deviceKey(imei, email)
		if id, ok := s.meta.byDevice[key]; ok {
			uid = id
			return nil, nil // known device: nothing to journal
		}
		id := fmt.Sprintf("user-%04d", len(s.meta.users)+1)
		if s.stableIDs {
			id = StableUserID(imei, email)
		}
		rec := &record{Op: opRegister, UserID: id, IMEI: imei, Email: email}
		if err := s.meta.apply(rec); err != nil {
			return nil, err
		}
		uid = id
		return encodeRecord(rec), nil
	})
	s.gate.RUnlock()
	if err != nil {
		return RegisterResponse{}, err
	}
	tok := newToken()
	exp := s.now().Add(TokenTTL)
	s.tokenMu.Lock()
	s.tokens[tok] = tokenInfo{UserID: uid, ExpiresAt: exp}
	s.tokenMu.Unlock()
	return RegisterResponse{UserID: uid, Token: tok, ExpiresAt: exp}, nil
}

// Refresh exchanges a valid (possibly near-expiry) token for a fresh one.
// The old token is revoked.
func (s *Store) Refresh(token string) (RefreshResponse, error) {
	s.tokenMu.Lock()
	defer s.tokenMu.Unlock()
	info, ok := s.tokens[token]
	if !ok || s.now().After(info.ExpiresAt) {
		delete(s.tokens, token)
		return RefreshResponse{}, errUnauthorized
	}
	delete(s.tokens, token)
	tok := newToken()
	exp := s.now().Add(TokenTTL)
	s.tokens[tok] = tokenInfo{UserID: info.UserID, ExpiresAt: exp}
	return RefreshResponse{Token: tok, ExpiresAt: exp}, nil
}

// errUnauthorized signals an invalid/expired token.
var errUnauthorized = fmt.Errorf("cloud: unauthorized")

// Authenticate resolves a token to a user ID.
func (s *Store) Authenticate(token string) (string, error) {
	s.tokenMu.RLock()
	defer s.tokenMu.RUnlock()
	info, ok := s.tokens[token]
	if !ok || s.now().After(info.ExpiresAt) {
		return "", errUnauthorized
	}
	return info.UserID, nil
}

// SetPlaces replaces the user's stored places (discovery is a whole-history
// recomputation, so replacement is the right semantic). Labels from the
// previous generation are carried over by place ID.
func (s *Store) SetPlaces(userID string, places []PlaceWire) error {
	// Detach from the caller before journaling. Apply runs before the encode,
	// so the record captures the post-label-carry value.
	rec := &record{Op: opSetPlaces, UserID: userID, Places: clonePlaces(places)}
	return s.mutateData(userID, rec)
}

// Places returns a deep copy of the user's stored places.
func (s *Store) Places(userID string) []PlaceWire {
	idx, d := s.dataFor(userID)
	var out []PlaceWire
	s.eng.View(idx, func() { out = clonePlaces(d.places[userID]) })
	if out == nil {
		out = []PlaceWire{}
	}
	return out
}

// LabelPlace tags a stored place.
func (s *Store) LabelPlace(userID string, placeID int, label string) error {
	return s.mutateData(userID, &record{Op: opLabelPlace, UserID: userID, PlaceID: placeID, Label: label})
}

// SetRoutes replaces the user's stored routes.
func (s *Store) SetRoutes(userID string, routes []RouteWire) error {
	return s.mutateData(userID, &record{Op: opSetRoutes, UserID: userID, Routes: cloneRoutes(routes)})
}

// Routes returns deep copies of the user's routes with at least minFrequency
// traversals — callers may mutate the result freely.
func (s *Store) Routes(userID string, minFrequency int) []RouteWire {
	idx, d := s.dataFor(userID)
	var out []RouteWire
	s.eng.View(idx, func() {
		for _, r := range d.routes[userID] {
			if len(r.Trips) >= minFrequency {
				out = append(out, cloneRoute(r))
			}
		}
	})
	return out
}

// PutProfile stores (upserts) a day profile after validation. The store
// keeps its own deep copy; later caller mutations cannot corrupt journaled
// state.
func (s *Store) PutProfile(userID string, p *profile.DayProfile) error {
	if p == nil {
		return fmt.Errorf("cloud: nil profile")
	}
	if p.UserID == "" {
		p.UserID = userID
	}
	if err := p.Validate(); err != nil {
		return err
	}
	return s.mutateData(userID, &record{Op: opPutProfile, UserID: userID, Profile: cloneProfile(p)})
}

// Profile returns a deep copy of the user's profile for a date.
func (s *Store) Profile(userID, date string) (*profile.DayProfile, bool) {
	idx, d := s.dataFor(userID)
	var out *profile.DayProfile
	var ok bool
	s.eng.View(idx, func() {
		var p *profile.DayProfile
		p, ok = d.profiles[userID][date]
		if ok {
			out = cloneProfile(p)
		}
	})
	return out, ok
}

// ProfileRange returns deep copies of profiles with from <= date <= to
// (inclusive, date strings), sorted by date. Empty bounds are open. The walk
// binary-searches the user's sorted date index, so a narrow window costs the
// window, not a scan-and-sort of the whole history.
func (s *Store) ProfileRange(userID, from, to string) []*profile.DayProfile {
	var out []*profile.DayProfile
	s.viewProfileRange(userID, from, to,
		func(n int) {
			if n > 0 {
				out = make([]*profile.DayProfile, 0, n)
			}
		},
		func(p *profile.DayProfile) { out = append(out, cloneProfile(p)) })
	return out
}

// viewProfileRange streams the profiles with from <= date <= to (inclusive,
// date strings, empty bounds open) in date order under the owning shard's
// read lock, without cloning: begin runs once with the count, then each per
// profile. This is the binary serving path — the encoder writes straight
// from store memory into its buffer. The viewIndex retention rules apply:
// the callbacks must not retain or mutate what they are handed and must not
// call back into the store.
func (s *Store) viewProfileRange(userID, from, to string, begin func(n int), each func(p *profile.DayProfile)) {
	idx, d := s.dataFor(userID)
	s.eng.View(idx, func() {
		ux := d.idx[userID]
		if ux == nil {
			begin(0)
			return
		}
		days := d.profiles[userID]
		lo := 0
		if from != "" {
			lo, _ = slices.BinarySearch(ux.dates, from)
		}
		hi := len(ux.dates)
		if to != "" {
			h, ok := slices.BinarySearch(ux.dates, to)
			if ok {
				h++
			}
			hi = h
		}
		dates := ux.dates[lo:max(lo, hi)]
		begin(len(dates))
		for _, date := range dates {
			each(days[date])
		}
	})
}

// viewIndex runs fn under the owning shard's read lock with the user's
// materialized analytics index — nil when the user has no profiles. The
// copy-free read path: fn must not retain or mutate anything it is handed,
// and must not call back into the store.
func (s *Store) viewIndex(userID string, fn func(ux *userIndex)) {
	idx, d := s.dataFor(userID)
	s.eng.View(idx, func() {
		ux := d.idx[userID]
		if ux != nil {
			s.idxHits.Inc()
		} else {
			// No materialized index for the user: the caller answers from
			// nothing, the same result a reference scan of zero profiles
			// would produce.
			s.idxFallbacks.Inc()
		}
		fn(ux)
	})
}

// placesVersion sums the shards' places-change counters: any SetPlaces or
// LabelPlace anywhere changes the sum, and the counters only grow, so equal
// sums mean nothing changed. The popular-places cache keys its memo on it.
func (s *Store) placesVersion() uint64 {
	var ver uint64
	for i, d := range s.data {
		s.eng.View(i+1, func() { ver += d.ver })
	}
	return ver
}

// AddContacts appends encounters to the user's contact log.
func (s *Store) AddContacts(userID string, encs []profile.Encounter) error {
	if len(encs) == 0 {
		return nil
	}
	return s.mutateData(userID, &record{Op: opAddContacts, UserID: userID, Encounters: slices.Clone(encs)})
}

// Contacts returns the user's encounters, optionally filtered by place.
func (s *Store) Contacts(userID, placeID string) []profile.Encounter {
	idx, d := s.dataFor(userID)
	var out []profile.Encounter
	s.eng.View(idx, func() {
		for _, e := range d.contacts[userID] {
			if placeID == "" || e.PlaceID == placeID {
				out = append(out, e)
			}
		}
	})
	return out
}

// UserCount returns the number of registered users.
func (s *Store) UserCount() int {
	var n int
	s.eng.View(0, func() { n = len(s.meta.users) })
	return n
}

// forEachPlaces streams every user's stored places, one shard at a time,
// under that shard's read lock. The callback must not retain or mutate the
// slice (cross-user aggregates such as PopularPlaces read it in place).
func (s *Store) forEachPlaces(fn func(userID string, places []PlaceWire)) {
	for i, d := range s.data {
		s.eng.View(i+1, func() {
			for u, ps := range d.places {
				fn(u, ps)
			}
		})
	}
}

// forEachPlacesGen is forEachPlaces plus each user's places generation, so a
// caller-side cache can skip reprocessing users whose places are unchanged.
// Same contract: the slice is the live store state, borrowed under the shard
// read lock.
func (s *Store) forEachPlacesGen(fn func(userID string, gen uint64, places []PlaceWire)) {
	for i, d := range s.data {
		s.eng.View(i+1, func() {
			for u, ps := range d.places {
				fn(u, d.placesGen[u], ps)
			}
		})
	}
}

package cloud

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/events"
	"repro/internal/frame"
	"repro/internal/gsm"
	"repro/internal/profile"
	"repro/internal/route"
	"repro/internal/trace"
	"repro/internal/world"
)

// Server is the PMWare Cloud Instance HTTP front end. Construct with
// NewServer and mount via Handler().
type Server struct {
	store     *Store
	analytics *Analytics
	cells     *CellDatabase
	popular   *PopularIndex
	pool      *discoverPool

	gsmParams   gsm.Params
	routeParams route.Params
	maxBody     int64

	discoverWorkers int
	discoverQueue   int

	hub            *events.Hub
	eventQueue     int
	eventHistory   int
	eventHeartbeat time.Duration

	metrics       *serverMetrics
	slowThreshold time.Duration
	slowLog       *log.Logger

	cnode *ClusterNode

	mux *http.ServeMux
}

// DefaultMaxBodyBytes caps request bodies when no -max-body override is
// given. Bodies over the cap answer 413 (which the client surfaces as
// ErrRequestTooLarge, not a transient fault).
const DefaultMaxBodyBytes = 64 << 20

// DefaultRequestTimeout is the deadline on every regular request's context:
// a handler that honours its context gives up by then and the middleware
// replies 503, which the client treats as retryable.
const DefaultRequestTimeout = 30 * time.Second

// DefaultEventHeartbeat is the SSE comment-frame period on idle event
// subscriptions: frequent enough that a dead peer is noticed and NATs keep
// the mapping, rare enough to cost nothing.
const DefaultEventHeartbeat = 15 * time.Second

// ServerOption customizes a Server.
type ServerOption func(*Server)

// WithCellDatabase installs the Cell-ID geolocation database.
func WithCellDatabase(db *CellDatabase) ServerOption {
	return func(s *Server) { s.cells = db }
}

// WithDiscoverPool sizes the discovery worker pool: workers bounds how many
// GCA runs execute concurrently, queueLen how many may wait before the
// endpoint answers 429. Zero values keep the defaults.
func WithDiscoverPool(workers, queueLen int) ServerOption {
	return func(s *Server) {
		s.discoverWorkers = workers
		s.discoverQueue = queueLen
	}
}

// WithMaxBodyBytes overrides the request body cap (0 keeps the default).
// Streaming endpoints are exempt as a whole; the cap bounds each batch of a
// JSON observation stream instead (DESIGN.md §13).
func WithMaxBodyBytes(n int64) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxBody = n
		}
	}
}

// WithEventQueue sizes the per-subscriber event queue (the slow-consumer
// eviction threshold) and the per-user replay ring backing Last-Event-ID
// resume. Zero values keep the defaults (64 and 256).
func WithEventQueue(queueCap, history int) ServerOption {
	return func(s *Server) {
		s.eventQueue = queueCap
		s.eventHistory = history
	}
}

// WithEventHeartbeat overrides the SSE heartbeat period (0 keeps the
// default).
func WithEventHeartbeat(d time.Duration) ServerOption {
	return func(s *Server) {
		if d > 0 {
			s.eventHeartbeat = d
		}
	}
}

// WithClusterNode attaches this server to a PCI cluster node: client traffic
// is gated on ring ownership, and the node-to-node replication/ring/handoff
// endpoints are mounted. The server must be built over cn.Store().
func WithClusterNode(cn *ClusterNode) ServerOption {
	return func(s *Server) { s.cnode = cn }
}

// NewServer builds the cloud instance over the given store.
func NewServer(store *Store, opts ...ServerOption) *Server {
	s := &Server{
		store:       store,
		analytics:   NewAnalytics(store),
		gsmParams:   gsm.DefaultParams(),
		routeParams: route.DefaultParams(),
		maxBody:     DefaultMaxBodyBytes,
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.metrics == nil {
		s.metrics = newServerMetrics(nil)
	}
	s.popular = NewPopularIndex(store, s.cells)
	s.pool = newDiscoverPool(store, s.gsmParams, s.discoverWorkers, s.discoverQueue, newDiscoverMetrics(s.metrics.reg))
	if s.eventHeartbeat <= 0 {
		s.eventHeartbeat = DefaultEventHeartbeat
	}
	s.hub = events.NewHub(events.Config{
		QueueCap: s.eventQueue,
		History:  s.eventHistory,
		Registry: s.metrics.reg,
	})
	s.mux = http.NewServeMux()
	s.routesMux()
	return s
}

// Close stops the discovery worker pool and the event hub (closing every
// subscriber stream, which unblocks any SSE handlers still attached). It
// does not close the store (the store may be shared; the caller owns its
// lifecycle).
func (s *Server) Close() {
	s.pool.close()
	s.hub.Close()
}

// Hub exposes the event fanout hub (the PMS-side bridge and tests publish
// and subscribe through it directly).
func (s *Server) Hub() *events.Hub { return s.hub }

// Handler returns the HTTP handler for the full API surface. The regular
// API is wrapped in the request-timeout middleware; the streaming routes
// mount beside it, exempt from both the timeout and the -max-body cap: a
// stream is long-lived by design, so it outlives any per-request deadline
// and legitimately outgrows any per-request limit.
// When a cluster node is attached, the regular API additionally passes the
// ownership gate (misrouted requests proxied or answered 421), streaming
// routes get the redirect-only gate (proxying a long-lived stream would pin
// two connections per client), and the peer-facing cluster endpoints plus
// /healthz mount on the root mux outside both gate and timeout.
func (s *Server) Handler() http.Handler {
	root := http.NewServeMux()
	api := TimeoutMiddleware(s.mux, DefaultRequestTimeout)
	obsStream := s.instrument("obs_stream", s.auth(s.handleObsStream))
	evSub := s.instrument("events_subscribe", s.auth(s.handleEventsSubscribe))
	if s.cnode != nil {
		api = s.cnode.Gate(api, s.maxBody)
		obsStream = s.cnode.GateStreaming(obsStream)
		evSub = s.cnode.GateStreaming(evSub)
		s.cnode.Mount(root)
	}
	root.Handle("/", api)
	root.HandleFunc("POST "+PathObservationsStream, obsStream)
	root.HandleFunc("GET "+PathEventsSubscribe, evSub)
	root.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok"))
	})
	return root
}

// TimeoutMiddleware bounds every request to d. The handler runs on the
// calling goroutine with a request context that expires after d; a response
// begun before the deadline passes through whole, one begun after it is
// dropped (Write returns http.ErrHandlerTimeout), and if nothing was sent
// by the deadline the client receives a JSON 503 when the handler returns
// (which the retry layer classifies as transient). d <= 0 returns h
// unchanged.
func TimeoutMiddleware(h http.Handler, d time.Duration) http.Handler {
	if d <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		deadline, _ := ctx.Deadline()
		tw := &timeoutWriter{ResponseWriter: w, deadline: deadline}
		h.ServeHTTP(tw, r.WithContext(ctx))
		if !tw.sent && !time.Now().Before(deadline) {
			// Headers the handler set for its dropped response must not
			// ride on the 503.
			clear(w.Header())
			writeError(w, http.StatusServiceUnavailable, "request timed out")
		}
	})
}

// timeoutWriter passes a response through if its header is written before
// the deadline and drops it otherwise. Only the handler's goroutine uses it.
type timeoutWriter struct {
	http.ResponseWriter
	deadline    time.Time
	wroteHeader bool // the handler has written its header
	sent        bool // it was written before the deadline and passed through
}

func (tw *timeoutWriter) WriteHeader(code int) {
	if tw.wroteHeader {
		return
	}
	tw.wroteHeader = true
	if time.Now().Before(tw.deadline) {
		tw.sent = true
		tw.ResponseWriter.WriteHeader(code)
	}
}

func (tw *timeoutWriter) Write(p []byte) (int, error) {
	tw.WriteHeader(http.StatusOK)
	if !tw.sent {
		return 0, http.ErrHandlerTimeout
	}
	return tw.ResponseWriter.Write(p)
}

func (s *Server) routesMux() {
	s.mux.HandleFunc("POST "+PathRegister, s.instrument("register", s.handleRegister))
	s.mux.HandleFunc("POST "+PathRefresh, s.instrument("refresh", s.handleRefresh))
	s.mux.HandleFunc("POST "+PathPlacesDiscover, s.instrument("places_discover", s.auth(s.handlePlacesDiscover)))
	s.mux.HandleFunc("GET "+PathPlaces, s.instrument("places_get", s.auth(s.handlePlacesGet)))
	s.mux.HandleFunc("POST "+PathPlacesLabel, s.instrument("places_label", s.auth(s.handlePlacesLabel)))
	s.mux.HandleFunc("POST "+PathRoutesDiscover, s.instrument("routes_discover", s.auth(s.handleRoutesDiscover)))
	s.mux.HandleFunc("GET "+PathRoutes, s.instrument("routes_get", s.auth(s.handleRoutesGet)))
	s.mux.HandleFunc("POST "+PathRouteSimilarity, s.instrument("route_similarity", s.auth(s.handleRouteSimilarity)))
	s.mux.HandleFunc("PUT "+PathProfiles+"/{date}", s.instrument("profile_put", s.auth(s.handleProfilePut)))
	s.mux.HandleFunc("GET "+PathProfiles+"/{date}", s.instrument("profile_get", s.auth(s.handleProfileGet)))
	s.mux.HandleFunc("GET "+PathProfiles, s.instrument("profile_range", s.auth(s.handleProfileRange)))
	s.mux.HandleFunc("POST "+PathContacts, s.instrument("contacts_post", s.auth(s.handleContactsPost)))
	s.mux.HandleFunc("GET "+PathContacts, s.instrument("contacts_get", s.auth(s.handleContactsGet)))
	s.mux.HandleFunc("GET "+PathPlacesPopular, s.instrument("places_popular", s.auth(s.handlePlacesPopular)))
	s.mux.HandleFunc("GET "+PathGeoCell, s.instrument("geo_cell", s.auth(s.handleGeoCell)))
	s.mux.HandleFunc("GET "+PathPredictArrival, s.instrument("predict_arrival", s.auth(s.handlePredictArrival)))
	s.mux.HandleFunc("GET "+PathPredictNext, s.instrument("predict_next", s.auth(s.handlePredictNext)))
	s.mux.HandleFunc("GET "+PathStatsFrequency, s.instrument("stats_frequency", s.auth(s.handleFrequency)))
	s.mux.HandleFunc("GET "+PathStatsDwell, s.instrument("stats_dwell", s.auth(s.handleDwell)))
}

// emptyAck is what json.Encoder writes for struct{}{}.
var emptyAck = []byte("{}\n")

// writeAck answers a successful mutation with an empty JSON object.
func writeAck(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(emptyAck)
}

// writeJSON emits a JSON body with status.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// storeError answers a failed store mutation. ErrNotOwner means the ring
// moved between the ownership gate and the apply, so the store refused the
// write rather than landing it on a node readers are never routed to: answer
// the gate's 421 contract (owner URL included) so the client re-targets and
// retries or, if ownership has already swung back to this node, a retryable
// 503. Any other error gets the handler's own status and message.
func (s *Server) storeError(w http.ResponseWriter, uid string, err error, status int, format string, args ...any) {
	if !errors.Is(err, ErrNotOwner) {
		writeError(w, status, format, args...)
		return
	}
	if s.cnode != nil {
		if owner, self := s.cnode.owner(uid); !self {
			s.cnode.redirect(w, owner, uid)
			return
		}
	}
	writeError(w, http.StatusServiceUnavailable, "ownership of user %s changed mid-request; retry", uid)
}

// bodyError answers a request body that could not be read or parsed: 413
// when it ran over the size cap, so the client can tell "your upload is too
// big" apart from a garbled request (400, "<what>: <err>") or a transient
// fault.
func bodyError(w http.ResponseWriter, what string, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "%s: %v", what, err)
}

// unsupportedMediaType answers a Content-Type no decoder speaks.
func unsupportedMediaType(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusUnsupportedMediaType, "unsupported content type %q", r.Header.Get("Content-Type"))
}

// decode parses the request body under the server's size cap.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(into); err != nil {
		bodyError(w, "bad request body", err)
		return false
	}
	return true
}

// reply writes body under content negotiation: a pooled binary encode when
// the request Accepts application/x-pmware-bin and the type has a binary
// codec, the historical JSON path otherwise. Error responses never come
// through here — they are always JSON (writeError), whatever the codec.
func (s *Server) reply(w http.ResponseWriter, r *http.Request, status int, body any) {
	if acceptsBinary(r) {
		bp := getWireBuf()
		if b, ok := appendWire((*bp)[:0], body); ok {
			s.metrics.wireBin.Inc()
			w.Header().Set("Content-Type", ContentTypeBinary)
			w.WriteHeader(status)
			_, _ = w.Write(b)
			*bp = b
			putWireBuf(bp)
			return
		}
		putWireBuf(bp)
	}
	s.metrics.wireJSON.Inc()
	writeJSON(w, status, body)
}

// decodeAny parses the request body by its declared Content-Type: JSON via
// decode, binary via decodeBinaryBody, anything else answers 415.
func (s *Server) decodeAny(w http.ResponseWriter, r *http.Request, into any) bool {
	switch requestCodec(r) {
	case codecJSON:
		return s.decode(w, r, into)
	case codecBinary:
		return s.decodeBinaryBody(w, r, into)
	default:
		unsupportedMediaType(w, r)
		return false
	}
}

// decodeBinaryBody reads a whole binary-framed body (under the size cap)
// into a pooled buffer and decodes one wire message from it. Mirrors
// decode's status contract: 413 over the cap, 400 for anything garbled.
func (s *Server) decodeBinaryBody(w http.ResponseWriter, r *http.Request, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	bp := getWireBuf()
	defer putWireBuf(bp)
	buf, err := readAllInto((*bp)[:0], r.Body)
	*bp = buf
	if err != nil {
		bodyError(w, "reading request body", err)
		return false
	}
	if err := decodeWire(buf, into); err != nil {
		writeError(w, http.StatusBadRequest, "bad binary body: %v", err)
		return false
	}
	return true
}

// decodeDiscoverJSON parses a JSON discover upload through the observation
// codec under decode's size cap and status contract: 413 over the cap, 400
// for a body encoding/json would refuse. Like decode it ignores what follows
// the request object: the reader may have read some of it into its window,
// but never waits for it.
func (s *Server) decodeDiscoverJSON(w http.ResponseWriter, r *http.Request, req *DiscoverPlacesRequest) bool {
	jr := trace.NewJSONReader(http.MaxBytesReader(w, r.Body, s.maxBody), 0)
	defer jr.Release()
	if err := readDiscoverRequestJSON(jr, req); err != nil {
		bodyError(w, "bad request body", err)
		return false
	}
	return true
}

// decodeDiscoverBinary incrementally parses a binary discover upload: a
// fixed header (version, kind, flags, cursor, prefix hash) followed by
// CRC-framed observation blocks and an explicit end marker, so neither side
// ever holds the serialized form of the whole history. Decoding runs
// through http.MaxBytesReader, preserving the 413 contract, and a stream
// that dies mid-frame (or never reaches the end marker) is a clean 400.
func (s *Server) decodeDiscoverBinary(w http.ResponseWriter, r *http.Request, req *DiscoverPlacesRequest) bool {
	fail := func(err error) bool {
		bodyError(w, "bad binary request", err)
		return false
	}
	br := bufio.NewReader(http.MaxBytesReader(w, r.Body, s.maxBody))

	if err := readWireHeader(br, wireKindDiscoverRequest); err != nil {
		return fail(err)
	}
	flags, err := br.ReadByte()
	if err != nil {
		return fail(frame.ReadErr(err))
	}
	req.Delta = flags&1 != 0
	cursor, err := binary.ReadUvarint(br)
	if err != nil {
		return fail(frame.ReadErr(err))
	}
	req.Cursor = int64(cursor)
	var hash [8]byte
	if _, err := io.ReadFull(br, hash[:]); err != nil {
		return fail(frame.ReadErr(err))
	}
	req.PrefixHash = binary.LittleEndian.Uint64(hash[:])

	marked, err := readObsBlocks(br, func(obs []trace.GSMObservation) bool {
		req.Observations = append(req.Observations, obs...)
		return true
	})
	if err == nil && !marked {
		// End-of-stream without the marker: the upload was cut short.
		err = frame.ErrTruncated
	}
	if err != nil {
		return fail(err)
	}
	return true
}

type authedHandler func(w http.ResponseWriter, r *http.Request, userID string)

// auth wraps a handler with Bearer-token authentication.
func (s *Server) auth(h authedHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		hdr := r.Header.Get("Authorization")
		token, ok := strings.CutPrefix(hdr, "Bearer ")
		if !ok || token == "" {
			writeError(w, http.StatusUnauthorized, "missing bearer token")
			return
		}
		uid, err := s.store.Authenticate(token)
		if err != nil {
			writeError(w, http.StatusUnauthorized, "invalid or expired token")
			return
		}
		h(w, r, uid)
	}
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !s.decode(w, r, &req) {
		return
	}
	resp, err := s.store.Register(req.IMEI, req.Email)
	if err != nil {
		s.storeError(w, StableUserID(req.IMEI, req.Email), err, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	hdr := r.Header.Get("Authorization")
	token, ok := strings.CutPrefix(hdr, "Bearer ")
	if !ok || token == "" {
		writeError(w, http.StatusUnauthorized, "missing bearer token")
		return
	}
	resp, err := s.store.Refresh(token)
	if err != nil {
		writeError(w, http.StatusUnauthorized, "invalid or expired token")
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePlacesDiscover(w http.ResponseWriter, r *http.Request, uid string) {
	var req DiscoverPlacesRequest
	switch requestCodec(r) {
	case codecBinary:
		if !s.decodeDiscoverBinary(w, r, &req) {
			return
		}
	case codecJSON:
		if !s.decodeDiscoverJSON(w, r, &req) {
			return
		}
	default:
		unsupportedMediaType(w, r)
		return
	}
	if !req.Delta && len(req.Observations) == 0 {
		writeError(w, http.StatusBadRequest, "no observations")
		return
	}
	status, appended, err := s.store.SyncTrace(uid, req.Delta, req.Cursor, req.PrefixHash, req.Observations)
	if err != nil {
		if errors.Is(err, ErrTraceConflict) {
			s.pool.m.conflicts.Inc()
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		s.storeError(w, uid, err, http.StatusInternalServerError, "syncing trace: %v", err)
		return
	}
	if appended > 0 {
		s.pool.m.appended.Add(uint64(appended))
	}
	places, err := s.pool.discover(r.Context(), uid, status)
	if err != nil {
		if errors.Is(err, errDiscoverBusy) {
			// Backpressure: the queue is full. The hint keeps a retrying
			// fleet from hammering the pool while it drains.
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		writeError(w, http.StatusInternalServerError, "discovering places: %v", err)
		return
	}
	s.reply(w, r, http.StatusOK, &DiscoverPlacesResponse{
		Places:    places,
		TraceLen:  status.Len,
		TraceHash: status.Hash,
	})
}

func (s *Server) handlePlacesGet(w http.ResponseWriter, r *http.Request, uid string) {
	s.reply(w, r, http.StatusOK, &DiscoverPlacesResponse{Places: s.store.Places(uid)})
}

func (s *Server) handlePlacesLabel(w http.ResponseWriter, r *http.Request, uid string) {
	var req LabelRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := s.store.LabelPlace(uid, req.PlaceID, req.Label); err != nil {
		s.storeError(w, uid, err, http.StatusNotFound, "%v", err)
		return
	}
	writeAck(w)
}

// handlePlacesPopular serves the k-anonymous cross-user place aggregate.
func (s *Server) handlePlacesPopular(w http.ResponseWriter, r *http.Request, _ string) {
	q := r.URL.Query()
	k := 3
	if v := q.Get("k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 2 {
			writeError(w, http.StatusBadRequest, "bad k %q (minimum 2)", v)
			return
		}
		k = n
	}
	radius := 300.0
	if v := q.Get("radius"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			writeError(w, http.StatusBadRequest, "bad radius %q", v)
			return
		}
		radius = f
	}
	s.reply(w, r, http.StatusOK, &PopularPlacesResponse{
		K:      k,
		Places: s.popular.Places(k, radius),
	})
}

func (s *Server) handleRoutesDiscover(w http.ResponseWriter, r *http.Request, uid string) {
	var req DiscoverRoutesRequest
	if !s.decode(w, r, &req) {
		return
	}
	intervals := make([]route.Interval, 0, len(req.Visits))
	for _, v := range req.Visits {
		intervals = append(intervals, route.Interval{Start: v.Arrive, End: v.Depart})
	}
	routes := route.ExtractGSM(req.Observations, intervals, s.routeParams)
	wire := make([]RouteWire, 0, len(routes))
	for _, rt := range routes {
		wire = append(wire, RouteToWire(rt))
	}
	if err := s.store.SetRoutes(uid, wire); err != nil {
		s.storeError(w, uid, err, http.StatusInternalServerError, "storing routes: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, DiscoverRoutesResponse{Routes: wire})
}

func (s *Server) handleRoutesGet(w http.ResponseWriter, r *http.Request, uid string) {
	minFreq := 0
	if v := r.URL.Query().Get("min_frequency"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad min_frequency %q", v)
			return
		}
		minFreq = n
	}
	writeJSON(w, http.StatusOK, DiscoverRoutesResponse{Routes: s.store.Routes(uid, minFreq)})
}

func (s *Server) handleRouteSimilarity(w http.ResponseWriter, r *http.Request, _ string) {
	var req RouteSimilarityRequest
	if !s.decode(w, r, &req) {
		return
	}
	writeJSON(w, http.StatusOK, RouteSimilarityResponse{Similarity: route.SimilarityGSM(req.A, req.B)})
}

func (s *Server) handleProfilePut(w http.ResponseWriter, r *http.Request, uid string) {
	date := r.PathValue("date")
	if _, err := time.Parse(profile.DateFormat, date); err != nil {
		writeError(w, http.StatusBadRequest, "bad date %q", date)
		return
	}
	var p profile.DayProfile
	if !s.decodeAny(w, r, &p) {
		return
	}
	p.Date = date
	p.UserID = uid
	if err := s.store.PutProfile(uid, &p); err != nil {
		s.storeError(w, uid, err, http.StatusBadRequest, "%v", err)
		return
	}
	writeAck(w)
}

func (s *Server) handleProfileGet(w http.ResponseWriter, r *http.Request, uid string) {
	date := r.PathValue("date")
	p, ok := s.store.Profile(uid, date)
	if !ok {
		writeError(w, http.StatusNotFound, "no profile for %s", date)
		return
	}
	s.reply(w, r, http.StatusOK, p)
}

func (s *Server) handleProfileRange(w http.ResponseWriter, r *http.Request, uid string) {
	q := r.URL.Query()
	from, to := q.Get("from"), q.Get("to")
	if acceptsBinary(r) {
		// The zero-alloc read path: encode straight out of the store's
		// in-memory profiles under the shard read lock — no clones, no DTO
		// slice, one pooled buffer.
		s.metrics.wireBin.Inc()
		bp := getWireBuf()
		var e trace.BinaryEncoder
		e.Buf = append((*bp)[:0], wireVersion, wireKindProfileRange)
		s.store.viewProfileRange(uid, from, to,
			func(n int) { e.Uvarint(uint64(n)) },
			func(p *profile.DayProfile) { appendProfileBody(&e, p) })
		w.Header().Set("Content-Type", ContentTypeBinary)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(e.Buf)
		*bp = e.Buf
		putWireBuf(bp)
		return
	}
	s.metrics.wireJSON.Inc()
	writeJSON(w, http.StatusOK, s.store.ProfileRange(uid, from, to))
}

func (s *Server) handleContactsPost(w http.ResponseWriter, r *http.Request, uid string) {
	var req ContactsRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := s.store.AddContacts(uid, req.Encounters); err != nil {
		s.storeError(w, uid, err, http.StatusInternalServerError, "storing contacts: %v", err)
		return
	}
	writeAck(w)
}

func (s *Server) handleContactsGet(w http.ResponseWriter, r *http.Request, uid string) {
	writeJSON(w, http.StatusOK, ContactsResponse{Encounters: s.store.Contacts(uid, r.URL.Query().Get("place"))})
}

func (s *Server) handleGeoCell(w http.ResponseWriter, r *http.Request, _ string) {
	q := r.URL.Query()
	var id world.CellID
	var err error
	parse := func(key string) int {
		if err != nil {
			return 0
		}
		n, e := strconv.Atoi(q.Get(key))
		if e != nil {
			err = fmt.Errorf("bad %s %q", key, q.Get(key))
		}
		return n
	}
	id.MCC, id.MNC, id.LAC, id.CID = parse("mcc"), parse("mnc"), parse("lac"), parse("cid")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	entry, ok := s.cells.Lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown cell %s", id)
		return
	}
	writeJSON(w, http.StatusOK, entry)
}

func (s *Server) handlePredictArrival(w http.ResponseWriter, r *http.Request, uid string) {
	placeID := r.URL.Query().Get("place")
	if placeID == "" {
		writeError(w, http.StatusBadRequest, "place parameter required")
		return
	}
	sec, n := s.analytics.TypicalArrival(uid, placeID)
	if n == 0 {
		writeError(w, http.StatusNotFound, "no visits to %q", placeID)
		return
	}
	s.reply(w, r, http.StatusOK, &PredictArrivalResponse{PlaceID: placeID, TypicalArrivalSec: sec, SampleCount: n})
}

func (s *Server) handlePredictNext(w http.ResponseWriter, r *http.Request, uid string) {
	q := r.URL.Query()
	placeID := q.Get("place")
	if placeID == "" {
		writeError(w, http.StatusBadRequest, "place parameter required")
		return
	}
	after := time.Now()
	if v := q.Get("after"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad after %q", v)
			return
		}
		after = t
	}
	next, confident := s.analytics.PredictNextVisit(uid, placeID, after)
	s.reply(w, r, http.StatusOK, &PredictNextVisitResponse{PlaceID: placeID, NextVisit: next, Confident: confident})
}

func (s *Server) handleDwell(w http.ResponseWriter, r *http.Request, uid string) {
	placeID := r.URL.Query().Get("place")
	if placeID == "" {
		writeError(w, http.StatusBadRequest, "place parameter required")
		return
	}
	resp := s.analytics.DwellStats(uid, placeID)
	s.reply(w, r, http.StatusOK, &resp)
}

func (s *Server) handleFrequency(w http.ResponseWriter, r *http.Request, uid string) {
	q := r.URL.Query()
	placeID, label := q.Get("place"), q.Get("label")
	switch {
	case placeID != "":
		perWeek, total := s.analytics.VisitFrequency(uid, placeID)
		s.reply(w, r, http.StatusOK, &FrequencyResponse{PlaceID: placeID, VisitsPerWeek: perWeek, TotalVisits: total})
	case label != "":
		perWeek, total := s.analytics.FrequencyByLabel(uid, label)
		s.reply(w, r, http.StatusOK, &FrequencyResponse{PlaceID: "label:" + label, VisitsPerWeek: perWeek, TotalVisits: total})
	default:
		writeError(w, http.StatusBadRequest, "place or label parameter required")
	}
}

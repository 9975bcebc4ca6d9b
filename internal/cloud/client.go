package cloud

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/gsm"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/world"
)

// Client implements the cloud surface the mobile service consumes.
var _ core.CloudAPI = (*Client)(nil)

// errorBodyLimit caps how much of a non-2xx response body the client will
// read while extracting the error message.
const errorBodyLimit = 8 << 10

// drainLimit caps how much of a leftover body is drained before close so the
// underlying connection can be reused by the retry loop.
const drainLimit = 256 << 10

// Client is the mobile service's connection to the cloud instance: the
// communication-management module of Section 2.2.5 ("REST API based
// communication with the cloud instance"). It handles registration, token
// refresh on expiry, typed access to every endpoint, and transparent
// retry-with-backoff of idempotent calls on transient failures (the phone is
// assumed to live on an intermittent cellular link). Safe for concurrent use.
type Client struct {
	baseURL string
	http    *http.Client
	retry   RetryPolicy
	m       *clientMetrics

	imei  string
	email string

	mu       sync.Mutex
	token    string
	userID   string
	tokenGen uint64 // bumped whenever a new token is installed

	// refreshMu single-flights token recovery: when N concurrent calls hit
	// an expired token, exactly one performs the refresh round-trip and the
	// rest reuse the new token.
	refreshMu sync.Mutex

	// Delta sync cursor: the server-acknowledged trace position after the
	// last successful DiscoverPlaces. The next call uploads only the
	// observations past it (after re-verifying the prefix hash locally, so
	// an unrelated trace falls back to a full upload instead of corrupting
	// the server's copy).
	syncMu    sync.Mutex
	traceLen  int64
	traceHash uint64

	// wire is the request/response encoding this client speaks.
	wire WireCodec

	// router, when set (WithCluster), routes each call by the consistent-hash
	// ring instead of baseURL and drives failover across nodes.
	router *clusterRouter
}

// WireCodec selects the client's wire encoding.
type WireCodec int

const (
	// WireJSON is the historical JSON wire — the default, and
	// what every peer understands.
	WireJSON WireCodec = iota
	// WireBinary speaks application/x-pmware-bin (DESIGN.md §14) for every
	// message that has a binary encoding. There is no downgrade: a peer that
	// answers 415 fails the call with that status.
	WireBinary
)

func (wc WireCodec) String() string {
	if wc == WireBinary {
		return "bin"
	}
	return "json"
}

// WithWireCodec sets the wire encoding.
func WithWireCodec(wc WireCodec) ClientOption {
	return func(c *Client) { c.wire = wc }
}

// useBinary reports whether requests speak binary.
func (c *Client) useBinary() bool { return c.wire == WireBinary }

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithRetryPolicy overrides the client's retry/backoff policy.
func WithRetryPolicy(p RetryPolicy) ClientOption {
	return func(c *Client) { c.retry = p }
}

// NewClient builds a client for the given base URL (no trailing slash) and
// device identity. httpClient may be nil for http.DefaultClient.
func NewClient(baseURL, imei, email string, httpClient *http.Client, opts ...ClientOption) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{
		baseURL: baseURL,
		http:    httpClient,
		retry:   DefaultRetryPolicy(),
		imei:    imei,
		email:   email,
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.m == nil {
		c.m = defaultClientMetrics
	}
	if c.router != nil {
		c.router.key = StableUserID(imei, email)
		c.router.httpc = c.http
		c.router.m = c.m
	}
	return c
}

// UserID returns the registered user id (empty before first registration).
func (c *Client) UserID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.userID
}

// setToken installs a new token, bumping the generation counter that the
// single-flight recovery path uses to detect "someone already refreshed".
func (c *Client) setToken(token, userID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.token = token
	if userID != "" {
		c.userID = userID
	}
	c.tokenGen++
}

// snapshotToken returns the current token and its generation.
func (c *Client) snapshotToken() (string, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.token, c.tokenGen
}

// Register performs the one-time registration handshake, storing the token
// for subsequent calls.
func (c *Client) Register() error { return c.RegisterContext(context.Background()) }

// RegisterContext is Register with caller-controlled cancellation.
// Registration is idempotent on the server (same device key maps to the same
// user), so it is retried on transient failures.
func (c *Client) RegisterContext(ctx context.Context) error {
	var resp RegisterResponse
	rq := c.buffered(http.MethodPost, PathRegister, nil, RegisterRequest{IMEI: c.imei, Email: c.email}, &resp, false, true)
	if err := c.call(ctx, rq); err != nil {
		return fmt.Errorf("cloud: register: %w", err)
	}
	c.setToken(resp.Token, resp.UserID)
	return nil
}

// Refresh exchanges the current token for a fresh one. The exchange revokes
// the old token server-side, so it is deliberately not retried: a lost
// response is recovered by the 401 path falling back to Register.
func (c *Client) Refresh() error { return c.RefreshContext(context.Background()) }

// RefreshContext is Refresh with caller-controlled cancellation.
func (c *Client) RefreshContext(ctx context.Context) error {
	var resp RefreshResponse
	if err := c.call(ctx, c.buffered(http.MethodPost, PathRefresh, nil, nil, &resp, true, false)); err != nil {
		return fmt.Errorf("cloud: refresh: %w", err)
	}
	c.setToken(resp.Token, "")
	return nil
}

// ErrRequestTooLarge reports the server rejected an upload body as over its
// size cap (HTTP 413). Unlike transient faults this is terminal — retrying
// the same payload cannot succeed; the caller must shrink the upload.
// Surface it with errors.Is.
var ErrRequestTooLarge = errors.New("cloud: request body too large")

// statusError carries a non-2xx response.
type statusError struct {
	Status int
	Msg    string
	// RetryAfter is the server's Retry-After hint on backpressure responses
	// (0 when absent). The retry loop waits at least this long.
	RetryAfter time.Duration
	// Owner is the owning node's URL off a 421 Misdirected Request — the
	// cluster router re-targets there without refetching the ring.
	Owner string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("cloud: http %d: %s", e.Status, e.Msg)
}

// Is lets callers classify typed protocol rejections with errors.Is.
func (e *statusError) Is(target error) bool {
	return target == ErrRequestTooLarge && e.Status == http.StatusRequestEntityTooLarge
}

// StatusCode extracts the HTTP status behind a client-call error. ok is
// false when the error did not come from an HTTP response (transport
// failure, context cancellation) — the distinction the load harness uses to
// separate server rejections from connectivity faults.
func StatusCode(err error) (status int, ok bool) {
	var se *statusError
	if errors.As(err, &se) {
		return se.Status, true
	}
	return 0, false
}

// request describes one client call: everything attempt needs to put it on
// the wire and everything the loops around attempt need to decide whether it
// may be sent again.
type request struct {
	method, path string
	query        url.Values
	// The body is either payload, replayed from memory on every attempt, or
	// stream, run against a fresh pipe per attempt (chunked transfer) so the
	// serialized form of a whole upload never sits in memory.
	payload []byte
	stream  func(w io.Writer) error
	// header holds what the call sets beyond routing and auth: Content-Type,
	// Accept, an SSE subscription's Last-Event-ID.
	header http.Header
	// err fails the call before anything is sent (a body that would not
	// marshal).
	err error
	// auth attaches the bearer token.
	auth bool
	// idempotent enables automatic retry on transient errors.
	idempotent bool
	// longLived exempts the call from PerTryTimeout: it is bounded only by
	// the caller's context.
	longLived bool
	// A 2xx body is decoded into `into` (nil discards it), unless consume is
	// set: then the live body is handed to it and its error is the attempt's.
	into    any
	consume func(body io.Reader) error
}

// buffered builds the request for one marshalled message: the body is
// encoded once (binary when the active wire codec has an encoding for it,
// JSON otherwise) and replayed per attempt.
func (c *Client) buffered(method, path string, query url.Values, body, into any, auth, idempotent bool) *request {
	rq := &request{method: method, path: path, query: query, header: http.Header{}, into: into, auth: auth, idempotent: idempotent}
	if body != nil {
		rq.header.Set("Content-Type", "application/json")
		if c.useBinary() {
			if payload, ok := appendWire(nil, body); ok {
				rq.payload = payload
				rq.header.Set("Content-Type", ContentTypeBinary)
			}
		}
		if rq.payload == nil {
			if rq.payload, rq.err = json.Marshal(body); rq.err != nil {
				rq.err = fmt.Errorf("marshal request: %w", rq.err)
			}
		}
	}
	if into != nil && c.useBinary() && wireDecodable(into) {
		rq.header.Set("Accept", acceptBinary)
	}
	return rq
}

// acceptBinary offers binary but accepts JSON: finishResponse decodes by the
// response's own Content-Type, so a JSON answer costs nothing.
const acceptBinary = ContentTypeBinary + ", application/json;q=0.5"

// call is the only way a request leaves the client. It owns the call's route
// session, runs attempts under the retry policy, and replays the whole call
// once after a 421: that status is answered before the request touches any
// state (the ownership gate; a streamed upload handed off after its first
// appended batch is answered 503 instead), so a replay on the owner the
// session just adopted is always safe — including for non-idempotent calls
// and for retry policies whose attempt budget was already spent.
func (c *Client) call(ctx context.Context, rq *request) error {
	if rq.err != nil {
		return rq.err
	}
	rt := c.route()
	policy := c.retry.withSleepObserver(c.m.observeBackoff)
	if rq.longLived {
		policy.PerTryTimeout = 0
	}
	run := func() error {
		attempt := 0
		return policy.run(ctx, rq.idempotent, func(ctx context.Context) error {
			attempt++
			if attempt > 1 {
				c.m.retries.Inc()
			}
			return c.attempt(ctx, rt, rq)
		})
	}
	err := run()
	if status, _ := StatusCode(err); status == http.StatusMisdirectedRequest {
		err = run()
	}
	return err
}

// attempt performs a single HTTP exchange against the route session's
// current node and reports a failed one — no answer, or a non-2xx — back to
// the session, which re-targets.
func (c *Client) attempt(ctx context.Context, rt *routeSession, rq *request) error {
	u := rt.current() + rq.path
	if len(rq.query) > 0 {
		u += "?" + rq.query.Encode()
	}
	var tok string
	if rq.auth {
		if tok, _ = c.snapshotToken(); tok == "" {
			return &statusError{Status: http.StatusUnauthorized, Msg: "no token (register first)"}
		}
	}
	var body io.Reader
	switch {
	case rq.payload != nil:
		body = bytes.NewReader(rq.payload)
	case rq.stream != nil:
		pr, pw := io.Pipe()
		// The transport closes the read side when it is done with the body;
		// closing it again on return releases the writer on every other path.
		defer pr.Close()
		go func() {
			pw.CloseWithError(rq.stream(&wireCountWriter{w: pw, m: c.m.wireSentBytes}))
		}()
		body = pr
	}
	req, err := http.NewRequestWithContext(ctx, rq.method, u, body)
	if err != nil {
		return err
	}
	for k, v := range rq.header {
		req.Header[k] = v
	}
	if rq.auth {
		req.Header.Set("Authorization", "Bearer "+tok)
	}
	if c.router != nil {
		req.Header.Set(cluster.HeaderKey, c.router.key)
	}
	c.m.attempts.Inc()
	resp, err := c.http.Do(req)
	if err != nil {
		c.m.connErrors.Inc()
		rt.observe(err)
		return err
	}
	c.m.wireSentBytes.Add(uint64(len(rq.payload)))
	defer resp.Body.Close()
	if rq.consume != nil && resp.StatusCode/100 == 2 {
		// The node answered: however the live body ends is the consumer's to
		// classify, not a routing failure — the next attempt starts here.
		return rq.consume(resp.Body)
	}
	// Drain any leftover body (bounded) before close so the keep-alive
	// connection is reusable by the next attempt.
	defer io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit))
	if err = c.finishResponse(resp, rq.into); err != nil {
		rt.observe(err)
	}
	return err
}

// finishResponse classifies one HTTP response and, for 2xx, decodes the body
// into `into` by the RESPONSE's Content-Type — the server only answers
// binary when the request offered it, and a JSON answer to a
// binary-accepting request is not an error. Every body byte read is counted
// into client_wire_bytes_received_total.
func (c *Client) finishResponse(resp *http.Response, into any) error {
	if resp.StatusCode/100 != 2 {
		switch {
		case resp.StatusCode >= 500:
			c.m.http5xx.Inc()
		case resp.StatusCode >= 400:
			c.m.http4xx.Inc()
		}
		var e ErrorResponse
		data, _ := io.ReadAll(io.LimitReader(resp.Body, errorBodyLimit))
		c.m.wireRecvBytes.Add(uint64(len(data)))
		if jerr := json.Unmarshal(data, &e); jerr != nil || e.Error == "" {
			e.Error = strconv.Quote(truncateForError(data))
		}
		se := &statusError{Status: resp.StatusCode, Msg: e.Error}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, perr := strconv.Atoi(ra); perr == nil && secs > 0 {
				se.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		if resp.StatusCode == http.StatusMisdirectedRequest {
			se.Owner = resp.Header.Get(cluster.HeaderOwner)
		}
		return se
	}
	if into == nil {
		return nil
	}
	if mt, _, _ := mime.ParseMediaType(resp.Header.Get("Content-Type")); mt == ContentTypeBinary {
		bp := getWireBuf()
		defer putWireBuf(bp)
		buf, rerr := readAllInto((*bp)[:0], resp.Body)
		*bp = buf
		c.m.wireRecvBytes.Add(uint64(len(buf)))
		if rerr != nil {
			c.m.bodyErrors.Inc()
			return &transientError{err: fmt.Errorf("read response: %w", rerr)}
		}
		if derr := decodeWire(buf, into); derr != nil {
			// Same classification as garbled JSON below: a link failure, not
			// a protocol rejection.
			c.m.bodyErrors.Inc()
			return &transientError{err: fmt.Errorf("decode response: %w", derr)}
		}
		return nil
	}
	cr := &wireCountReader{r: resp.Body}
	err := json.NewDecoder(cr).Decode(into)
	c.m.wireRecvBytes.Add(cr.n)
	if err != nil {
		// A garbled or truncated 2xx body is a link failure, not a protocol
		// rejection: mark it transient so idempotent calls retry.
		c.m.bodyErrors.Inc()
		return &transientError{err: fmt.Errorf("decode response: %w", err)}
	}
	return nil
}

// wireCountReader counts response bytes as the JSON decoder pulls them
// (subscribe.go's countingReader serves the SSE path; this one feeds the
// wire byte counters).
type wireCountReader struct {
	r io.Reader
	n uint64
}

func (cr *wireCountReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += uint64(n)
	return n, err
}

// wireCountWriter counts request bytes as a streaming body writes them.
type wireCountWriter struct {
	w io.Writer
	m *obs.Counter
}

func (cw *wireCountWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.m.Add(uint64(n))
	return n, err
}

// truncateForError trims raw non-JSON error bodies to a loggable size.
func truncateForError(data []byte) string {
	const max = 200
	if len(data) > max {
		return string(data[:max]) + "..."
	}
	return string(data)
}

// authedCall is the buffered, authenticated call every typed endpoint makes.
func (c *Client) authedCall(ctx context.Context, method, path string, query url.Values, body, into any, idempotent bool) error {
	return c.withTokenRecovery(ctx, c.buffered(method, path, query, body, into, true, idempotent))
}

// withTokenRecovery wraps call with one automatic recovery from an expired
// token: refresh (or re-register when refresh is also rejected) and retry
// once. Recovery is single-flighted across goroutines.
func (c *Client) withTokenRecovery(ctx context.Context, rq *request) error {
	_, gen := c.snapshotToken()
	err := c.call(ctx, rq)
	if status, _ := StatusCode(err); status != http.StatusUnauthorized {
		return err
	}
	if rerr := c.recoverToken(ctx, gen); rerr != nil {
		return err
	}
	return c.call(ctx, rq)
}

// recoverToken obtains a fresh token after a 401. gen is the token
// generation the failed call was issued under: if another goroutine already
// installed a newer token, recovery is skipped and the caller just retries.
func (c *Client) recoverToken(ctx context.Context, gen uint64) error {
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	if _, cur := c.snapshotToken(); cur != gen {
		c.m.tokenCoalesced.Inc()
		return nil // someone else recovered while we waited
	}
	c.m.tokenRecovers.Inc()
	if err := c.RefreshContext(ctx); err == nil {
		return nil
	}
	return c.RegisterContext(ctx)
}

// DiscoverPlaces offloads GCA to the cloud (core.CloudAPI). The server
// replaces the user's whole place set, so the call is retry-safe.
func (c *Client) DiscoverPlaces(obs []trace.GSMObservation) ([]*gsm.Place, error) {
	return c.DiscoverPlacesContext(context.Background(), obs)
}

// DiscoverPlacesContext is DiscoverPlaces with caller-controlled
// cancellation. After the first successful call the client holds the
// server-acknowledged trace cursor and ships only the observations past it
// (delta sync); a 409 from the server — the persisted trace diverged from
// the cursor claim — falls back to a full upload within the same call.
func (c *Client) DiscoverPlacesContext(ctx context.Context, obs []trace.GSMObservation) ([]*gsm.Place, error) {
	cursor, hash, delta := c.traceCursor(obs)
	var resp DiscoverPlacesResponse
	var err error
	if delta {
		c.m.deltaUploads.Inc()
		req := &DiscoverPlacesRequest{Observations: obs[cursor:], Delta: true, Cursor: cursor, PrefixHash: hash}
		err = c.discoverCall(ctx, req, &resp)
		var se *statusError
		if errors.As(err, &se) && se.Status == http.StatusConflict {
			c.m.deltaFallbacks.Inc()
			delta = false
		}
	}
	if !delta {
		// On the binary wire the full-history fallback streams its frames
		// through a pipe (chunked transfer), so neither side ever buffers
		// the serialized form of the whole trace.
		err = c.discoverCall(ctx, &DiscoverPlacesRequest{Observations: obs}, &resp)
	}
	if err != nil {
		return nil, err
	}
	c.storeCursor(resp.TraceLen, resp.TraceHash)
	places := make([]*gsm.Place, 0, len(resp.Places))
	for _, w := range resp.Places {
		places = append(places, WireToPlace(w))
	}
	return places, nil
}

// discoverCall routes one discover upload: framed binary streaming when the
// binary wire is active, a buffered JSON body from the observation codec
// otherwise. Both retry — the server replaces or extends by cursor, so a
// replay is safe.
func (c *Client) discoverCall(ctx context.Context, req *DiscoverPlacesRequest, out *DiscoverPlacesResponse) error {
	rq := &request{method: http.MethodPost, path: PathPlacesDiscover, auth: true, idempotent: true, into: out}
	if c.useBinary() {
		rq.stream = func(w io.Writer) error { return writeDiscoverFrames(w, req) }
		rq.header = http.Header{"Content-Type": {ContentTypeBinary}, "Accept": {acceptBinary}}
	} else {
		rq.header = http.Header{"Content-Type": {contentTypeJSON}}
		// An observation of whole-second UTC time, five-digit cell fields
		// and a full-precision signal encodes to about 112 bytes.
		buf := make([]byte, 0, 128*(len(req.Observations)+1))
		if rq.payload, rq.err = appendDiscoverRequestJSON(buf, req); rq.err != nil {
			rq.err = fmt.Errorf("marshal request: %w", rq.err)
		}
	}
	return c.withTokenRecovery(ctx, rq)
}

// traceCursor decides whether obs can be uploaded as a delta: the stored
// cursor must cover a non-empty prefix of obs and that prefix must hash to
// the stored value (the caller handed us a trace that genuinely extends the
// last upload, not a trimmed or unrelated one). Returns delta=false for a
// full upload otherwise — including always on the first call, which
// preserves the server's "no observations" rejection of empty full uploads.
func (c *Client) traceCursor(obs []trace.GSMObservation) (cursor int64, hash uint64, delta bool) {
	c.syncMu.Lock()
	cursor, hash = c.traceLen, c.traceHash
	c.syncMu.Unlock()
	if cursor <= 0 || cursor > int64(len(obs)) {
		return 0, 0, false
	}
	if TraceHash(obs[:cursor]) != hash {
		return 0, 0, false
	}
	return cursor, hash, true
}

// storeCursor records the server's post-sync trace position. Written
// unconditionally: a concurrent call's stale overwrite only makes the next
// upload ship a longer (still correct) tail, and the server's overlap dedup
// keeps that harmless.
func (c *Client) storeCursor(n int64, h uint64) {
	c.syncMu.Lock()
	c.traceLen, c.traceHash = n, h
	c.syncMu.Unlock()
}

// SyncProfile uploads a day profile (core.CloudAPI). PUT is an upsert keyed
// by date, hence idempotent and retried.
func (c *Client) SyncProfile(p *profile.DayProfile) error {
	return c.SyncProfileContext(context.Background(), p)
}

// SyncProfileContext is SyncProfile with caller-controlled cancellation.
func (c *Client) SyncProfileContext(ctx context.Context, p *profile.DayProfile) error {
	return c.authedCall(ctx, http.MethodPut, PathProfiles+"/"+p.Date, nil, p, nil, true)
}

// GeolocateCell resolves a Cell-ID via the cloud geo service
// (core.CloudAPI).
func (c *Client) GeolocateCell(id world.CellID) (geo.LatLng, float64, error) {
	q := url.Values{}
	q.Set("mcc", strconv.Itoa(id.MCC))
	q.Set("mnc", strconv.Itoa(id.MNC))
	q.Set("lac", strconv.Itoa(id.LAC))
	q.Set("cid", strconv.Itoa(id.CID))
	var resp GeoCellResponse
	if err := c.authedCall(context.Background(), http.MethodGet, PathGeoCell, q, nil, &resp, true); err != nil {
		return geo.LatLng{}, 0, err
	}
	return geo.LatLng{Lat: resp.Lat, Lng: resp.Lng}, resp.AccuracyMeters, nil
}

// Places fetches the user's stored places.
func (c *Client) Places() ([]PlaceWire, error) {
	var resp DiscoverPlacesResponse
	if err := c.authedCall(context.Background(), http.MethodGet, PathPlaces, nil, nil, &resp, true); err != nil {
		return nil, err
	}
	return resp.Places, nil
}

// LabelPlace tags a stored place (setting a label twice is a no-op, so the
// call is retried).
func (c *Client) LabelPlace(placeID int, label string) error {
	return c.authedCall(context.Background(), http.MethodPost, PathPlacesLabel, nil, LabelRequest{PlaceID: placeID, Label: label}, nil, true)
}

// DiscoverRoutes offloads route extraction (whole-set replacement, retried).
func (c *Client) DiscoverRoutes(obs []trace.GSMObservation, visits []VisitWire) ([]RouteWire, error) {
	var resp DiscoverRoutesResponse
	if err := c.authedCall(context.Background(), http.MethodPost, PathRoutesDiscover, nil, DiscoverRoutesRequest{Observations: obs, Visits: visits}, &resp, true); err != nil {
		return nil, err
	}
	return resp.Routes, nil
}

// Routes fetches stored routes with at least minFrequency traversals.
func (c *Client) Routes(minFrequency int) ([]RouteWire, error) {
	q := url.Values{}
	if minFrequency > 0 {
		q.Set("min_frequency", strconv.Itoa(minFrequency))
	}
	var resp DiscoverRoutesResponse
	if err := c.authedCall(context.Background(), http.MethodGet, PathRoutes, q, nil, &resp, true); err != nil {
		return nil, err
	}
	return resp.Routes, nil
}

// RouteSimilarity compares two cell sequences on the cloud (pure
// computation, retried).
func (c *Client) RouteSimilarity(a, b []world.CellID) (float64, error) {
	var resp RouteSimilarityResponse
	if err := c.authedCall(context.Background(), http.MethodPost, PathRouteSimilarity, nil, RouteSimilarityRequest{A: a, B: b}, &resp, true); err != nil {
		return 0, err
	}
	return resp.Similarity, nil
}

// Profile fetches one day profile.
func (c *Client) Profile(date string) (*profile.DayProfile, error) {
	var p profile.DayProfile
	if err := c.authedCall(context.Background(), http.MethodGet, PathProfiles+"/"+date, nil, nil, &p, true); err != nil {
		return nil, err
	}
	return &p, nil
}

// ProfileRange fetches day profiles between two dates (inclusive; empty
// bounds are open).
func (c *Client) ProfileRange(from, to string) ([]*profile.DayProfile, error) {
	q := url.Values{}
	if from != "" {
		q.Set("from", from)
	}
	if to != "" {
		q.Set("to", to)
	}
	var ps []*profile.DayProfile
	if err := c.authedCall(context.Background(), http.MethodGet, PathProfiles, q, nil, &ps, true); err != nil {
		return nil, err
	}
	return ps, nil
}

// UploadContacts appends encounters to the user's contact log. Appending is
// not idempotent, so the call is never retried automatically — callers own
// redelivery (the service's outbox).
func (c *Client) UploadContacts(encs []profile.Encounter) error {
	return c.authedCall(context.Background(), http.MethodPost, PathContacts, nil, ContactsRequest{Encounters: encs}, nil, false)
}

// Contacts fetches encounters, optionally filtered by place.
func (c *Client) Contacts(placeID string) ([]profile.Encounter, error) {
	q := url.Values{}
	if placeID != "" {
		q.Set("place", placeID)
	}
	var resp ContactsResponse
	if err := c.authedCall(context.Background(), http.MethodGet, PathContacts, q, nil, &resp, true); err != nil {
		return nil, err
	}
	return resp.Encounters, nil
}

// PopularPlaces fetches the k-anonymous cross-user place aggregate.
func (c *Client) PopularPlaces(k int, radiusM float64) (PopularPlacesResponse, error) {
	q := url.Values{}
	if k > 0 {
		q.Set("k", strconv.Itoa(k))
	}
	if radiusM > 0 {
		q.Set("radius", strconv.FormatFloat(radiusM, 'f', -1, 64))
	}
	var resp PopularPlacesResponse
	err := c.authedCall(context.Background(), http.MethodGet, PathPlacesPopular, q, nil, &resp, true)
	return resp, err
}

// PredictArrival asks for the user's typical arrival time-of-day at a place.
func (c *Client) PredictArrival(placeID string) (PredictArrivalResponse, error) {
	q := url.Values{}
	q.Set("place", placeID)
	var resp PredictArrivalResponse
	err := c.authedCall(context.Background(), http.MethodGet, PathPredictArrival, q, nil, &resp, true)
	return resp, err
}

// PredictNextVisit asks when the user will next visit the place.
func (c *Client) PredictNextVisit(placeID string, after time.Time) (PredictNextVisitResponse, error) {
	q := url.Values{}
	q.Set("place", placeID)
	q.Set("after", after.Format(time.RFC3339))
	var resp PredictNextVisitResponse
	err := c.authedCall(context.Background(), http.MethodGet, PathPredictNext, q, nil, &resp, true)
	return resp, err
}

// VisitFrequency asks how often the user visits the place.
func (c *Client) VisitFrequency(placeID string) (FrequencyResponse, error) {
	q := url.Values{}
	q.Set("place", placeID)
	var resp FrequencyResponse
	err := c.authedCall(context.Background(), http.MethodGet, PathStatsFrequency, q, nil, &resp, true)
	return resp, err
}

// DwellStats asks for stay-duration statistics at a place.
func (c *Client) DwellStats(placeID string) (DwellStatsResponse, error) {
	q := url.Values{}
	q.Set("place", placeID)
	var resp DwellStatsResponse
	err := c.authedCall(context.Background(), http.MethodGet, PathStatsDwell, q, nil, &resp, true)
	return resp, err
}

// FrequencyByLabel asks how often the user visits places with a label (e.g.
// "how frequently does the user visit shopping malls?").
func (c *Client) FrequencyByLabel(label string) (FrequencyResponse, error) {
	q := url.Values{}
	q.Set("label", label)
	var resp FrequencyResponse
	err := c.authedCall(context.Background(), http.MethodGet, PathStatsFrequency, q, nil, &resp, true)
	return resp, err
}

package cloud

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/profile"
	"repro/internal/simclock"
)

// flakyFront fails the first n requests per path with the given status, then
// proxies to the real cloud handler.
type flakyFront struct {
	inner    http.Handler
	mu       sync.Mutex
	failures map[string]int // path -> remaining failures
	status   int
	hits     map[string]int
}

func newFlakyFront(inner http.Handler, status int) *flakyFront {
	return &flakyFront{inner: inner, failures: map[string]int{}, status: status, hits: map[string]int{}}
}

func (f *flakyFront) failNext(path string, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failures[path] = n
}

func (f *flakyFront) hitCount(path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits[path]
}

func (f *flakyFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.hits[r.URL.Path]++
	fail := f.failures[r.URL.Path] > 0
	if fail {
		f.failures[r.URL.Path]--
	}
	status := f.status
	f.mu.Unlock()
	if fail {
		writeError(w, status, "injected failure")
		return
	}
	f.inner.ServeHTTP(w, r)
}

// resilienceRig wires a flaky front over a real cloud server plus a
// fast-retry client.
func resilienceRig(t *testing.T, status int) (*flakyFront, *Client) {
	t.Helper()
	store := NewStore(fixedNow(simclock.Epoch))
	front := newFlakyFront(NewServer(store).Handler(), status)
	srv := httptest.NewServer(front)
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, "imei-r", "r@example.com", srv.Client(), WithRetryPolicy(fastRetry()))
	if err := c.Register(); err != nil {
		t.Fatalf("register: %v", err)
	}
	return front, c
}

// TestIdempotentCallRetriesOn5xx: a GET that hits two 503s still succeeds on
// the third attempt.
func TestIdempotentCallRetriesOn5xx(t *testing.T) {
	front, c := resilienceRig(t, http.StatusServiceUnavailable)
	front.failNext(PathPlaces, 2)
	if _, err := c.Places(); err != nil {
		t.Fatalf("Places after 2 injected 503s: %v", err)
	}
	if got := front.hitCount(PathPlaces); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
}

// TestIdempotentCallRetriesOn429: rate-limit responses are retried too.
func TestIdempotentCallRetriesOn429(t *testing.T) {
	front, c := resilienceRig(t, http.StatusTooManyRequests)
	front.failNext(PathPlaces, 1)
	if _, err := c.Places(); err != nil {
		t.Fatalf("Places after injected 429: %v", err)
	}
	if got := front.hitCount(PathPlaces); got != 2 {
		t.Errorf("server saw %d attempts, want 2", got)
	}
}

// TestRetryBudgetExhausted: more consecutive faults than attempts surface
// the failure to the caller.
func TestRetryBudgetExhausted(t *testing.T) {
	front, c := resilienceRig(t, http.StatusServiceUnavailable)
	front.failNext(PathPlaces, 100)
	if _, err := c.Places(); err == nil {
		t.Fatal("expected failure once the retry budget is spent")
	}
	want := DefaultRetryPolicy().MaxAttempts
	if got := front.hitCount(PathPlaces); got != want {
		t.Errorf("server saw %d attempts, want %d", got, want)
	}
}

// TestClientErrorNotRetried: 4xx rejections are terminal.
func TestClientErrorNotRetried(t *testing.T) {
	front, c := resilienceRig(t, http.StatusBadRequest)
	front.failNext(PathPlaces, 100)
	if _, err := c.Places(); err == nil {
		t.Fatal("expected a 400 to surface")
	}
	if got := front.hitCount(PathPlaces); got != 1 {
		t.Errorf("server saw %d attempts, want 1 (no retry on 4xx)", got)
	}
}

// TestNonIdempotentCallNotRetried: contact uploads append server-side, so a
// transient failure must not be replayed automatically.
func TestNonIdempotentCallNotRetried(t *testing.T) {
	front, c := resilienceRig(t, http.StatusServiceUnavailable)
	front.failNext(PathContacts, 1)
	err := c.UploadContacts([]profile.Encounter{{ContactID: "c1", PlaceID: "p1", Start: simclock.Epoch, End: simclock.Epoch.Add(1)}})
	if err == nil {
		t.Fatal("expected the injected 503 to surface")
	}
	if got := front.hitCount(PathContacts); got != 1 {
		t.Errorf("server saw %d attempts, want 1 (append is not idempotent)", got)
	}
}

// TestErrorBodyBounded: a huge non-JSON error body is read through a limit
// and truncated into the returned error rather than buffered wholesale.
func TestErrorBodyBounded(t *testing.T) {
	huge := strings.Repeat("x", 4<<20)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(huge))
	}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL, "imei-b", "b@example.com", srv.Client(), WithRetryPolicy(fastRetry()))
	err := c.Register()
	if err == nil {
		t.Fatal("expected the 400 to surface")
	}
	if len(err.Error()) > errorBodyLimit {
		t.Errorf("error message is %d bytes — body limit not applied", len(err.Error()))
	}
}

// TestSingleFlightTokenRecovery: N goroutines racing an invalid token must
// produce exactly one recovery round-trip (one refresh attempt, one
// re-register), not a stampede. Run under -race.
func TestSingleFlightTokenRecovery(t *testing.T) {
	store := NewStore(fixedNow(simclock.Epoch))
	inner := NewServer(store).Handler()
	var refreshes, registers atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case PathRefresh:
			refreshes.Add(1)
		case PathRegister:
			registers.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	c := NewClient(srv.URL, "imei-sf", "sf@example.com", srv.Client(), WithRetryPolicy(fastRetry()))
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the token in place: every authed call now starts with a 401.
	c.mu.Lock()
	c.token = "corrupted-token"
	c.mu.Unlock()

	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.Places()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	// Exactly one goroutine performed the recovery: one refresh attempt
	// (rejected — the corrupted token is unknown) and one re-register on
	// top of the initial registration.
	if got := refreshes.Load(); got != 1 {
		t.Errorf("refresh round-trips = %d, want 1 (single-flight)", got)
	}
	if got := registers.Load(); got != 2 {
		t.Errorf("register round-trips = %d, want 2 (initial + one recovery)", got)
	}
}

// TestTimeoutMiddlewareUnwedgesSlowHandler: a handler that outlives the
// request deadline gets cut off with a JSON 503 that the retry layer
// classifies as transient — a wedged handler cannot pin the mux.
func TestTimeoutMiddlewareUnwedgesSlowHandler(t *testing.T) {
	release := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done(): // middleware cancelled us
		case <-release:
		}
	})
	srv := httptest.NewServer(TimeoutMiddleware(slow, 30*time.Millisecond))
	t.Cleanup(func() { close(release); srv.Close() })

	c := NewClient(srv.URL, "imei-t", "t@example.com", srv.Client(),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 1}))
	err := c.Register()
	if err == nil {
		t.Fatal("expected the timed-out request to fail")
	}
	var se *statusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want a 503 statusError", err)
	}
	if !retryable(se) {
		t.Error("a request timeout must be classified as retryable")
	}
}

// TestZeroTimeoutDisablesMiddleware: a zero timeout passes the mux through
// unwrapped.
func TestZeroTimeoutDisablesMiddleware(t *testing.T) {
	h := http.NewServeMux()
	if got := TimeoutMiddleware(h, 0); got != http.Handler(h) {
		t.Error("TimeoutMiddleware(h, 0) wrapped the handler")
	}
}

// TestTimeoutMiddlewareDeadlineContract: a response begun before the
// deadline reaches the client whole; one begun after it is dropped, and a
// handler that sent nothing by the deadline is answered with a JSON 503 once
// it returns, whether or not it tried to write.
func TestTimeoutMiddlewareDeadlineContract(t *testing.T) {
	const d = 20 * time.Millisecond
	// sleepPastDeadline ignores the request context, like a handler stuck
	// in work that does not take one.
	sleepPastDeadline := func(r *http.Request) {
		deadline, _ := r.Context().Deadline()
		time.Sleep(time.Until(deadline) + time.Millisecond)
	}
	timedOut := `{"error":"request timed out"}` + "\n"
	cases := []struct {
		name string
		// serve returns the error of the handler's last Write.
		serve      func(w http.ResponseWriter, r *http.Request) error
		wantStatus int
		wantType   string
		wantBody   string
		wantErr    error
	}{{
		name: "begun before the deadline",
		serve: func(w http.ResponseWriter, r *http.Request) error {
			w.Header().Set("Content-Type", "text/plain")
			w.WriteHeader(http.StatusOK)
			if _, err := w.Write([]byte("head,")); err != nil {
				return err
			}
			<-r.Context().Done()
			_, err := w.Write([]byte("tail"))
			return err
		},
		wantStatus: http.StatusOK, wantType: "text/plain", wantBody: "head,tail",
	}, {
		name: "begun after the deadline",
		serve: func(w http.ResponseWriter, r *http.Request) error {
			sleepPastDeadline(r)
			w.Header().Set("Content-Type", "text/plain")
			w.WriteHeader(http.StatusOK)
			_, err := w.Write([]byte("late"))
			return err
		},
		wantStatus: http.StatusServiceUnavailable, wantType: "application/json", wantBody: timedOut,
		wantErr: http.ErrHandlerTimeout,
	}, {
		name: "nothing written by the deadline",
		serve: func(w http.ResponseWriter, r *http.Request) error {
			sleepPastDeadline(r)
			return nil
		},
		wantStatus: http.StatusServiceUnavailable, wantType: "application/json", wantBody: timedOut,
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			writeErr := make(chan error, 1)
			srv := httptest.NewServer(TimeoutMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				writeErr <- tc.serve(w, r)
			}), d))
			defer srv.Close()
			resp, err := srv.Client().Get(srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.wantStatus || resp.Header.Get("Content-Type") != tc.wantType || string(body) != tc.wantBody {
				t.Errorf("got %d %q %q, want %d %q %q", resp.StatusCode, resp.Header.Get("Content-Type"), body,
					tc.wantStatus, tc.wantType, tc.wantBody)
			}
			if err := <-writeErr; !errors.Is(err, tc.wantErr) {
				t.Errorf("handler's Write returned %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// BenchmarkTimeoutMiddleware is the middleware's own per-request cost: a
// trivial handler answered into a ResponseRecorder.
func BenchmarkTimeoutMiddleware(b *testing.B) {
	body := []byte("ok")
	h := TimeoutMiddleware(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write(body)
	}), DefaultRequestTimeout)
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
}

// TestExpiredTokenRecoveredTransparently: the simulated clock jumping past
// TokenTTL must not surface to callers — the client refreshes and retries.
func TestExpiredTokenRecoveredTransparently(t *testing.T) {
	ts := newTestServer(t)
	c := ts.client()
	if err := c.Register(); err != nil {
		t.Fatal(err)
	}
	*ts.now = ts.now.Add(TokenTTL + time.Hour)
	if _, err := c.Places(); err != nil {
		t.Fatalf("Places after token expiry: %v", err)
	}
}

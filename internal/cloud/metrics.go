package cloud

import (
	"log"
	"net/http"
	"time"

	"repro/internal/obs"
)

// serverMetrics is the PCI front end's metric bundle (DESIGN.md §10).
//
// Family inventory:
//
//	pci_http_requests_total{route=...}       requests served, per named route
//	pci_http_request_duration_us{route=...}  per-route handler latency histogram
//	pci_http_responses_total{class=...}      responses by status class (2xx/3xx/4xx/5xx)
//	pci_http_in_flight                       gauge of requests currently in handlers
//	pci_http_slow_requests_total             requests over the slow-request threshold
//	pci_wire_encoding_total{codec=...}       negotiated response bodies by codec (json/bin)
type serverMetrics struct {
	reg       *obs.Registry
	requests  *obs.CounterVec
	responses [len(statusClasses)]*obs.Counter // indexed by statusClass
	inFlight  *obs.Gauge
	slow      *obs.Counter
	wireJSON  *obs.Counter
	wireBin   *obs.Counter
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	encodings := reg.CounterVec("pci_wire_encoding_total", "codec")
	m := &serverMetrics{
		reg:      reg,
		requests: reg.CounterVec("pci_http_requests_total", "route"),
		inFlight: reg.Gauge("pci_http_in_flight"),
		slow:     reg.Counter("pci_http_slow_requests_total"),
		// Labels resolved eagerly so a fresh boot exposes the families
		// (and the hot path pays one atomic add, not a map lookup).
		wireJSON: encodings.With("json"),
		wireBin:  encodings.With("bin"),
	}
	classes := reg.CounterVec("pci_http_responses_total", "class")
	for i, class := range statusClasses {
		m.responses[i] = classes.With(class)
	}
	return m
}

// WithMetrics registers the server's pci_http_* families in reg instead of
// the process-wide default registry. Tests inject a private registry here for
// exact delta assertions.
func WithMetrics(reg *obs.Registry) ServerOption {
	return func(s *Server) { s.metrics = newServerMetrics(reg) }
}

// WithSlowRequestLog logs a structured line (and bumps
// pci_http_slow_requests_total) for every request whose handler ran longer
// than threshold. threshold <= 0 disables the log. A nil logger means the
// process default.
func WithSlowRequestLog(threshold time.Duration, logger *log.Logger) ServerOption {
	return func(s *Server) {
		s.slowThreshold = threshold
		s.slowLog = logger
	}
}

// statusRecorder captures the status code a handler wrote so the middleware
// can classify the response after the fact. A handler that never calls
// WriteHeader implicitly wrote 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so instrumented streaming routes
// (SSE) keep http.Flusher through the middleware.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.NewResponseController.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// statusClasses are the class label values, indexed by statusClass.
var statusClasses = [...]string{"2xx", "3xx", "4xx", "5xx"}

func statusClass(code int) int {
	switch {
	case code >= 500:
		return 3
	case code >= 400:
		return 2
	case code >= 300:
		return 1
	default:
		return 0
	}
}

// instrument wraps one named route with the serving metrics: request count
// and latency per route, response count per status class, the in-flight
// gauge, and the slow-request log. Handles are resolved here, once per route
// at mux-registration time, so the per-request cost is a handful of atomic
// operations.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	m := s.metrics
	reqs := m.requests.With(route)
	dur := m.reg.Histogram(obs.Labeled("pci_http_request_duration_us", "route", route), obs.DefaultLatencyBuckets())
	return func(w http.ResponseWriter, r *http.Request) {
		m.inFlight.Inc()
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		elapsed := time.Since(start)
		m.inFlight.Dec()
		reqs.Inc()
		dur.ObserveDuration(elapsed)
		m.responses[statusClass(rec.status)].Inc()
		if s.slowThreshold > 0 && elapsed >= s.slowThreshold {
			m.slow.Inc()
			logger := s.slowLog
			if logger == nil {
				logger = log.Default()
			}
			logger.Printf("slow-request route=%s method=%s path=%s status=%d duration_ms=%d threshold_ms=%d",
				route, r.Method, r.URL.Path, rec.status, elapsed.Milliseconds(), s.slowThreshold.Milliseconds())
		}
	}
}

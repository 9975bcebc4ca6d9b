package cloud

import (
	"time"

	"repro/internal/obs"
)

// clientMetrics is the PMS-side communication module's metric bundle
// (DESIGN.md §10). Ground truth for the delta tests: every HTTP attempt is
// exactly one RoundTrip, so under the chaos fixture client_attempts_total
// must equal faultnet's Stats.Requests, client_conn_errors_total its
// ConnErrors, and client_http_5xx_total its ServerError count.
//
// Family inventory (all counters):
//
//	client_attempts_total                   HTTP attempts issued (RoundTrips)
//	client_retries_total                    attempts beyond the first per call
//	client_conn_errors_total                transport-level failures
//	client_http_5xx_total                   5xx responses received
//	client_http_4xx_total                   4xx responses received
//	client_body_errors_total                garbled/truncated 2xx bodies
//	client_backoff_sleeps_total             backoff waits taken
//	client_backoff_sleep_us_total           summed jittered backoff (µs)
//	client_token_recoveries_total           refresh/re-register round-trips run
//	client_token_recoveries_coalesced_total 401 recoveries absorbed by single-flight
//	client_delta_uploads_total              discover calls shipped as cursor deltas
//	client_delta_fallbacks_total            deltas rejected 409, re-sent as full uploads
//	client_wire_bytes_sent_total            request body bytes written, any codec
//	client_wire_bytes_received_total        response body bytes read, any codec
//	client_cluster_failovers_total          candidate advances on conn error / 5xx
//	client_cluster_redirects_total          421 redirects adopted from X-PMWare-Owner
type clientMetrics struct {
	attempts       *obs.Counter
	retries        *obs.Counter
	connErrors     *obs.Counter
	http5xx        *obs.Counter
	http4xx        *obs.Counter
	bodyErrors     *obs.Counter
	backoffSleeps  *obs.Counter
	backoffSleepUs *obs.Counter
	tokenRecovers  *obs.Counter
	tokenCoalesced *obs.Counter
	deltaUploads   *obs.Counter
	deltaFallbacks *obs.Counter
	wireSentBytes  *obs.Counter
	wireRecvBytes  *obs.Counter

	clusterFailovers *obs.Counter
	clusterRedirects *obs.Counter
}

func newClientMetrics(reg *obs.Registry) *clientMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &clientMetrics{
		attempts:       reg.Counter("client_attempts_total"),
		retries:        reg.Counter("client_retries_total"),
		connErrors:     reg.Counter("client_conn_errors_total"),
		http5xx:        reg.Counter("client_http_5xx_total"),
		http4xx:        reg.Counter("client_http_4xx_total"),
		bodyErrors:     reg.Counter("client_body_errors_total"),
		backoffSleeps:  reg.Counter("client_backoff_sleeps_total"),
		backoffSleepUs: reg.Counter("client_backoff_sleep_us_total"),
		tokenRecovers:  reg.Counter("client_token_recoveries_total"),
		tokenCoalesced: reg.Counter("client_token_recoveries_coalesced_total"),
		deltaUploads:   reg.Counter("client_delta_uploads_total"),
		deltaFallbacks: reg.Counter("client_delta_fallbacks_total"),
		wireSentBytes:  reg.Counter("client_wire_bytes_sent_total"),
		wireRecvBytes:  reg.Counter("client_wire_bytes_received_total"),

		clusterFailovers: reg.Counter("client_cluster_failovers_total"),
		clusterRedirects: reg.Counter("client_cluster_redirects_total"),
	}
}

// defaultClientMetrics registers the client_* families in the process-wide
// registry at package init, so a booted pmware-cloud exposes them on /metrics
// even before any client traffic arrives.
var defaultClientMetrics = newClientMetrics(nil)

// WithClientMetrics registers the client's client_* families in reg instead
// of the process-wide default registry.
func WithClientMetrics(reg *obs.Registry) ClientOption {
	return func(c *Client) { c.m = newClientMetrics(reg) }
}

// observeBackoff feeds RetryPolicy's sleep observer.
func (m *clientMetrics) observeBackoff(d time.Duration) {
	m.backoffSleeps.Inc()
	if us := d.Microseconds(); us > 0 {
		m.backoffSleepUs.Add(uint64(us))
	}
}

package cloud

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/core"
	"repro/internal/events"
)

// SubscribeOption customizes a Subscribe call.
type SubscribeOption func(*subscribeConfig)

type subscribeConfig struct {
	granularity string
	bus         *core.Bus
	buffer      int
}

// WithSubscribeGranularity asks the server to clamp every delivered event's
// positional payload to the given privacy tier ("area", "building", or
// "room"; empty leaves the server default).
func WithSubscribeGranularity(tier string) SubscribeOption {
	return func(c *subscribeConfig) { c.granularity = tier }
}

// WithEventBus bridges the subscription onto an in-process Connected
// Applications bus: every delivered event is also broadcast as the core
// intent local detection would have produced, so PMS-side apps receive
// identical events regardless of where detection ran.
func WithEventBus(b *core.Bus) SubscribeOption {
	return func(c *subscribeConfig) { c.bus = b }
}

// WithSubscribeBuffer sets the capacity of the Subscription's delivery
// channel (default 64).
func WithSubscribeBuffer(n int) SubscribeOption {
	return func(c *subscribeConfig) { c.buffer = n }
}

// Subscription is a live event subscription. Events (including the reset and
// evicted control events, which consumers may use to trigger an out-of-band
// state refresh) arrive on C; the channel closes when the subscription ends,
// after which Err reports why (nil on Close or parent-context cancellation).
type Subscription struct {
	C <-chan events.Event

	ch     chan events.Event
	cancel context.CancelFunc
	done   chan struct{}
	err    error // written once before done closes
}

// Close tears the subscription down and waits for its goroutine to exit.
// Idempotent.
func (s *Subscription) Close() {
	s.cancel()
	<-s.done
}

// Err reports why the subscription ended: nil while live or after a clean
// Close/cancellation, the terminal failure otherwise. Only valid to inspect
// after C closes.
func (s *Subscription) Err() error {
	select {
	case <-s.done:
		return s.err
	default:
		return nil
	}
}

// Subscribe opens a server-sent-events subscription to the authenticated
// user's place events (GET /api/v1/events/subscribe) and keeps it open:
// dropped connections reconnect under the client's retry policy, resuming
// from the last delivered sequence number via Last-Event-ID so no event is
// missed or duplicated across the gap. A 401 mid-subscription recovers the
// token exactly like every other authenticated call. The subscription ends
// only when ctx is cancelled, Close is called, or consecutive reconnect
// attempts exhaust the retry budget without a single delivered frame.
func (c *Client) Subscribe(ctx context.Context, opts ...SubscribeOption) (*Subscription, error) {
	cfg := subscribeConfig{buffer: 64}
	for _, opt := range opts {
		opt(&cfg)
	}
	if tok, _ := c.snapshotToken(); tok == "" {
		return nil, errors.New("cloud: subscribe: no token (register first)")
	}
	sctx, cancel := context.WithCancel(ctx)
	sub := &Subscription{
		ch:     make(chan events.Event, cfg.buffer),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	sub.C = sub.ch
	go sub.run(sctx, c, cfg)
	return sub, nil
}

// run is the subscription's reconnect loop around Client.attempt — its own
// policy rather than Client.call's, because a connection that delivered
// anything is not a failed try. failures counts consecutive attempts that
// delivered nothing; it indexes the retry policy's backoff schedule and
// resets whenever a connection proves healthy, so a long-lived subscription
// survives any number of transient faults while a hard-down server still
// exhausts the policy's attempt budget and surfaces an error. The route
// session lives as long as the subscription: a failed connect or a non-2xx
// re-targets it (a connection that was answered and later dropped reconnects
// to the same node first), and the first 421 of a failure streak reconnects
// to the owner it named at once, spending neither backoff nor budget.
func (s *Subscription) run(ctx context.Context, c *Client, cfg subscribeConfig) {
	defer close(s.ch) // after done: a consumer that sees C closed must find Err set
	defer close(s.done)
	policy := c.retry.withSleepObserver(c.m.observeBackoff)
	rt := c.route()
	rq := &request{method: http.MethodGet, path: PathEventsSubscribe, header: http.Header{"Accept": {"text/event-stream"}}, auth: true}
	if cfg.granularity != "" {
		rq.query = url.Values{"granularity": {cfg.granularity}}
	}
	var lastSeq uint64 // resume point: the last sequence number delivered
	delivered := false
	rq.consume = func(body io.Reader) error {
		cr := &countingReader{r: body}
		err := s.pump(ctx, cr, cfg, &lastSeq)
		delivered = cr.seen
		return err
	}
	failures, redirected := 0, false
	for {
		if failures > 0 {
			if failures >= policy.attempts() {
				s.err = fmt.Errorf("cloud: subscribe: reconnect budget exhausted: %w", s.err)
				return
			}
			c.m.retries.Inc()
			if policy.wait(ctx, failures-1, 0) != nil {
				s.err = nil // parent cancelled during backoff: clean shutdown
				return
			}
		}
		delivered = false
		if lastSeq > 0 {
			rq.header.Set("Last-Event-ID", strconv.FormatUint(lastSeq, 10))
		}
		_, gen := c.snapshotToken()
		err := c.attempt(ctx, rt, rq)
		if ctx.Err() != nil {
			s.err = nil
			return
		}
		s.err = err
		switch status, _ := StatusCode(err); {
		case delivered:
			failures, redirected = 0, false
		case status == http.StatusMisdirectedRequest && !redirected:
			redirected = true
		case status == http.StatusUnauthorized:
			failures++
			if rerr := c.recoverToken(ctx, gen); rerr != nil {
				s.err = fmt.Errorf("cloud: subscribe: token recovery: %w", rerr)
				return
			}
		case status/100 == 4 && status != http.StatusTooManyRequests && status != http.StatusMisdirectedRequest:
			// Protocol rejection (bad granularity; a shut-down hub answers
			// 503 and is retried): reconnecting cannot help.
			s.err = fmt.Errorf("cloud: subscribe: %w", err)
			return
		default:
			failures++
		}
	}
}

// countingReader flags whether any body bytes arrived — the connection
// health signal. Heartbeat comments count: a subscription can legitimately
// idle for hours with no events, and its eventual drop is not the server
// being down.
type countingReader struct {
	r    io.Reader
	seen bool
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.seen = true
	}
	return n, err
}

// pump reads SSE frames off one connection's body until it breaks, advancing
// lastSeq — the resume point the next connection sends as Last-Event-ID.
func (s *Subscription) pump(ctx context.Context, body io.Reader, cfg subscribeConfig, lastSeq *uint64) error {
	fr := events.NewFrameReader(body)
	for {
		frame, ferr := fr.Next()
		if ferr != nil {
			// EOF included: the server went away; reconnect and resume.
			return fmt.Errorf("cloud: subscribe: stream: %w", ferr)
		}
		var ev events.Event
		switch frame.Event {
		case events.KindReset:
			// The server could not replay our resume point: accept its head
			// sequence so the stream continues, and pass the reset through so
			// the consumer can refresh authoritative state out of band.
			ev = events.Event{Type: events.KindReset, Seq: frame.Seq()}
			*lastSeq = frame.Seq()
		case events.KindEvicted:
			// Final frame before the server closes a slow consumer: surface
			// it, then let the read loop hit EOF and reconnect with resume.
			ev = events.Event{Type: events.KindEvicted}
		default:
			dev, derr := frame.DecodeEvent()
			if derr != nil {
				return fmt.Errorf("cloud: subscribe: bad event frame: %w", derr)
			}
			ev = dev
			*lastSeq = ev.Seq
		}
		if cfg.bus != nil {
			if in, ok := events.ToIntent(ev); ok {
				cfg.bus.Broadcast(in)
			}
		}
		select {
		case s.ch <- ev:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

package cloud

import (
	"context"
	"errors"
	"io"
	"net/http"
	"sync"

	"repro/internal/cluster"
)

// clusterRouter is the client side of ring routing: it computes the device's
// routing key locally (the same StableUserID every node derives), fetches
// the ring lazily, and orders candidate node URLs by expected ownership so
// the common case is one hop to the right node. Requests carry the key in
// X-PMWare-Key; nodes gate on it and answer 421 with the owner's URL when
// the client guessed wrong, which the router adopts as a sticky target.
type clusterRouter struct {
	peers []string
	key   string
	httpc *http.Client
	m     *clientMetrics

	mu     sync.Mutex
	ring   *cluster.Ring
	sticky string // owner URL learned from the last 421 redirect
}

// WithCluster makes the client cluster-aware: targets are the node base URLs
// (any order; the ring is fetched from whichever answers first). Every call
// is ring-routed, so the client's base URL argument is ignored.
func WithCluster(targets []string) ClientOption {
	return func(c *Client) {
		if len(targets) == 0 {
			return
		}
		c.router = &clusterRouter{peers: append([]string(nil), targets...)}
	}
}

// refreshRing fetches the current ring from the first peer that answers,
// keeping the newest version seen.
func (r *clusterRouter) refreshRing() {
	for _, p := range r.peers {
		resp, err := r.httpc.Get(p + cluster.PathRing)
		if err != nil {
			continue
		}
		b, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		ring, derr := cluster.DecodeRing(b)
		if derr != nil {
			continue
		}
		r.mu.Lock()
		if r.ring == nil || ring.Version > r.ring.Version {
			r.ring = ring
		}
		r.mu.Unlock()
		return
	}
}

// candidates orders node URLs by expected ownership: the sticky owner from a
// 421 first, then the ring primary and its follower (the failover target
// holding the replica), then every remaining peer.
func (r *clusterRouter) candidates() []string {
	r.mu.Lock()
	ring, sticky := r.ring, r.sticky
	r.mu.Unlock()
	out := make([]string, 0, len(r.peers)+1)
	seen := map[string]bool{}
	add := func(u string) {
		if u != "" && !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	add(sticky)
	if ring != nil {
		if p, ok := ring.Primary(r.key); ok {
			add(p.URL)
			if f, ok := ring.Follower(p.ID); ok {
				add(f.URL)
			}
		}
	}
	for _, p := range r.peers {
		add(p)
	}
	return out
}

func (r *clusterRouter) adopt(owner string) {
	r.mu.Lock()
	r.sticky = owner
	r.mu.Unlock()
}

// clearSticky drops the sticky target if it still points at u — the node
// just failed an attempt, so trusting the old redirect would loop on it.
func (r *clusterRouter) clearSticky(u string) {
	r.mu.Lock()
	if r.sticky == u {
		r.sticky = ""
	}
	r.mu.Unlock()
}

// route opens one call's routing session: a walk over the ring's candidates
// for a cluster-aware client, the fixed base URL otherwise.
func (c *Client) route() *routeSession {
	r := c.router
	if r == nil {
		return &routeSession{cands: []string{c.baseURL}}
	}
	r.mu.Lock()
	haveRing := r.ring != nil
	r.mu.Unlock()
	if !haveRing {
		r.refreshRing()
	}
	return &routeSession{r: r, cands: r.candidates()}
}

// routeSession is one call's walk over the candidate list: each attempt asks
// current() for its base URL, and observe() repositions after a failure.
type routeSession struct {
	r     *clusterRouter // nil: one fixed candidate, nothing to reposition
	cands []string
	cur   int
}

func (s *routeSession) current() string {
	if len(s.cands) == 0 {
		return s.r.peers[0]
	}
	return s.cands[s.cur%len(s.cands)]
}

// observe classifies one failed attempt. A 421 carries the owner's URL:
// adopt it (sticky, so later calls start there) and retarget this session. A
// transport failure or 5xx means the node is unhealthy: advance to the next
// candidate. Protocol rejections (4xx) stay on the current node — they are
// the caller's problem, not a routing one.
func (s *routeSession) observe(err error) {
	if s.r == nil {
		return
	}
	var se *statusError
	if errors.As(err, &se) {
		switch {
		case se.Status == http.StatusMisdirectedRequest && se.Owner != "":
			s.r.m.clusterRedirects.Inc()
			s.r.adopt(se.Owner)
			s.retarget(se.Owner)
		case se.Status >= 500:
			s.advance()
		}
		return
	}
	if errors.Is(err, context.Canceled) {
		return
	}
	s.advance()
}

func (s *routeSession) retarget(u string) {
	for i, c := range s.cands {
		if c == u {
			s.cur = i
			return
		}
	}
	s.cands = append(s.cands, u)
	s.cur = len(s.cands) - 1
}

func (s *routeSession) advance() {
	s.r.m.clusterFailovers.Inc()
	s.r.clearSticky(s.current())
	s.cur++
	if s.cur >= len(s.cands) {
		// Every candidate failed once. A failover may have published a new
		// ring by now: refresh and start the walk over.
		s.r.refreshRing()
		s.cands = s.r.candidates()
		s.cur = 0
	}
}

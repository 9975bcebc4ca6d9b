package events

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Config tunes the hub. Zero values pick the defaults.
type Config struct {
	// QueueCap is the per-subscriber bounded queue capacity. A subscriber
	// whose queue is full when an event arrives is evicted (stream closed,
	// event counted as dropped) rather than ever blocking the dispatch
	// loop. Default 64.
	QueueCap int
	// History is the per-user replay ring capacity backing Last-Event-ID
	// resume; a user's ring grows to it on demand. A reconnect asking for
	// events older than the ring holds gets a gap signal instead of
	// silence. Default 256.
	History int
	// Registry, when set, registers the pci_events_* metric families.
	Registry *obs.Registry
	// Now stamps PublishedUnixNano on events; injected for tests.
	// Default time.Now.
	Now func() time.Time
}

const (
	defaultQueueCap = 64
	defaultHistory  = 256
)

// Hub is the fanout core: one authoritative dispatch goroutine owns every
// per-user event log and every subscriber queue, so publish and subscribe
// paths serialize through a single command channel and the emit path takes
// no locks at all — fanout is a non-blocking send per subscriber,
// O(subscribers) per event. Slow consumers are evicted, never waited on.
//
// Events are sequence-numbered per user (1-based, gapless) and retained in
// a bounded ring; a subscriber presenting Last-Event-ID resumes with an
// exact replay when the ring still holds the tail, and an explicit gap
// signal when it does not.
type Hub struct {
	cfg  Config
	cmds chan hubCmd
	quit chan struct{}
	done chan struct{}

	closeOnce sync.Once

	// users is owned by the dispatch loop; no lock anywhere.
	users map[string]*userStream

	published   *obs.Counter
	delivered   *obs.Counter
	dropped     *obs.Counter
	evictions   *obs.Counter
	resumed     *obs.Counter
	gaps        *obs.Counter
	subscribers *obs.Gauge
}

type userStream struct {
	seq  uint64  // last assigned sequence number
	ring []Event // replay buffer: grows to cfg.History, then cyclic
	subs []*Subscriber
}

type hubCmd struct {
	// exactly one of the following is set
	pub     *Event // publish (UserID already filled)
	sub     *subscribeReq
	unsub   *Subscriber
	barrier chan struct{} // closed once every prior command applied
}

type subscribeReq struct {
	userID  string
	lastSeq uint64
	reply   chan *Subscriber
}

// Subscriber is one attached consumer. Read events from C until it closes;
// then check Evicted to distinguish slow-consumer eviction (resume with
// Last-Event-ID) from hub shutdown.
type Subscriber struct {
	// UserID is the stream this subscriber is attached to.
	UserID string
	// C delivers events in sequence order. Closed on eviction, Close, or
	// hub shutdown.
	C <-chan Event
	// Gap is true when the subscription's Last-Event-ID predates the
	// replay ring: events were lost and the consumer should resynchronize
	// out of band. Set before the Subscriber is returned; read-only after.
	Gap bool
	// HeadSeq is the user stream's head sequence number at subscribe time
	// (the gap signal's payload). Read-only after return.
	HeadSeq uint64

	hub       *Hub
	ch        chan Event
	evicted   bool // owned by the dispatch loop until ch closes
	closeOnce sync.Once
}

// Evicted reports whether the stream was closed because this consumer fell
// more than the queue capacity behind. Valid only after C is closed (the
// close of C happens-before the reader observing it).
func (s *Subscriber) Evicted() bool { return s.evicted }

// Close detaches the subscriber. Idempotent; safe after eviction and after
// hub shutdown.
func (s *Subscriber) Close() {
	s.closeOnce.Do(func() {
		select {
		case s.hub.cmds <- hubCmd{unsub: s}:
		case <-s.hub.quit:
		}
	})
}

// NewHub starts the dispatch loop.
func NewHub(cfg Config) *Hub {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = defaultQueueCap
	}
	if cfg.History <= 0 {
		cfg.History = defaultHistory
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	h := &Hub{
		cfg:   cfg,
		cmds:  make(chan hubCmd, 256),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		users: map[string]*userStream{},
	}
	if r := cfg.Registry; r != nil {
		h.published = r.Counter("pci_events_published_total")
		h.delivered = r.Counter("pci_events_delivered_total")
		h.dropped = r.Counter("pci_events_dropped_total")
		h.evictions = r.Counter("pci_events_evictions_total")
		h.resumed = r.Counter("pci_events_resumed_total")
		h.gaps = r.Counter("pci_events_resume_gaps_total")
		h.subscribers = r.Gauge("pci_events_subscribers")
	} else {
		h.published = &obs.Counter{}
		h.delivered = &obs.Counter{}
		h.dropped = &obs.Counter{}
		h.evictions = &obs.Counter{}
		h.resumed = &obs.Counter{}
		h.gaps = &obs.Counter{}
		h.subscribers = &obs.Gauge{}
	}
	go h.loop()
	return h
}

// Publish hands an event to the dispatch loop. The hub assigns the sequence
// number and publish stamp; ev.UserID must be set. Returns false after
// Close. Publish never waits on any subscriber — only on the dispatch
// loop's own (drained-at-memory-speed) command queue.
func (h *Hub) Publish(ev Event) bool {
	select {
	case <-h.quit:
		// Checked first: the command channel is buffered, so without this a
		// post-Close publish could still win the select below.
		return false
	default:
	}
	select {
	case h.cmds <- hubCmd{pub: &ev}:
		return true
	case <-h.quit:
		return false
	}
}

// Subscribe attaches a consumer to a user's event stream. lastSeq is the
// Last-Event-ID already seen (0 for a fresh subscription); events after it
// still held by the replay ring are queued before any live event. Returns
// nil after Close.
func (h *Hub) Subscribe(userID string, lastSeq uint64) *Subscriber {
	req := &subscribeReq{userID: userID, lastSeq: lastSeq, reply: make(chan *Subscriber, 1)}
	select {
	case <-h.quit:
		return nil
	default:
	}
	select {
	case h.cmds <- hubCmd{sub: req}:
	case <-h.quit:
		return nil
	}
	select {
	case s := <-req.reply:
		return s
	case <-h.done:
		// Loop exited between enqueue and apply.
		select {
		case s := <-req.reply:
			return s
		default:
			return nil
		}
	}
}

// Sync blocks until every command published before the call has been
// applied — the test seam for making asynchronous publishes observable.
func (h *Hub) Sync() {
	barrier := make(chan struct{})
	select {
	case h.cmds <- hubCmd{barrier: barrier}:
	case <-h.quit:
		return
	}
	select {
	case <-barrier:
	case <-h.done:
	}
}

// Close stops the dispatch loop and closes every subscriber stream.
// Idempotent.
func (h *Hub) Close() {
	h.closeOnce.Do(func() { close(h.quit) })
	<-h.done
}

func (h *Hub) loop() {
	defer close(h.done)
	for {
		select {
		case cmd := <-h.cmds:
			h.apply(cmd)
		case <-h.quit:
			// Drain what was already enqueued, then shut down.
			for {
				select {
				case cmd := <-h.cmds:
					h.apply(cmd)
				default:
					for _, us := range h.users {
						for _, s := range us.subs {
							close(s.ch)
						}
						us.subs = nil
					}
					h.subscribers.Set(0)
					return
				}
			}
		}
	}
}

func (h *Hub) apply(cmd hubCmd) {
	switch {
	case cmd.pub != nil:
		h.publish(*cmd.pub)
	case cmd.sub != nil:
		cmd.sub.reply <- h.subscribe(cmd.sub)
	case cmd.unsub != nil:
		h.unsubscribe(cmd.unsub)
	case cmd.barrier != nil:
		close(cmd.barrier)
	}
}

func (h *Hub) stream(userID string) *userStream {
	us := h.users[userID]
	if us == nil {
		us = &userStream{}
		h.users[userID] = us
	}
	return us
}

// publish is the emit path: assign seq, remember for resume, fan out with a
// non-blocking send per subscriber. Runs on the dispatch goroutine only.
func (h *Hub) publish(ev Event) {
	us := h.stream(ev.UserID)
	us.seq++
	ev.Seq = us.seq
	ev.PublishedUnixNano = h.cfg.Now().UnixNano()
	if n := len(us.ring); n < h.cfg.History {
		// Grow on demand by doubling, never past History, so a user with a
		// dozen events holds 16 slots, not History. Until the ring is full,
		// seq-1 is the next index, so the cyclic indexing holds throughout.
		if n == cap(us.ring) {
			us.ring = append(make([]Event, 0, min(max(2*n, 1), h.cfg.History)), us.ring...)
		}
		us.ring = append(us.ring, ev)
	} else {
		us.ring[int((us.seq-1)%uint64(n))] = ev
	}
	h.published.Inc()

	kept := us.subs[:0]
	for _, s := range us.subs {
		select {
		case s.ch <- ev:
			h.delivered.Inc()
			kept = append(kept, s)
		default:
			// Queue full: the consumer is more than QueueCap behind.
			// Evict it rather than block or grow — it can resume from
			// Last-Event-ID while the ring still holds the tail.
			s.evicted = true
			close(s.ch)
			h.dropped.Inc()
			h.evictions.Inc()
			h.subscribers.Dec()
		}
	}
	// Zero the tail so evicted subscribers are collectable.
	for i := len(kept); i < len(us.subs); i++ {
		us.subs[i] = nil
	}
	us.subs = kept
}

func (h *Hub) subscribe(req *subscribeReq) *Subscriber {
	us := h.stream(req.userID)

	var replay []Event
	gap := false
	if req.lastSeq > us.seq {
		// The client is ahead of us — a server restart reset the stream.
		gap = true
	} else if req.lastSeq < us.seq {
		oldest := us.seq - uint64(len(us.ring)) + 1
		from := req.lastSeq + 1
		if from < oldest {
			gap = true
			from = oldest
		}
		for seq := from; seq <= us.seq; seq++ {
			replay = append(replay, us.ring[int((seq-1)%uint64(len(us.ring)))])
		}
	}

	// Size the queue to hold the whole replay when it exceeds the nominal
	// cap, so a legitimate resume is never evicted before its first read.
	capacity := h.cfg.QueueCap
	if len(replay) > capacity {
		capacity = len(replay)
	}
	s := &Subscriber{
		UserID:  req.userID,
		Gap:     gap,
		HeadSeq: us.seq,
		hub:     h,
		ch:      make(chan Event, capacity),
	}
	s.C = s.ch
	for _, ev := range replay {
		s.ch <- ev
		h.delivered.Inc()
	}
	us.subs = append(us.subs, s)
	h.subscribers.Inc()
	if req.lastSeq > 0 {
		h.resumed.Inc()
	}
	if gap {
		h.gaps.Inc()
	}
	return s
}

func (h *Hub) unsubscribe(s *Subscriber) {
	us := h.users[s.UserID]
	if us == nil {
		return
	}
	for i, cur := range us.subs {
		if cur == s {
			us.subs = append(us.subs[:i], us.subs[i+1:]...)
			close(s.ch)
			h.subscribers.Dec()
			return
		}
	}
	// Already evicted or closed by shutdown: nothing to do.
}

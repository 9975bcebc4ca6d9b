package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/storage"
)

// Applier is what the receiver needs from the node's store: apply and journal
// one contiguous run of shipped records verbatim into their shards, grouped so
// each shard pays roughly one group-commit wait for the whole run. An error
// reports the whole run as unapplied even though some shards' groups may
// already be durable; that is safe because apply errors are terminal — a
// poisoned shard or a corrupt record — and the stream cannot continue past
// them anyway (the primary degrades and the follower is healed by resync or
// replacement).
type Applier interface {
	ApplyShippedBatch(recs []ShipRecord) error
}

// Receiver is the follower side of WAL-shipping replication: it applies
// shipped batches in order, tracks one durable cursor per source stream,
// and demands a full resync whenever it cannot prove the stream is
// contiguous with what it already holds.
//
// Cursor rules (DESIGN.md §15): the cursor file is written at clean
// shutdown and when a resync re-baselines the stream — not per batch,
// because a dirty marker created at open and removed at clean close
// detects crashes, and after an unclean restart every persisted cursor is
// discarded anyway. The acknowledged cursor can therefore never run ahead
// of the follower's durable state — at worst it under-reports and the
// stream re-baselines with a full resync.
//
// Locking: Receiver.mu guards only the stream map and cursor values, so
// Cursor and other sources' streams never block behind an apply; each
// stream's validate→apply→advance sequence is serialized by its own
// sourceStream.apply mutex.
type Receiver struct {
	cfg ReceiverConfig

	mu  sync.Mutex
	src map[string]*sourceStream // source node -> stream state

	applied     *obs.Counter
	syncRecords *obs.Counter
	rejected    *obs.Counter
}

// sourceStream is one primary's stream state.
type sourceStream struct {
	apply sync.Mutex   // serializes application (batch, sync, handoff) for this sender
	c     streamCursor // guarded by Receiver.mu
}

type streamCursor struct {
	Epoch uint64 `json:"epoch"`
	Seq   uint64 `json:"seq"`
}

// ReceiverConfig configures a node's receiver.
type ReceiverConfig struct {
	// Applier journals shipped records (the cloud store).
	Applier Applier
	// Dir persists cursors and the dirty marker ("" = memory-only: every
	// restart resyncs).
	Dir string
	// DataShards validates stream compatibility: a sender must have the same
	// count, and every record must address one of the 1+2·DataShards shards.
	DataShards int
	// Import applies a handoff's records as this node's own primary writes
	// (journaled and shipped onward). Required when HandleHandoff is mounted.
	Import func(recs []ShipRecord) error
	// VerifyStream admits or rejects a stream before any record is applied:
	// from is the sending node, ringVersion the ring version it stamped on
	// the request. The cluster node wires this to its ring view, so a
	// sender with a stale topology — e.g. a restarted primary that was
	// failed over while it was down — is refused instead of wholesale-
	// replacing this node's (possibly promoted-primary) state. nil accepts
	// every stream.
	VerifyStream func(from string, ringVersion uint64) error
	// Metrics receives the pci_repl_* receiver families (nil = obs.Default).
	Metrics *obs.Registry
	Logf    func(format string, args ...any)
}

const (
	dirtyMarker  = "REPL_DIRTY"
	cursorPrefix = "repl-cursor-"
)

// OpenReceiver loads persisted cursors (discarding them after an unclean
// shutdown) and arms the dirty marker.
func OpenReceiver(cfg ReceiverConfig) (*Receiver, error) {
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	r := &Receiver{
		cfg:         cfg,
		src:         map[string]*sourceStream{},
		applied:     reg.Counter("pci_repl_applied_records_total"),
		syncRecords: reg.Counter("pci_repl_resync_records_total"),
		rejected:    reg.Counter("pci_repl_batches_rejected_total"),
	}
	if cfg.Dir == "" {
		return r, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	marker := filepath.Join(cfg.Dir, dirtyMarker)
	if _, err := os.Stat(marker); err == nil {
		// Unclean shutdown: cursors may under-report what was applied, and
		// resuming would double-apply the gap. Discard them; the streams
		// re-baseline with full resyncs.
		r.logf("cluster: unclean shutdown detected, discarding replication cursors")
		ents, _ := os.ReadDir(cfg.Dir)
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), cursorPrefix) {
				os.Remove(filepath.Join(cfg.Dir, e.Name()))
			}
		}
	} else {
		ents, _ := os.ReadDir(cfg.Dir)
		for _, e := range ents {
			name := e.Name()
			if !strings.HasPrefix(name, cursorPrefix) || !strings.HasSuffix(name, ".json") {
				continue
			}
			b, err := os.ReadFile(filepath.Join(cfg.Dir, name))
			if err != nil {
				continue
			}
			var c streamCursor
			if json.Unmarshal(b, &c) == nil {
				from := strings.TrimSuffix(strings.TrimPrefix(name, cursorPrefix), ".json")
				r.src[from] = &sourceStream{c: c}
			}
		}
	}
	if err := os.WriteFile(marker, []byte("1"), 0o644); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Receiver) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// source returns (creating if needed) the stream state for one sender.
func (r *Receiver) source(from string) *sourceStream {
	r.mu.Lock()
	defer r.mu.Unlock()
	ss := r.src[from]
	if ss == nil {
		ss = &sourceStream{}
		r.src[from] = ss
	}
	return ss
}

// Close persists exact cursors and disarms the dirty marker.
func (r *Receiver) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cfg.Dir == "" {
		return nil
	}
	for from, ss := range r.src {
		if err := r.persist(from, ss.c); err != nil {
			return err
		}
	}
	return os.Remove(filepath.Join(r.cfg.Dir, dirtyMarker))
}

// persist writes one stream's cursor file. Callers serialize per stream
// (the stream's apply mutex, or Receiver.mu at close).
func (r *Receiver) persist(from string, c streamCursor) error {
	if r.cfg.Dir == "" {
		return nil
	}
	b, _ := json.Marshal(c)
	return storage.WriteFileAtomic(filepath.Join(r.cfg.Dir, cursorPrefix+from+".json"), b, 0o644)
}

// Cursor reports the follower's position in one source's stream.
func (r *Receiver) Cursor(from string) (epoch, seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ss := r.src[from]
	if ss == nil {
		return 0, 0
	}
	return ss.c.Epoch, ss.c.Seq
}

// admit runs the admission checks batches, resyncs and handoffs share — the
// sender's shard layout must match (key placement would differ otherwise),
// every record must address a shard of it through the one engine, and
// VerifyStream must accept its ring version — counting and logging a
// refusal. what names the request kind for the log line.
func (r *Receiver) admit(what string, b *BatchRequest) error {
	d := r.cfg.DataShards
	var err error
	if b.DataShards != d || b.TraceShards != d {
		err = fmt.Errorf("shard layout mismatch: stream %d/%d vs local %d (key placement would differ)", b.DataShards, b.TraceShards, d)
	}
	for i := 0; err == nil && i < len(b.Records); i++ {
		if rec := &b.Records[i]; rec.Engine != EngineMain || rec.Shard < 0 || rec.Shard > 2*d {
			err = fmt.Errorf("record %d on engine %d shard %d, outside the %d shards of one engine", i, rec.Engine, rec.Shard, 1+2*d)
		}
	}
	if err == nil && r.cfg.VerifyStream != nil {
		err = r.cfg.VerifyStream(b.From, b.RingVersion)
	}
	if err != nil {
		r.rejected.Inc()
		r.logf("cluster: refused %s from %s: %v", what, b.From, err)
	}
	return err
}

// HandleBatch, HandleSync and HandleHandoff are the PathReplBatch,
// PathReplSync and PathHandoff endpoints: one message, one sequence.
func (r *Receiver) HandleBatch(w http.ResponseWriter, req *http.Request) { r.receive(w, req, "batch") }
func (r *Receiver) HandleSync(w http.ResponseWriter, req *http.Request)  { r.receive(w, req, "resync") }
func (r *Receiver) HandleHandoff(w http.ResponseWriter, req *http.Request) {
	r.receive(w, req, "handoff")
}

// receive is the receiver sequence behind all three endpoints: decode →
// admit → apply → advance and persist the cursor → BatchResponse. The body
// is the binary batch framing (codec.go); any other Content-Type is answered
// 415 before a byte of it is read. what is the request kind, as admit logs
// it. Every kind passes the same admission — a resync is precisely the
// request a zombie primary uses to overwrite its heir.
func (r *Receiver) receive(w http.ResponseWriter, req *http.Request, what string) {
	if req.Header.Get("Content-Type") != ContentTypeReplBinary {
		http.Error(w, "replication requests must be "+ContentTypeReplBinary, http.StatusUnsupportedMediaType)
		return
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Decoded records alias body, which stays reachable until the engine has
	// applied and journaled them — no per-record copy.
	b, err := DecodeBatchBinary(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ss := r.source(b.From)
	ss.apply.Lock()
	defer ss.apply.Unlock()
	r.mu.Lock()
	c := ss.c
	r.mu.Unlock()

	apply, next := r.cfg.Applier.ApplyShippedBatch, c
	switch what {
	case "batch": // a contiguous run of the stream
		next.Seq += uint64(len(b.Records))
	case "resync": // wholesale replacement; the stream re-baselines at Start
		next = streamCursor{Epoch: b.Epoch, Seq: b.Start}
	case "handoff": // ownership moves here; no stream, so no cursor, involved
		apply = r.cfg.Import
	}
	resp := BatchResponse{Acked: c.Seq}
	if err := r.admit(what, b); err != nil {
		resp.Error = err.Error()
	} else if what == "batch" && (b.Epoch != c.Epoch || b.Start != c.Seq+1) {
		// A stream this follower cannot prove contiguous: wrong epoch
		// (primary restarted, or follower never met this primary) or a gap.
		resp.Resync = true
		r.rejected.Inc()
	} else if err := apply(b.Records); err != nil {
		resp.Error = fmt.Sprintf("apply %s: %v", what, err)
	} else {
		r.mu.Lock()
		ss.c = next
		r.mu.Unlock()
		resp.Acked = next.Seq
		switch what {
		case "batch":
			r.applied.Add(uint64(len(b.Records)))
		case "resync":
			// Only a re-baseline persists: after a crash the dirty marker
			// discards every cursor anyway, so a per-batch write buys nothing.
			r.syncRecords.Add(uint64(len(b.Records)))
			if err := r.persist(b.From, next); err != nil {
				resp.Error = fmt.Sprintf("persist cursor: %v", err)
			}
			r.logf("cluster: resynced %d records from %s, cursor re-baselined at %d", len(b.Records), b.From, next.Seq)
		case "handoff":
			r.logf("cluster: imported %d handoff records from %s", len(b.Records), b.From)
		}
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

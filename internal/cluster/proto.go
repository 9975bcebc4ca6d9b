package cluster

// The replication wire protocol. Three endpoints, mounted by the cloud
// server on every cluster node:
//
//	POST PathReplBatch  — ship a contiguous run of WAL records
//	POST PathReplSync   — full resync: a per-user wholesale state stream
//	GET  PathReplCursor — where is this follower in my stream?
//	GET  PathRing       — current ring (clients bootstrap/refresh here)
//	POST PathRing       — coordinator pushes a newer ring version
//
// Record payloads travel verbatim: the bytes a primary's engine journaled
// are the bytes the follower's engine journals. The envelope is JSON — the
// replication plane is low-rate node-to-node traffic batched hundreds of
// records at a time, so envelope overhead is noise next to fsync cost.

const (
	PathReplBatch  = "/cluster/v1/repl/batch"
	PathReplSync   = "/cluster/v1/repl/sync"
	PathReplCursor = "/cluster/v1/repl/cursor"
	PathRing       = "/cluster/v1/ring"
	PathHandoff    = "/cluster/v1/handoff"
)

// Routing headers. A cluster-aware client stamps every request with its
// locally computed routing key; nodes use it to gate ownership before the
// request touches any state. Proxied marks a request already forwarded once
// (single hop — a proxied request is always served locally). Owner carries
// the owning node's URL on a 421 Misdirected Request so the client can
// re-target without refetching the ring.
const (
	HeaderKey     = "X-PMWare-Key"
	HeaderProxied = "X-PMWare-Proxied"
	HeaderOwner   = "X-PMWare-Owner"
)

// Engine identifiers for ShipRecord.Engine: a PCI node journals through two
// storage engines (the meta+data engine and the trace engine); a shipped
// record must land in the same engine and shard index on the follower.
const (
	EngineMain  = 0
	EngineTrace = 1
)

// ShipRecord is one replicated WAL record: which engine and shard it was
// journaled on, and the verbatim record bytes.
type ShipRecord struct {
	Engine uint8  `json:"e"`
	Shard  int    `json:"s"`
	Rec    []byte `json:"r"`
}

// BatchRequest ships records Start..Start+len(Records)-1 of the primary's
// stream. Epoch identifies the primary's process lifetime: a primary that
// restarted cannot know which tail of its stream reached the follower, so
// it bumps its epoch and the mismatch forces a full resync. RingVersion is
// the ring the sender holds: a receiver with a newer ring rejects the
// stream (the sender's view of who owns what — and of who its follower is —
// is stale), which is what keeps a restarted pre-failover primary from
// overwriting its promoted heir.
type BatchRequest struct {
	From        string       `json:"from"`
	Epoch       uint64       `json:"epoch"`
	Start       uint64       `json:"start"`
	RingVersion uint64       `json:"ring_version"`
	DataShards  int          `json:"data_shards"`
	TraceShards int          `json:"trace_shards"`
	Records     []ShipRecord `json:"records"`
}

// BatchResponse acknowledges the follower's durable replication cursor.
// Resync means the stream cannot continue (epoch change, gap, or an unclean
// follower restart) and the primary must run a full resync first.
type BatchResponse struct {
	Acked  uint64 `json:"acked"`
	Resync bool   `json:"resync,omitempty"`
	Error  string `json:"error,omitempty"`
}

// CursorResponse reports a follower's position in one primary's stream.
type CursorResponse struct {
	Epoch  uint64 `json:"epoch"`
	Seq    uint64 `json:"seq"`
	Resync bool   `json:"resync,omitempty"`
}

// SyncRequest replaces the follower's copy of every user the primary owns:
// Records is a stream of wholesale per-user records (sync_user, register,
// trace replace) journaled on the follower like any shipped record.
// Baseline is the primary's stream position the snapshot was cut at — under
// the primary's write gate, so records > Baseline are exactly the
// mutations not covered by the snapshot.
type SyncRequest struct {
	From        string       `json:"from"`
	Epoch       uint64       `json:"epoch"`
	Baseline    uint64       `json:"baseline"`
	RingVersion uint64       `json:"ring_version"`
	DataShards  int          `json:"data_shards"`
	TraceShards int          `json:"trace_shards"`
	Records     []ShipRecord `json:"records"`
}

// SyncResponse acknowledges a completed resync.
type SyncResponse struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// RingPush is the coordinator's version push; nodes apply it only when
// Ring.Version exceeds the version they hold.
type RingPush struct {
	Ring *Ring `json:"ring"`
}

// HandoffRequest transfers users to their new owner after a ring change:
// the same wholesale per-user records a resync ships, but the receiver
// applies them as primary writes (journaled AND shipped onward to its own
// follower), because ownership — not a replica copy — is what moves. It
// carries the same admission stamps as a batch or resync (the sender's ring
// version and shard layout) and is refused on the same grounds.
type HandoffRequest struct {
	From        string       `json:"from"`
	RingVersion uint64       `json:"ring_version"`
	DataShards  int          `json:"data_shards"`
	TraceShards int          `json:"trace_shards"`
	Records     []ShipRecord `json:"records"`
}

// HandoffResponse acknowledges a completed handoff; the sender drops its
// local copy of the transferred users only after OK.
type HandoffResponse struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

package cluster

// The node-to-node protocol, mounted by the cloud server on every cluster
// node:
//
//	POST PathReplBatch — ship a contiguous run of WAL records
//	POST PathReplSync  — full resync: wholesale per-user records, then the
//	                     follower's cursor re-baselines
//	POST PathHandoff   — transfer users to their new owner after a ring change
//	GET  PathRing      — current ring (clients bootstrap/refresh here)
//	POST PathRing      — coordinator pushes a newer ring (Ring.Encode, JSON)
//
// The three record-carrying POSTs share one message: a BatchRequest in the
// binary framing of codec.go, answered by a JSON BatchResponse. The path
// names the intent (DESIGN.md §15 has the table). Record payloads travel
// verbatim: the bytes a primary's engine journaled are the bytes the
// receiver's engine journals.

const (
	PathReplBatch = "/cluster/v1/repl/batch"
	PathReplSync  = "/cluster/v1/repl/sync"
	PathRing      = "/cluster/v1/ring"
	PathHandoff   = "/cluster/v1/handoff"
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

// EngineMain is the only value of ShipRecord.Engine since wire v4: a PCI
// node journals through one storage engine, so a shipped record lands at the
// same shard index on the follower and the engine byte is always 0. The byte
// stays on the wire until the benchmark harness, which builds batches with
// it, stops naming it.
const EngineMain = 0

// ShipRecord is one replicated WAL record: the shard it was journaled on and
// the verbatim record bytes. Engine is EngineMain (the zero value); a
// receiver refuses any other.
type ShipRecord struct {
	Engine uint8
	Shard  int
	Rec    []byte
}

// BatchRequest is the one replication message. On PathReplBatch it ships
// records Start..Start+len(Records)-1 of the primary's stream. On
// PathReplSync Records replaces the follower's copy of every user the
// primary owns (sync_user, register, trace replace — journaled like any
// shipped record) and Start is the baseline: the stream position the
// snapshot was cut at under the primary's write gate, so records > Start are
// exactly the mutations it does not cover. On PathHandoff Records is the same
// wholesale form for the users that move, applied by the receiver as primary
// writes (journaled AND shipped onward to its own follower) because
// ownership — not a replica copy — is what moves; Epoch and Start are unused.
//
// Epoch identifies the primary's process lifetime: a primary that restarted
// cannot know which tail of its stream reached the follower, so it bumps its
// epoch and the mismatch forces a full resync. RingVersion is the ring the
// sender holds: a receiver with a newer ring rejects the request (the
// sender's view of who owns what — and of who its follower is — is stale),
// which is what keeps a restarted pre-failover primary from overwriting its
// promoted heir. DataShards is the sender's shard layout (its engine has
// 1+2·DataShards shards); records land at the sender's shard indices, so a
// mismatch is refused. TraceShards is a leftover of the two-engine layout: a
// sender writes DataShards there and a receiver refuses any other value.
type BatchRequest struct {
	From        string
	Epoch       uint64
	Start       uint64
	RingVersion uint64
	DataShards  int
	TraceShards int
	Records     []ShipRecord
}

// BatchResponse answers all three: Acked is the follower's durable cursor in
// the sender's stream, Error a refusal or failed apply (nothing of the
// request is then acknowledged — a handoff sender keeps its copies). Resync
// means a batch cannot continue the stream (epoch change, gap, or an unclean
// follower restart) and the primary must run a full resync first.
type BatchResponse struct {
	Acked  uint64 `json:"acked"`
	Resync bool   `json:"resync,omitempty"`
	Error  string `json:"error,omitempty"`
}

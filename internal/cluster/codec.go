package cluster

import (
	"fmt"

	"repro/internal/frame"
	"repro/internal/storage"
)

// Binary framing for the replication plane: batches, resyncs and handoffs
// all travel as one BatchRequest in this encoding — a version byte followed
// by internal/frame's varint fields, the same codec as the cloud wire
// (DESIGN.md §14). It is the only encoding: the receiver answers any other
// Content-Type 415.
//
// Layout:
//
//	version byte
//	uvarint len(From), From bytes
//	uvarint Epoch
//	uvarint Start
//	uvarint RingVersion
//	uvarint DataShards
//	uvarint TraceShards (equal to DataShards since v4)
//	uvarint len(Records)
//	per record: engine byte (0 since v4), uvarint Shard, uvarint len(Rec), Rec bytes

// ContentTypeReplBinary is the replication batch media type.
const ContentTypeReplBinary = "application/x-pmware-repl"

// replWireVersion is the first byte of every binary batch. v2 added the
// sender's ring version to the stream header (stream admission control); v3
// changed nothing in this framing but marks the records inside as the binary
// record codec (DESIGN.md §8) — a follower parks shipped records and decodes
// them only later, so a peer with the other record format must be refused
// here, at admission. v4 changed nothing in the framing either: shard indices
// address the one-engine layout (0, data 1…D, traces D+1…2D), where a v3
// peer's addressed two engines. Any other version fails the decode.
const replWireVersion = 4

// minRecordBytes is the least a record costs on the wire: its engine byte
// and two one-byte uvarints.
const minRecordBytes = 3

// EncodeBatchBinary appends the batch's binary encoding to buf (reusing its
// capacity) and returns the filled slice.
func EncodeBatchBinary(buf []byte, req *BatchRequest) []byte {
	e := frame.Encoder{Buf: append(buf, replWireVersion)}
	e.String(req.From)
	e.Uvarint(req.Epoch)
	e.Uvarint(req.Start)
	e.Uvarint(req.RingVersion)
	e.Uvarint(uint64(req.DataShards))
	e.Uvarint(uint64(req.TraceShards))
	e.Uvarint(uint64(len(req.Records)))
	for i := range req.Records {
		r := &req.Records[i]
		e.Byte(r.Engine)
		e.Uvarint(uint64(r.Shard))
		e.Bytes(r.Rec)
	}
	return e.Buf
}

// DecodeBatchBinary parses a binary batch. Record byte slices alias data —
// callers that retain them past the request must copy. Nothing is allocated
// on the input's say-so: a record count the remaining bytes cannot hold and
// a record longer than storage.MaxRecordSize (the follower's WAL would
// refuse it) fail before the record slice is made.
func DecodeBatchBinary(data []byte) (*BatchRequest, error) {
	d := frame.NewDecoder(data)
	if v := d.Byte(); d.Err() == nil && v != replWireVersion {
		return nil, fmt.Errorf("cluster: batch wire version %d, want %d", v, replWireVersion)
	}
	req := &BatchRequest{
		From:        d.String(),
		Epoch:       d.Uvarint(),
		Start:       d.Uvarint(),
		RingVersion: d.Uvarint(),
		DataShards:  d.Int(),
		TraceShards: d.Int(),
	}
	n := d.Int()
	if n > d.Rest()/minRecordBytes {
		return nil, fmt.Errorf("cluster: batch claims %d records in %d bytes", n, d.Rest())
	}
	req.Records = make([]ShipRecord, n)
	for i := range req.Records {
		r := &req.Records[i]
		r.Engine, r.Shard, r.Rec = d.Byte(), d.Int(), d.Bytes()
		if len(r.Rec) > storage.MaxRecordSize {
			return nil, fmt.Errorf("cluster: batch record %d of %d bytes exceeds storage.MaxRecordSize", i, len(r.Rec))
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("cluster: batch: %w", err)
	}
	if d.Rest() != 0 {
		return nil, fmt.Errorf("cluster: %d trailing bytes after batch", d.Rest())
	}
	return req, nil
}

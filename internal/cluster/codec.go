package cluster

import (
	"encoding/binary"
	"fmt"
)

// Binary framing for the replication batch plane. The JSON envelope spends
// most of its bytes (and decode CPU) on field names and base64 — a tax paid
// per shipped record on both ends of every batch POST. Batches instead
// travel as a version byte followed by uvarint-framed fields, the same
// idiom as the cloud wire codec (DESIGN.md §14) and the storage WAL. It is
// the only batch encoding: the receiver answers any other Content-Type 415.
// Resync and cursor traffic is rare and stays JSON.
//
// Layout:
//
//	version byte
//	uvarint len(From), From bytes
//	uvarint Epoch
//	uvarint Start
//	uvarint RingVersion
//	uvarint DataShards
//	uvarint TraceShards
//	uvarint len(Records)
//	per record: engine byte, uvarint Shard, uvarint len(Rec), Rec bytes

// ContentTypeReplBinary is the replication batch media type.
const ContentTypeReplBinary = "application/x-pmware-repl"

// replWireVersion is the first byte of every binary batch. v2 added the
// sender's ring version to the stream header (stream admission control);
// any other version fails the decode.
const replWireVersion = 2

// EncodeBatchBinary appends the batch's binary encoding to buf (reusing its
// capacity) and returns the filled slice.
func EncodeBatchBinary(buf []byte, req *BatchRequest) []byte {
	buf = append(buf, replWireVersion)
	buf = binary.AppendUvarint(buf, uint64(len(req.From)))
	buf = append(buf, req.From...)
	buf = binary.AppendUvarint(buf, req.Epoch)
	buf = binary.AppendUvarint(buf, req.Start)
	buf = binary.AppendUvarint(buf, req.RingVersion)
	buf = binary.AppendUvarint(buf, uint64(req.DataShards))
	buf = binary.AppendUvarint(buf, uint64(req.TraceShards))
	buf = binary.AppendUvarint(buf, uint64(len(req.Records)))
	for _, r := range req.Records {
		buf = append(buf, r.Engine)
		buf = binary.AppendUvarint(buf, uint64(r.Shard))
		buf = binary.AppendUvarint(buf, uint64(len(r.Rec)))
		buf = append(buf, r.Rec...)
	}
	return buf
}

// DecodeBatchBinary parses a binary batch. Record byte slices alias data —
// callers that retain them past the request must copy.
func DecodeBatchBinary(data []byte) (*BatchRequest, error) {
	r := binReader{b: data}
	if v, err := r.byte(); err != nil {
		return nil, err
	} else if v != replWireVersion {
		return nil, fmt.Errorf("cluster: batch wire version %d, want %d", v, replWireVersion)
	}
	var req BatchRequest
	from, err := r.lenBytes()
	if err != nil {
		return nil, err
	}
	req.From = string(from)
	if req.Epoch, err = r.uvarint(); err != nil {
		return nil, err
	}
	if req.Start, err = r.uvarint(); err != nil {
		return nil, err
	}
	if req.RingVersion, err = r.uvarint(); err != nil {
		return nil, err
	}
	if req.DataShards, err = r.uvarintInt(); err != nil {
		return nil, err
	}
	if req.TraceShards, err = r.uvarintInt(); err != nil {
		return nil, err
	}
	n, err := r.uvarintInt()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > len(data) { // each record costs >= 1 byte: a larger claim is corruption
		return nil, fmt.Errorf("cluster: batch claims %d records in %d bytes", n, len(data))
	}
	req.Records = make([]ShipRecord, n)
	for i := range req.Records {
		eng, err := r.byte()
		if err != nil {
			return nil, err
		}
		shard, err := r.uvarintInt()
		if err != nil {
			return nil, err
		}
		rec, err := r.lenBytes()
		if err != nil {
			return nil, err
		}
		req.Records[i] = ShipRecord{Engine: eng, Shard: shard, Rec: rec}
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("cluster: %d trailing bytes after batch", len(data)-r.off)
	}
	return &req, nil
}

type binReader struct {
	b   []byte
	off int
}

func (r *binReader) byte() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("cluster: truncated batch at offset %d", r.off)
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("cluster: bad uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *binReader) uvarintInt() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.b)) && v > 1<<31 {
		return 0, fmt.Errorf("cluster: uvarint %d out of range", v)
	}
	return int(v), nil
}

func (r *binReader) lenBytes() ([]byte, error) {
	n, err := r.uvarintInt()
	if err != nil {
		return nil, err
	}
	if n < 0 || r.off+n > len(r.b) {
		return nil, fmt.Errorf("cluster: truncated batch: %d-byte field at offset %d of %d", n, r.off, len(r.b))
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v, nil
}

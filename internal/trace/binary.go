package trace

// Binary observation codec — the primitive layer for the cloud wire format
// (DESIGN.md §14) and the PCI's record codec (§8). The GSM observation block
// (AppendObservations/DecodeObservations) sits over internal/frame's field
// codec, which BinaryEncoder/BinaryDecoder name, and the element codec both
// it and the PCI's resident traces use (AppendObservationElems/
// DecodeObservationElems).
//
// The codec carries instants, not zones. Trace hashing and delta-sync
// cursors depend only on UnixNano, so round-tripping through it preserves
// them exactly.

import (
	"slices"

	"repro/internal/frame"
	"repro/internal/world"
)

// BinaryEncoder and BinaryDecoder are the shared field codec (internal/frame).
type (
	BinaryEncoder = frame.Encoder
	BinaryDecoder = frame.Decoder
)

// NewBinaryDecoder returns a decoder over b.
func NewBinaryDecoder(b []byte) *BinaryDecoder { return frame.NewDecoder(b) }

// AppendObservations encodes a GSM observation block: a uvarint count, then
// the observations' elements (AppendObservationElems). The block shares e's
// timestamp chain, so decode blocks in write order or reset the chain per
// block.
func AppendObservations(e *BinaryEncoder, obs []GSMObservation) {
	e.Uvarint(uint64(len(obs)))
	var prev world.CellID
	AppendObservationElems(e, &prev, obs)
}

// DecodeObservations decodes one observation block. An empty block decodes
// to nil. On malformed input it returns nil and leaves the error on d.
func DecodeObservations(d *BinaryDecoder) []GSMObservation {
	out := DecodeObservationsInto(d, nil)
	if d.Err() != nil {
		return nil
	}
	return out
}

// DecodeObservationsInto decodes one observation block into dst's array
// (from dst[:0], grown as needed), so a caller that decodes block after
// block reuses one buffer. An empty block decodes to dst[:0]. On malformed
// input it stops and leaves the error on d.
func DecodeObservationsInto(d *BinaryDecoder, dst []GSMObservation) []GSMObservation {
	n := d.Int()
	if d.Err() != nil || n == 0 {
		return dst[:0]
	}
	// The count is attacker-controlled; size the buffer by what the
	// remaining bytes could plausibly hold (>= 14 bytes per observation) and
	// let append grow it if the data is real.
	var prev world.CellID
	return DecodeObservationElems(d, &prev, slices.Grow(dst[:0], min(n, d.Rest()/14+1)), 0, n)
}

// AppendObservationElems is the observation element encoder: per observation
// a delta-chained timestamp on e's chain, zigzag deltas of the four cell
// fields against *prev — the previous element's cell, zero before a block's
// first (a stationary handset costs 4 zero bytes per reading) — and the
// fixed-8-byte signal. It leaves *prev at the last cell written, so a run of
// elements appended over several calls is byte-identical to one appended at
// once.
func AppendObservationElems(e *BinaryEncoder, prev *world.CellID, obs []GSMObservation) {
	c := *prev
	for i := range obs {
		o := &obs[i]
		e.Time(o.At)
		e.Varint(int64(o.Cell.MCC - c.MCC))
		e.Varint(int64(o.Cell.MNC - c.MNC))
		e.Varint(int64(o.Cell.LAC - c.LAC))
		e.Varint(int64(o.Cell.CID - c.CID))
		e.Float64(o.SignalDBM)
		c = o.Cell
	}
	*prev = c
}

// DecodeObservationElems is the range decoder: it decodes the next n
// elements from d, on d's timestamp chain and the cell chain *prev as
// AppendObservationElems wrote them, and appends all but the first skip to
// dst. The skipped elements are parsed only to advance the chains. On
// malformed input it stops and leaves the error on d.
func DecodeObservationElems(d *BinaryDecoder, prev *world.CellID, dst []GSMObservation, skip, n int) []GSMObservation {
	c := *prev
	for i := 0; i < n; i++ {
		var o GSMObservation
		o.At = d.Time()
		o.Cell.MCC = c.MCC + int(d.Varint())
		o.Cell.MNC = c.MNC + int(d.Varint())
		o.Cell.LAC = c.LAC + int(d.Varint())
		o.Cell.CID = c.CID + int(d.Varint())
		o.SignalDBM = d.Float64()
		if d.Err() != nil {
			break
		}
		c = o.Cell
		if i >= skip {
			dst = append(dst, o)
		}
	}
	*prev = c
	return dst
}

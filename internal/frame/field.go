package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Field codec: append-style varint primitives over a caller-owned []byte, so
// hot paths encode into pooled buffers with zero allocation. Timestamps are
// delta-chained (zigzag varint of the UnixNano difference from the previous
// Time written through the same encoder), which collapses a periodic trace's
// ~19-digit nanosecond stamps into 2-5 bytes each. Decoded timestamps are
// rebuilt with time.Unix(0, ns).UTC(): the binary form carries the instant,
// not the zone.

// Encoder appends varint-packed primitives to Buf. The zero value is
// ready to use; set Buf to a recycled slice to encode without allocating.
type Encoder struct {
	Buf []byte

	lastNs int64 // delta chain for Time
}

// Reset points the encoder at buf (truncated to zero length) and restarts
// the timestamp delta chain.
func (e *Encoder) Reset(buf []byte) {
	e.Buf = buf[:0]
	e.lastNs = 0
}

// SetChain makes ns (UnixNano) the instant the next Time is a delta from,
// without touching Buf: 0 at a frame boundary, so each frame decodes
// independently, or an earlier element's instant to continue its chain.
func (e *Encoder) SetChain(ns int64) { e.lastNs = ns }

// Byte appends one raw byte.
func (e *Encoder) Byte(b byte) { e.Buf = append(e.Buf, b) }

// Uvarint appends v in LEB128.
func (e *Encoder) Uvarint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }

// Varint appends v zigzag-encoded.
func (e *Encoder) Varint(v int64) { e.Buf = binary.AppendVarint(e.Buf, v) }

// Fixed64 appends v as 8 little-endian bytes.
func (e *Encoder) Fixed64(v uint64) { e.Buf = binary.LittleEndian.AppendUint64(e.Buf, v) }

// Float64 appends the IEEE-754 bit pattern of f as a Fixed64.
func (e *Encoder) Float64(f float64) { e.Fixed64(math.Float64bits(f)) }

// Bool appends 1 or 0.
func (e *Encoder) Bool(b bool) {
	if b {
		e.Buf = append(e.Buf, 1)
	} else {
		e.Buf = append(e.Buf, 0)
	}
}

// String appends a uvarint length followed by the raw bytes.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.Buf = append(e.Buf, s...)
}

// Bytes appends a uvarint length followed by the raw bytes.
func (e *Encoder) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.Buf = append(e.Buf, b...)
}

// Time appends t as a zigzag varint delta of UnixNano from the previous
// Time written (absolute on the first write after Reset or SetChain(0)).
func (e *Encoder) Time(t time.Time) {
	ns := t.UnixNano()
	e.Varint(ns - e.lastNs)
	e.lastNs = ns
}

// Decoder consumes values appended by Encoder. Errors are sticky: after the
// first failure every read returns the zero value and Err reports the cause,
// so call sites can decode a whole message and check once at the end.
type Decoder struct {
	buf    []byte
	off    int
	lastNs int64
	err    error
}

// NewDecoder returns a decoder over b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Rest returns the number of unconsumed bytes.
func (d *Decoder) Rest() int { return len(d.buf) - d.off }

// SetChain makes ns the instant the next Time is a delta from (see
// Encoder.SetChain).
func (d *Decoder) SetChain(ns int64) { d.lastNs = ns }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// take consumes the next n bytes; nil (and a sticky ErrTruncated) when fewer
// remain. The result aliases the input.
func (d *Decoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Rest()) {
		d.fail(ErrTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// advance consumes the n bytes binary.Uvarint/Varint reported, failing the
// decoder when it reported none (input ended) or an overflow.
func (d *Decoder) advance(n int) bool {
	switch {
	case n > 0:
		d.off += n
		return true
	case n == 0:
		d.fail(ErrTruncated)
	default:
		d.fail(errors.New("frame: varint overflows 64 bits"))
	}
	return false
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Uvarint reads a LEB128 value.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if !d.advance(n) {
		return 0
	}
	return v
}

// Varint reads a zigzag value. A one-byte value — the zero and small cell
// deltas that make up most of an observation block — skips binary.Varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	b := d.buf[d.off:]
	if len(b) > 0 && b[0] < 0x80 {
		d.off++
		return int64(b[0]>>1) ^ -int64(b[0]&1)
	}
	v, n := binary.Varint(b)
	if !d.advance(n) {
		return 0
	}
	return v
}

// Int reads a uvarint that must fit a non-negative int32 — a count, an index
// or a length; anything larger is a format error, not a number to act on.
func (d *Decoder) Int() int {
	v := d.Uvarint()
	if v > math.MaxInt32 {
		d.fail(fmt.Errorf("frame: value %d out of range", v))
		return 0
	}
	return int(v)
}

// Count reads the length of a list whose elements cost at least minBytes
// each. A count the remaining input cannot hold is a format error, so a
// caller may size an allocation by the result.
func (d *Decoder) Count(minBytes int) int {
	n := d.Int()
	if n > d.Rest()/minBytes {
		d.fail(fmt.Errorf("%w: %d elements claimed in %d bytes", ErrCorrupt, n, d.Rest()))
		return 0
	}
	return n
}

// Fixed64 reads 8 little-endian bytes.
func (d *Decoder) Fixed64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Float64 reads an IEEE-754 bit pattern.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Fixed64()) }

// Bool reads a 1/0 byte; anything else is a format error.
func (d *Decoder) Bool() bool {
	switch b := d.Byte(); b {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("frame: bad bool byte 0x%02x", b))
		return false
	}
}

// Bytes reads a length-prefixed byte string. The result aliases the input —
// callers that keep it past the input's lifetime must copy.
func (d *Decoder) Bytes() []byte { return d.take(d.Uvarint()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// Time reads a delta-chained timestamp; the result is in UTC.
func (d *Decoder) Time() time.Time {
	ns := d.lastNs + d.Varint()
	if d.err != nil {
		return time.Time{}
	}
	d.lastNs = ns
	return time.Unix(0, ns).UTC()
}

package trace

// Binary trace codec — the compact counterpart of the JSON-lines codec in
// codec.go, and the primitive layer for the cloud wire format (DESIGN.md
// §14). Two things live here:
//
//  1. The GSM observation block (AppendObservations/DecodeObservations) over
//     internal/frame's field codec, which BinaryEncoder/BinaryDecoder name,
//     and the element codec both it and the PCI's resident traces use
//     (AppendObservationElems/DecodeObservationElems).
//
//  2. A framed binary file format for Bundle: magic + version, then one
//     var-shape frame (internal/frame) per observation/scan/fix/sample, ended
//     by EOF. Every record is self-contained so a truncated file fails
//     cleanly at a record boundary.
//
// The codec carries instants, not zones. Trace hashing and delta-sync
// cursors depend only on UnixNano, so round-tripping through it preserves
// them exactly.

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"repro/internal/frame"
	"repro/internal/world"
)

// BinaryVersion is the current binary trace format version, written after
// the magic and checked on read.
const BinaryVersion = 1

// binaryMagic opens every binary trace file.
var binaryMagic = [4]byte{'P', 'M', 'T', 'B'}

// maxBinaryRecord bounds a single framed record; anything larger is treated
// as corruption, mirroring storage.MaxRecordSize.
const maxBinaryRecord = 16 << 20

// ErrTruncated reports binary input that ended mid-value or mid-record.
var ErrTruncated = frame.ErrTruncated

// record kind bytes for the framed bundle format.
const (
	binKindGSM      byte = 1
	binKindWiFi     byte = 2
	binKindGPS      byte = 3
	binKindActivity byte = 4
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
	n := d.Int()
	if d.Err() != nil || n == 0 {
		return nil
	}
	// The count is attacker-controlled; size the initial allocation by what
	// the remaining bytes could plausibly hold (>= 14 bytes per observation)
	// and let append grow it if the data is real.
	var prev world.CellID
	out := DecodeObservationElems(d, &prev, make([]GSMObservation, 0, min(n, d.Rest()/14+1)), 0, n)
	if d.Err() != nil {
		return nil
	}
	return out
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

// BinaryWriter streams trace records in the framed binary format. It mirrors
// Writer's API so generators can target either codec.
type BinaryWriter struct {
	w           *bufio.Writer
	enc         BinaryEncoder
	frame       []byte
	wroteHeader bool
}

// NewBinaryWriter wraps w. The magic/version header is written lazily with
// the first record.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: bufio.NewWriter(w)}
}

// header writes the magic and version once, ahead of the first record.
func (bw *BinaryWriter) header() error {
	if bw.wroteHeader {
		return nil
	}
	bw.wroteHeader = true
	_, err := bw.w.Write(append(binaryMagic[:], BinaryVersion))
	return err
}

func (bw *BinaryWriter) record(fill func(e *BinaryEncoder)) error {
	if err := bw.header(); err != nil {
		return err
	}
	bw.enc.Reset(bw.enc.Buf)
	fill(&bw.enc)
	bw.frame = frame.AppendVar(bw.frame[:0], bw.enc.Buf)
	_, err := bw.w.Write(bw.frame)
	return err
}

// WriteGSM emits one GSM observation record.
func (bw *BinaryWriter) WriteGSM(o GSMObservation) error {
	return bw.record(func(e *BinaryEncoder) {
		e.Byte(binKindGSM)
		e.Time(o.At)
		e.Varint(int64(o.Cell.MCC))
		e.Varint(int64(o.Cell.MNC))
		e.Varint(int64(o.Cell.LAC))
		e.Varint(int64(o.Cell.CID))
		e.Float64(o.SignalDBM)
	})
}

// WriteWiFi emits one scan record.
func (bw *BinaryWriter) WriteWiFi(s WiFiScan) error {
	return bw.record(func(e *BinaryEncoder) {
		e.Byte(binKindWiFi)
		e.Time(s.At)
		e.Uvarint(uint64(len(s.APs)))
		for _, ap := range s.APs {
			e.String(ap.BSSID)
			e.String(ap.SSID)
			e.Float64(ap.RSSIDBM)
		}
	})
}

// WriteGPS emits one fix record.
func (bw *BinaryWriter) WriteGPS(f GPSFix) error {
	return bw.record(func(e *BinaryEncoder) {
		e.Byte(binKindGPS)
		e.Time(f.At)
		e.Float64(f.Pos.Lat)
		e.Float64(f.Pos.Lng)
		e.Float64(f.AccuracyMeters)
		e.Bool(f.Valid)
	})
}

// WriteActivity emits one activity-sample record.
func (bw *BinaryWriter) WriteActivity(a ActivitySample) error {
	return bw.record(func(e *BinaryEncoder) {
		e.Byte(binKindActivity)
		e.Time(a.At)
		e.Bool(a.Moving)
	})
}

// Flush writes buffered output (including the header, if no record was
// ever written).
func (bw *BinaryWriter) Flush() error {
	if err := bw.header(); err != nil {
		return err
	}
	return bw.w.Flush()
}

// WriteBinaryBundle streams an entire bundle in the binary format, in the
// same per-sensor stream order as WriteBundle.
func WriteBinaryBundle(w io.Writer, b *Bundle) error {
	bw := NewBinaryWriter(w)
	for _, o := range b.GSM {
		if err := bw.WriteGSM(o); err != nil {
			return err
		}
	}
	for _, s := range b.WiFi {
		if err := bw.WriteWiFi(s); err != nil {
			return err
		}
	}
	for _, f := range b.GPS {
		if err := bw.WriteGPS(f); err != nil {
			return err
		}
	}
	for _, a := range b.Activity {
		if err := bw.WriteActivity(a); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses a framed binary trace stream into a Bundle. Unknown
// record kinds are an error (version mismatch, not noise), as are CRC
// mismatches and truncated records.
func ReadBinary(r io.Reader) (*Bundle, error) {
	br := bufio.NewReader(r)
	var head [5]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("trace: binary header: %w", errors.Join(ErrTruncated, err))
	}
	if [4]byte(head[:4]) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q", head[:4])
	}
	if head[4] != BinaryVersion {
		return nil, fmt.Errorf("trace: unsupported binary version %d", head[4])
	}

	b := &Bundle{}
	var scratch []byte
	for rec := 1; ; rec++ {
		payload, err := frame.ReadVar(br, maxBinaryRecord, &scratch)
		if err == io.EOF {
			return b, nil
		}
		if err == nil {
			err = decodeBinaryRecord(payload, b)
		}
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", rec, err)
		}
	}
}

func decodeBinaryRecord(payload []byte, b *Bundle) error {
	d := NewBinaryDecoder(payload)
	kind := d.Byte()
	at := d.Time()
	switch kind {
	case binKindGSM:
		var o GSMObservation
		o.At = at
		o.Cell.MCC = int(d.Varint())
		o.Cell.MNC = int(d.Varint())
		o.Cell.LAC = int(d.Varint())
		o.Cell.CID = int(d.Varint())
		o.SignalDBM = d.Float64()
		if d.Err() == nil {
			b.GSM = append(b.GSM, o)
		}
	case binKindWiFi:
		s := WiFiScan{At: at}
		n := d.Uvarint()
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			var ap WiFiReading
			ap.BSSID = d.String()
			ap.SSID = d.String()
			ap.RSSIDBM = d.Float64()
			if d.Err() == nil {
				s.APs = append(s.APs, ap)
			}
		}
		if d.Err() == nil {
			b.WiFi = append(b.WiFi, s)
		}
	case binKindGPS:
		f := GPSFix{At: at}
		f.Pos.Lat = d.Float64()
		f.Pos.Lng = d.Float64()
		f.AccuracyMeters = d.Float64()
		f.Valid = d.Bool()
		if d.Err() == nil {
			b.GPS = append(b.GPS, f)
		}
	case binKindActivity:
		a := ActivitySample{At: at}
		a.Moving = d.Bool()
		if d.Err() == nil {
			b.Activity = append(b.Activity, a)
		}
	default:
		if d.Err() == nil {
			return fmt.Errorf("unknown kind 0x%02x", kind)
		}
	}
	return d.Err()
}

// ReadAuto sniffs the stream and dispatches to ReadBinary when it opens with
// the binary magic, Read (JSON lines) otherwise.
func ReadAuto(r io.Reader) (*Bundle, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err == nil && [4]byte(head) == binaryMagic {
		return ReadBinary(br)
	}
	return Read(br)
}

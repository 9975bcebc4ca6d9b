package trace

// JSON observation codec for the cloud's JSON upload bodies, which carry
// []GSMObservation (DESIGN.md §14). AppendObservationsJSON writes exactly
// what json.Marshal writes. JSONReader frames one document at a time from a
// pooled window; a CanonJSON cursor parses a document in the encoder's own
// form — what every client in this repository sends — and the caller hands
// any other document to encoding/json, which the cloud package's
// FuzzObservationsJSON holds the pair to.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"time"
)

// AppendObservationsJSON appends obs exactly as json.Marshal encodes them —
// "null" for a nil slice — and fails where json.Marshal fails, with the same
// error: a NaN or infinite signal, or a time RFC 3339 cannot represent.
func AppendObservationsJSON(dst []byte, obs []GSMObservation) ([]byte, error) {
	if obs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i := range obs {
		o := &obs[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		dst = append(dst, `{"At":"`...)
		if dst, err = appendTimeJSON(dst, o.At); err != nil {
			return nil, err
		}
		dst = append(dst, `","Cell":{"mcc":`...)
		dst = strconv.AppendInt(dst, int64(o.Cell.MCC), 10)
		dst = append(dst, `,"mnc":`...)
		dst = strconv.AppendInt(dst, int64(o.Cell.MNC), 10)
		dst = append(dst, `,"lac":`...)
		dst = strconv.AppendInt(dst, int64(o.Cell.LAC), 10)
		dst = append(dst, `,"cid":`...)
		dst = strconv.AppendInt(dst, int64(o.Cell.CID), 10)
		dst = append(dst, `},"SignalDBM":`...)
		if dst, err = appendFloatJSON(dst, o.SignalDBM); err != nil {
			return nil, err
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}

var timeType = reflect.TypeOf(time.Time{})

// appendTimeJSON appends the body of time.Time.MarshalJSON's quoted string.
// The check flags at least every formatting MarshalJSON refuses (a year
// outside [0,9999], a zone hour outside [0,23]); MarshalJSON itself then
// gives the verdict and the error.
func appendTimeJSON(dst []byte, t time.Time) ([]byte, error) {
	n0 := len(dst)
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	b := dst[n0:]
	if z := b[len(b)-6:]; b[4] != '-' || (b[len(b)-1] != 'Z' && (isDigit(z[0]) || (z[1]-'0')*10+(z[2]-'0') >= 24)) {
		if _, err := t.MarshalJSON(); err != nil {
			return nil, &json.MarshalerError{Type: timeType, Err: err}
		}
	}
	return dst, nil
}

// appendFloatJSON appends f as encoding/json's float64 encoder does: the
// shortest representation, exponent form outside [1e-6, 1e21), and "e-07"
// tidied to "e-7".
func appendFloatJSON(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	n0 := len(dst)
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n-n0 >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// ErrJSONTooLarge reports a document longer than the JSONReader's limit.
var ErrJSONTooLarge = errors.New("trace: JSON document over the size limit")

const (
	jsonWindow          = 32 << 10 // a pooled reader's initial window
	maxPooledJSONWindow = 1 << 20  // a reader whose window grew past it leaves the pool
)

// JSONReader frames a sequence of JSON documents — the upload envelopes
// around []GSMObservation — read from an io.Reader. Not safe for concurrent
// use; Release returns it to the pool.
type JSONReader struct {
	r     io.Reader
	buf   []byte // buf[pos:] is read but not yet returned
	pos   int
	limit int64 // longest document accepted; 0 means unbounded
	rerr  error // the underlying reader's error, surfaced once buf is drained
}

var jsonReaders = sync.Pool{New: func() any { return &JSONReader{buf: make([]byte, 0, jsonWindow)} }}

// NewJSONReader returns a pooled reader over r. limit > 0 bounds each
// document's length in bytes (ErrJSONTooLarge past it); whitespace between
// documents does not count.
func NewJSONReader(r io.Reader, limit int64) *JSONReader {
	jr := jsonReaders.Get().(*JSONReader)
	*jr = JSONReader{r: r, buf: jr.buf[:0], limit: limit}
	return jr
}

// Release returns jr to the pool; it must not be used afterwards.
func (jr *JSONReader) Release() {
	if cap(jr.buf) > maxPooledJSONWindow {
		return
	}
	jr.r, jr.rerr = nil, nil
	jsonReaders.Put(jr)
}

// Document returns the next top-level value's bytes, valid until the next
// call. It finds where the value ends without checking it: the caller's
// parser refuses a malformed one. It returns io.EOF when the input ends
// before another value starts, io.ErrUnexpectedEOF when it ends inside one,
// and ErrJSONTooLarge for a value over the limit, before a byte past the
// limit is read. It never reads once the value's last byte is in the window.
func (jr *JSONReader) Document() ([]byte, error) {
	for {
		for jr.pos < len(jr.buf) && isSpace(jr.buf[jr.pos]) {
			jr.pos++
		}
		if jr.pos < len(jr.buf) {
			break
		}
		if err := jr.more(); err != nil {
			return nil, err
		}
	}
	n, err := jr.extent()
	if err == nil && jr.limit > 0 && int64(n) > jr.limit {
		err = ErrJSONTooLarge
	}
	if err != nil {
		return nil, err
	}
	doc := jr.buf[jr.pos : jr.pos+n : jr.pos+n]
	jr.pos += n
	return doc, nil
}

// extent returns the length of the value at buf[pos], reading until the
// window holds it. Objects, arrays and strings end at their closing byte
// (strings, escapes and depth tracked; brackets are not matched), literals
// after their fixed length, numbers at the first byte no number contains or
// at the end of input. A byte that starts no value is a document of its own.
func (jr *JSONReader) extent() (int, error) {
	switch c := jr.buf[jr.pos]; {
	case c == 't' || c == 'n' || c == 'f':
		n := len("null")
		if c == 'f' {
			n = len("false")
		}
		for len(jr.buf)-jr.pos < n {
			if err := jr.fill(); err != nil {
				return 0, err
			}
		}
		return n, nil
	case c == '-' || isDigit(c):
		return jr.number()
	case c != '{' && c != '[' && c != '"':
		return 1, nil
	}
	// str is 1 inside a string. Only a quote, a backslash or a bracket can
	// move the state; jsonSpecial finds them eight bytes at a time, and the
	// counters move by table lookup rather than by branch.
	depth, str := 0, 0
	for i := 0; ; {
		b := jr.buf[jr.pos:]
	scan:
		for i < len(b) {
			base, m := i, uint64(0x80) // byte by byte in the window's last seven
			if i+8 <= len(b) {
				m = jsonSpecial(binary.LittleEndian.Uint64(b[i:]))
				i += 8
			} else {
				i++
			}
			for ; m != 0; m &= m - 1 {
				j := base + bits.TrailingZeros64(m)>>3
				c := b[j]
				if c == '\\' && str == 1 {
					i = j + 2 // past the escaped byte, which may be in the next refill
					continue scan
				}
				str ^= int(jsonQuote[c])
				depth += int(jsonDepth[c]) * (1 - str)
				if depth|str == 0 {
					return j + 1, nil
				}
			}
		}
		if err := jr.fill(); err != nil {
			return 0, err
		}
	}
}

var jsonQuote = [256]uint8{'"': 1}
var jsonDepth = [256]int8{'{': 1, '[': 1, '}': -1, ']': -1}

// jsonSpecial sets the high bit of every byte of w that is a quote, a
// backslash or a bracket. It may also set it on a byte after the first of
// those (the zero-byte test's borrow), which the state machine then reads
// as the no-op it is.
func jsonSpecial(w uint64) uint64 {
	const lsb, msb = 0x0101010101010101, 0x8080808080808080
	q, e := w^lsb*'"', w^lsb*'\\'
	f := w | 0x2020202020202020 // folds [ and ] onto { and }
	o, c := f^lsb*'{', f^lsb*'}'
	return ((q-lsb)&^q | (e-lsb)&^e | (o-lsb)&^o | (c-lsb)&^c) & msb
}

// number returns the length of the number token starting at buf[pos].
func (jr *JSONReader) number() (int, error) {
	for i := 0; ; i++ {
		for jr.pos+i == len(jr.buf) {
			if err := jr.more(); err == io.EOF {
				return i, nil
			} else if err != nil {
				return 0, err
			}
		}
		if !isNumberByte(jr.buf[jr.pos+i]) {
			return i, nil
		}
	}
}

// fill is more inside a document, where the input ending is a truncation.
func (jr *JSONReader) fill() error {
	if err := jr.more(); err != io.EOF {
		return err
	}
	return io.ErrUnexpectedEOF
}

// more slides the current document (buf[pos:], empty between documents) to
// the front of the window and reads into the rest, growing the window only
// when the document fills it, and refusing a document that needs a byte
// past the limit before that byte is read.
func (jr *JSONReader) more() error {
	if jr.pos > 0 {
		n := copy(jr.buf, jr.buf[jr.pos:])
		jr.buf, jr.pos = jr.buf[:n], 0
	}
	if jr.limit > 0 && int64(len(jr.buf)) >= jr.limit {
		return ErrJSONTooLarge
	}
	if jr.rerr != nil {
		return jr.rerr
	}
	if len(jr.buf) == cap(jr.buf) {
		jr.buf = slices.Grow(jr.buf, len(jr.buf))
	}
	for range 100 {
		n, err := jr.r.Read(jr.buf[len(jr.buf):cap(jr.buf)])
		jr.buf, jr.rerr = jr.buf[:len(jr.buf)+n], err
		if n > 0 {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return io.ErrNoProgress
}

// CanonJSON is a cursor over one document that accepts only the exact form
// this package's encoder and the envelopes around it write. The first step
// that finds anything else clears ok and makes every later step a no-op; a
// document that is not Done goes to encoding/json.
type CanonJSON struct {
	b  []byte
	i  int
	ok bool
}

// NewCanonJSON returns a cursor at the start of doc.
func NewCanonJSON(doc []byte) CanonJSON { return CanonJSON{b: doc, ok: true} }

// Done reports whether every step succeeded and the document is used up.
func (s *CanonJSON) Done() bool { return s.ok && s.i == len(s.b) }

// Opt takes l if the document has it next, and reports whether it did.
func (s *CanonJSON) Opt(l string) bool {
	if s.ok && len(s.b)-s.i >= len(l) && string(s.b[s.i:s.i+len(l)]) == l {
		s.i += len(l)
		return true
	}
	return false
}

// Lit takes l, which the document must have next.
func (s *CanonJSON) Lit(l string) { s.ok = s.Opt(l) }

// Observations takes null (nil) or an array in AppendObservationsJSON's
// form ([] is an empty slice, as encoding/json decodes it).
func (s *CanonJSON) Observations() []GSMObservation {
	if s.Opt("null") {
		return nil
	}
	if s.Lit("["); !s.ok {
		return nil
	}
	// No element is shorter than minObservationJSON, so this capacity is
	// never outgrown.
	obs := make([]GSMObservation, 0, (len(s.b)-s.i)/len(minObservationJSON))
	if s.Opt("]") {
		return obs
	}
	for {
		obs = append(obs, s.observation())
		if !s.Opt(",") {
			break
		}
	}
	s.Lit("]")
	return obs
}

// minObservationJSON is the shortest observation the encoder writes.
const minObservationJSON = `{"At":"0000-01-01T00:00:00Z","Cell":{"mcc":0,"mnc":0,"lac":0,"cid":0},"SignalDBM":0}`

func (s *CanonJSON) observation() (o GSMObservation) {
	s.Lit(`{"At":`)
	o.At = s.time()
	s.Lit(`,"Cell":{"mcc":`)
	o.Cell.MCC = s.Int()
	s.Lit(`,"mnc":`)
	o.Cell.MNC = s.Int()
	s.Lit(`,"lac":`)
	o.Cell.LAC = s.Int()
	s.Lit(`,"cid":`)
	o.Cell.CID = s.Int()
	s.Lit(`},"SignalDBM":`)
	o.SignalDBM = s.float()
	s.Lit(`}`)
	return o
}

// time takes a string token up to the next quote and decodes it as
// encoding/json does, through time.Time.UnmarshalJSON on the raw token,
// whose strict RFC 3339 parse refuses any escape or control character.
func (s *CanonJSON) time() (t time.Time) {
	start := s.i
	s.Lit(`"`)
	n := bytes.IndexByte(s.b[s.i:], '"')
	if s.ok = s.ok && n >= 0; s.ok {
		s.i += n + 1
		s.ok = t.UnmarshalJSON(s.b[start:s.i]) == nil
	}
	return t
}

// digits takes one or more digits.
func (s *CanonJSON) digits() {
	j := s.i
	for j < len(s.b) && isDigit(s.b[j]) {
		j++
	}
	s.ok = s.ok && j > s.i
	s.i = j
}

// integer takes an integer token, -?(0|[1-9][0-9]*).
func (s *CanonJSON) integer() []byte {
	start := s.i
	s.Opt("-")
	d := s.i
	s.digits()
	s.ok = s.ok && (s.b[d] != '0' || s.i == d+1)
	return s.b[start:s.i]
}

// Int takes an integer of at most 18 bytes, which cannot overflow int64,
// and that fits int; encoding/json decides a longer one.
func (s *CanonJSON) Int() int {
	raw, v := s.integer(), int64(0)
	for _, c := range raw {
		if c != '-' {
			v = v*10 + int64(c-'0')
		}
	}
	if len(raw) > 0 && raw[0] == '-' {
		v = -v
	}
	s.ok = s.ok && len(raw) <= 18 && int64(int(v)) == v
	return int(v)
}

// Uint64 takes a non-negative integer that fits uint64.
func (s *CanonJSON) Uint64() uint64 {
	v, err := strconv.ParseUint(string(s.integer()), 10, 64)
	s.ok = s.ok && err == nil
	return v
}

// float takes a number in strconv.AppendFloat's 'f' or 'e' form.
func (s *CanonJSON) float() float64 {
	start := s.i
	s.integer()
	if s.Opt(".") {
		s.digits()
	}
	if s.Opt("e+") || s.Opt("e-") {
		s.digits()
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	s.ok = s.ok && err == nil
	return f
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isNumberByte(c byte) bool {
	return isDigit(c) || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

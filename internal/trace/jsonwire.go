package trace

// JSON observation codec: the hand-written twin of encoding/json for
// []GSMObservation, which the cloud's JSON upload bodies (discover request,
// stream batch) carry (DESIGN.md §14). It changes no byte of the JSON wire:
// AppendObservationsJSON produces exactly what json.Marshal produces, and
// JSONReader accepts exactly the inputs encoding/json accepts and decodes the
// same values — case-folded and escaped keys, duplicate keys (last wins,
// in place), null as "leave the field alone", encoding/json's nesting limit.
// encoding/json stays the oracle: the cloud package's FuzzObservationsJSON
// holds the two to identical verdicts and values.
//
// JSONReader parses straight from a pooled window refilled from its
// io.Reader, the way the binary wire reads frames: no intermediate token
// tree, no reflection, and a document is returned the moment its closing
// brace arrives, without reading ahead.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/world"
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
	// jsonWindow is a pooled reader's initial window; it grows only for a
	// single token longer than itself.
	jsonWindow = 32 << 10
	// maxPooledJSONWindow keeps a reader whose window grew past it out of
	// the pool.
	maxPooledJSONWindow = 1 << 20
	// maxJSONDepth is encoding/json's nesting limit.
	maxJSONDepth = 10000
)

// JSONReader decodes a sequence of JSON documents — the upload envelopes
// around []GSMObservation — from an io.Reader. Document walks one top-level
// object, handing each member's key to a callback that decodes the value
// with Observations, Int64, Uint64, Bool or Skip. Not safe for concurrent
// use; Release returns it to the pool.
type JSONReader struct {
	r     io.Reader
	buf   []byte // buf[pos:] is read but not yet parsed
	pos   int
	off   int64 // stream offset of buf[0]
	doc   int64 // stream offset of the current document's first byte; -1 between documents
	limit int64 // longest document accepted; 0 means unbounded
	depth int
	rerr  error  // the underlying reader's error, surfaced once buf is drained
	key   []byte // scratch for keys that must outlive a refill
}

var jsonReaders = sync.Pool{New: func() any { return &JSONReader{buf: make([]byte, 0, jsonWindow)} }}

// NewJSONReader returns a pooled reader over r. limit > 0 bounds each
// document's length in bytes (ErrJSONTooLarge past it); whitespace between
// documents does not count.
func NewJSONReader(r io.Reader, limit int64) *JSONReader {
	jr := jsonReaders.Get().(*JSONReader)
	*jr = JSONReader{r: r, buf: jr.buf[:0], doc: -1, limit: limit, key: jr.key[:0]}
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

// Document decodes the next top-level value, which must be an object or
// null, calling field once per member in input order (see object). It
// returns io.EOF when the input ends cleanly before another document starts,
// and ErrJSONTooLarge for a document longer than the limit. Like
// json.Decoder it reads nothing past the document's last byte.
func (jr *JSONReader) Document(field func(key []byte) error) error {
	for {
		for jr.pos < len(jr.buf) && isSpace(jr.buf[jr.pos]) {
			jr.pos++
		}
		if jr.pos < len(jr.buf) {
			break
		}
		if err := jr.more(); err != nil {
			return err
		}
	}
	jr.doc, jr.depth = jr.off+int64(jr.pos), 0
	err := jr.object(field)
	if err == nil && jr.limit > 0 && jr.off+int64(jr.pos)-jr.doc > jr.limit {
		err = ErrJSONTooLarge
	}
	jr.doc = -1
	return err
}

// Observations decodes a []GSMObservation value into *dst as encoding/json
// would: null sets nil, [] an empty slice, and elements decode in place over
// what *dst already holds (a repeated key merges into the earlier value).
func (jr *JSONReader) Observations(dst *[]GSMObservation) error {
	c, err := jr.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		if err := jr.literal("null"); err != nil {
			return err
		}
		*dst = nil
		return nil
	case '[':
	default:
		return jr.mismatch(c, "[]trace.GSMObservation")
	}
	s, n := *dst, 0
	err = jr.array(func() error {
		// encoding/json's growth: within capacity, the element keeps
		// whatever an earlier value left there.
		if n == len(s) {
			if n < cap(s) {
				s = s[:n+1]
			} else {
				s = append(s, GSMObservation{})
			}
		}
		n++
		if jr.canonicalObservation(&s[n-1]) {
			return nil
		}
		return jr.observation(&s[n-1])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		s = []GSMObservation{}
	}
	*dst = s[:n]
	return nil
}

// canonicalObservation decodes o straight from the window when the window
// holds it in exactly the form AppendObservationsJSON writes — what every
// client in this repository sends — and reports whether it did. On false it
// has consumed and written nothing, and the general parser takes the element
// from the same position, whatever its form. The canonical form sets every
// field of o, so decoding over what o held before is the same as the general
// parser's in-place decode.
func (jr *JSONReader) canonicalObservation(o *GSMObservation) bool {
	s := canon{b: jr.buf[jr.pos:], ok: true}
	s.lit(`{"At":`)
	at := s.str()
	s.lit(`,"Cell":{"mcc":`)
	mcc := s.int()
	s.lit(`,"mnc":`)
	mnc := s.int()
	s.lit(`,"lac":`)
	lac := s.int()
	s.lit(`,"cid":`)
	cid := s.int()
	s.lit(`},"SignalDBM":`)
	sig := s.float()
	s.lit(`}`)
	var t time.Time
	if !s.ok || t.UnmarshalJSON(at) != nil {
		return false
	}
	*o = GSMObservation{At: t, Cell: world.CellID{MCC: mcc, MNC: mnc, LAC: lac, CID: cid}, SignalDBM: sig}
	jr.pos += s.i
	return true
}

// canon is a cursor over the window for canonicalObservation: the first
// step that does not find what the canonical form has there clears ok, and
// every later step is then a no-op.
type canon struct {
	b  []byte
	i  int
	ok bool
}

func (s *canon) lit(l string) {
	if s.ok = s.ok && len(s.b)-s.i >= len(l) && string(s.b[s.i:s.i+len(l)]) == l; s.ok {
		s.i += len(l)
	}
}

// str takes a string token holding no escape or control character, quotes
// included.
func (s *canon) str() []byte {
	if s.ok = s.ok && s.i < len(s.b) && s.b[s.i] == '"'; !s.ok {
		return nil
	}
	for j := s.i + 1; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			raw := s.b[s.i : j+1]
			s.i = j + 1
			return raw
		case c == '\\' || c < ' ':
			s.ok = false
			return nil
		}
	}
	s.ok = false
	return nil
}

// int takes -?(0|[1-9][0-9]*) of at most 18 digits, which cannot overflow
// int64, and that fits int. A longer integer, a fraction or an exponent
// leaves a byte the next literal does not expect.
func (s *canon) int() int {
	j := s.i
	neg := j < len(s.b) && s.b[j] == '-'
	if neg {
		j++
	}
	start, v := j, int64(0)
	for j < len(s.b) && j-start < 18 && isDigit(s.b[j]) {
		v = v*10 + int64(s.b[j]-'0')
		j++
	}
	if neg {
		v = -v
	}
	if s.ok = s.ok && j > start && (s.b[start] != '0' || j == start+1) && int64(int(v)) == v; !s.ok {
		return 0
	}
	s.i = j
	return int(v)
}

func (s *canon) float() float64 {
	j := s.i
	for j < len(s.b) && isNumberByte(s.b[j]) {
		j++
	}
	raw := s.b[s.i:j]
	if s.ok = s.ok && validNumber(raw); !s.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(raw), 64)
	if s.ok = err == nil; s.ok {
		s.i = j
	}
	return f
}

func (jr *JSONReader) observation(o *GSMObservation) error {
	return jr.object(func(key []byte) error {
		switch {
		case JSONKeyIs(key, "At"):
			return jr.readTime(&o.At)
		case JSONKeyIs(key, "Cell"):
			return jr.cell(&o.Cell)
		case JSONKeyIs(key, "SignalDBM"):
			return jr.readFloat(&o.SignalDBM)
		}
		return jr.Skip()
	})
}

func (jr *JSONReader) cell(c *world.CellID) error {
	return jr.object(func(key []byte) error {
		switch {
		case JSONKeyIs(key, "mcc"):
			return jr.readInt(&c.MCC)
		case JSONKeyIs(key, "mnc"):
			return jr.readInt(&c.MNC)
		case JSONKeyIs(key, "lac"):
			return jr.readInt(&c.LAC)
		case JSONKeyIs(key, "cid"):
			return jr.readInt(&c.CID)
		}
		return jr.Skip()
	})
}

// readTime decodes a time.Time the way encoding/json does: the raw string token,
// escapes and all, goes to time.Time.UnmarshalJSON; null leaves *t alone.
func (jr *JSONReader) readTime(t *time.Time) error {
	c, err := jr.peek()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return jr.literal("null")
	case c != '"':
		return jr.mismatch(c, "time.Time")
	}
	raw, _, err := jr.str()
	if err != nil {
		return err
	}
	return t.UnmarshalJSON(raw)
}

func (jr *JSONReader) readInt(dst *int) error {
	v := int64(*dst) // null must leave *dst alone
	if err := jr.Int64(&v); err != nil {
		return err
	}
	if int64(int(v)) != v {
		return jr.errorf("number %d does not fit int", v)
	}
	*dst = int(v)
	return nil
}

// Int64 decodes an integer value; null leaves *dst alone, and a fraction,
// exponent or out-of-range number is refused, as encoding/json refuses them.
func (jr *JSONReader) Int64(dst *int64) error {
	raw, null, err := jr.numberOrNull("int64")
	if err != nil || null {
		return err
	}
	v, err := strconv.ParseInt(string(raw), 10, 64)
	if err != nil {
		return jr.errorf("number %s is not an int64", raw)
	}
	*dst = v
	return nil
}

// Uint64 decodes an unsigned integer value; null leaves *dst alone.
func (jr *JSONReader) Uint64(dst *uint64) error {
	raw, null, err := jr.numberOrNull("uint64")
	if err != nil || null {
		return err
	}
	v, err := strconv.ParseUint(string(raw), 10, 64)
	if err != nil {
		return jr.errorf("number %s does not fit uint64", raw)
	}
	*dst = v
	return nil
}

func (jr *JSONReader) readFloat(dst *float64) error {
	raw, null, err := jr.numberOrNull("float64")
	if err != nil || null {
		return err
	}
	v, err := strconv.ParseFloat(string(raw), 64)
	if err != nil {
		return jr.errorf("number %s does not fit float64", raw)
	}
	*dst = v
	return nil
}

// Bool decodes true or false; null leaves *dst alone.
func (jr *JSONReader) Bool(dst *bool) error {
	c, err := jr.peek()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return jr.literal("null")
	case c == 't':
		err = jr.literal("true")
	case c == 'f':
		err = jr.literal("false")
	default:
		return jr.mismatch(c, "bool")
	}
	if err == nil {
		*dst = c == 't'
	}
	return err
}

// Skip consumes one value of any type, checking its syntax as encoding/json
// checks a field it ignores.
func (jr *JSONReader) Skip() error {
	c, err := jr.peek()
	switch {
	case err != nil:
		return err
	case c == '{':
		return jr.object(func([]byte) error { return jr.Skip() })
	case c == '[':
		return jr.array(jr.Skip)
	case c == '"':
		_, _, err = jr.str()
		return err
	case c == '-' || isDigit(c):
		_, err = jr.number()
		return err
	case c == 't':
		return jr.literal("true")
	case c == 'f':
		return jr.literal("false")
	case c == 'n':
		return jr.literal("null")
	}
	return jr.syntax(c, "looking for beginning of value")
}

// JSONKeyIs reports whether an unescaped object key selects the struct field
// whose JSON name is name (ASCII), by encoding/json's rule: an exact match,
// else equality under Unicode simple case folding ("ſignalDBM" selects
// SignalDBM). Bytes that are not UTF-8 fold to U+FFFD and match nothing.
func JSONKeyIs(key []byte, name string) bool {
	if string(key) == name {
		return true
	}
	j := 0
	for i := 0; i < len(key); j++ {
		r := rune(key[i])
		if r < utf8.RuneSelf {
			i++
		} else {
			var n int
			r, n = utf8.DecodeRune(key[i:])
			i += n
			r = foldRune(r)
		}
		if j == len(name) || upperASCII(r) != upperASCII(rune(name[j])) {
			return false
		}
	}
	return j == len(name)
}

// foldRune is encoding/json's: the smallest rune of r's simple fold orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

func upperASCII(r rune) rune {
	if 'a' <= r && r <= 'z' {
		return r - ('a' - 'A')
	}
	return r
}

// --- tokens -------------------------------------------------------------

// object consumes an object, or null (a no-op), calling field with each
// member's unescaped key once the colon is consumed. field must consume the
// value, and must be done with key before it does: reading may slide the
// window key points into.
func (jr *JSONReader) object(field func(key []byte) error) error {
	c, err := jr.peek()
	switch {
	case err != nil:
		return err
	case c == 'n':
		return jr.literal("null")
	case c != '{':
		return jr.mismatch(c, "object")
	}
	jr.pos++
	if err := jr.push(); err != nil {
		return err
	}
	if c, err = jr.peek(); err != nil {
		return err
	}
	if c == '}' {
		jr.pos++
		jr.depth--
		return nil
	}
	for {
		if c != '"' {
			return jr.syntax(c, "looking for beginning of object key string")
		}
		key, err := jr.readKey()
		if err != nil {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
		if c, err = jr.peek(); err != nil {
			return err
		}
		jr.pos++
		switch c {
		case ',':
			if c, err = jr.peek(); err != nil {
				return err
			}
		case '}':
			jr.depth--
			return nil
		default:
			return jr.syntax(c, "after object key:value pair")
		}
	}
}

// array consumes an array (buf[pos] is '['), calling elem to consume each
// element.
func (jr *JSONReader) array(elem func() error) error {
	jr.pos++
	if err := jr.push(); err != nil {
		return err
	}
	c, err := jr.peek()
	if err != nil {
		return err
	}
	if c == ']' {
		jr.pos++
		jr.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if c, err = jr.peek(); err != nil {
			return err
		}
		jr.pos++
		switch c {
		case ',':
		case ']':
			jr.depth--
			return nil
		default:
			return jr.syntax(c, "after array element")
		}
	}
}

func (jr *JSONReader) push() error {
	if jr.depth++; jr.depth > maxJSONDepth {
		return jr.errorf("exceeded max depth")
	}
	return nil
}

// readKey consumes an object key (buf[pos] is '"') and its colon, returning
// the key unescaped.
func (jr *JSONReader) readKey() ([]byte, error) {
	raw, esc, err := jr.str()
	if err != nil {
		return nil, err
	}
	key := raw[1 : len(raw)-1]
	if esc {
		jr.key = unquoteKey(jr.key[:0], key)
		key = jr.key
	}
	if jr.pos < len(jr.buf) && jr.buf[jr.pos] == ':' {
		jr.pos++
		return key, nil
	}
	if !esc {
		// Finding the colon may slide the window out from under key.
		jr.key = append(jr.key[:0], key...)
		key = jr.key
	}
	c, err := jr.peek()
	if err != nil {
		return nil, err
	}
	if c != ':' {
		return nil, jr.syntax(c, "after object key")
	}
	jr.pos++
	return key, nil
}

// unquoteKey appends the unescaped body of a key as encoding/json unquotes
// it: a \u surrogate that does not pair becomes U+FFFD. The escapes are
// known valid (str checked them).
func unquoteKey(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		if s[i] != '\\' {
			dst = append(dst, s[i])
			i++
			continue
		}
		switch c := s[i+1]; c {
		case 'u':
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		default: // '"', '\\', '/'
			dst = append(dst, c)
		}
		if s[i+1] != 'u' {
			i += 2
			continue
		}
		r := hex4(s[i+2:])
		i += 6
		if utf16.IsSurrogate(r) {
			r2 := rune(-1)
			if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
				r2 = hex4(s[i+2:])
			}
			if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
				i += 6
			}
		}
		dst = utf8.AppendRune(dst, r)
	}
	return dst
}

// hex4 decodes four hex digits, or returns -1.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// str consumes a string token (buf[pos] is '"'), checking it as
// encoding/json's scanner does — no control characters, only the eight
// escapes — and returns its raw bytes, quotes included, valid until the
// next read; esc reports whether it holds escapes.
func (jr *JSONReader) str() (raw []byte, esc bool, err error) {
	i := jr.pos + 1
	for {
	scan:
		for i < len(jr.buf) {
			switch c := jr.buf[i]; {
			case c == '"':
				raw = jr.buf[jr.pos : i+1]
				jr.pos = i + 1
				return raw, esc, nil
			case c == '\\':
				esc = true
				if i+1 >= len(jr.buf) {
					break scan
				}
				switch jr.buf[i+1] {
				case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
					i += 2
				case 'u':
					if i+6 > len(jr.buf) {
						break scan
					}
					if hex4(jr.buf[i+2:]) < 0 {
						return nil, false, jr.errorf("invalid \\u escape in string literal")
					}
					i += 6
				default:
					return nil, false, jr.syntax(jr.buf[i+1], "in string escape code")
				}
			case c < ' ':
				return nil, false, jr.syntax(c, "in string literal")
			default:
				i++
			}
		}
		rel := i - jr.pos
		if err := jr.fill(); err != nil {
			return nil, false, err
		}
		i = jr.pos + rel
	}
}

// number consumes a number token and returns its bytes, valid until the
// next read, refusing anything outside the JSON number grammar. Inside a
// document a number is always followed by another byte, so the token ends
// at the first byte no number can contain.
func (jr *JSONReader) number() ([]byte, error) {
	i := jr.pos
	for {
		for i < len(jr.buf) && isNumberByte(jr.buf[i]) {
			i++
		}
		if i < len(jr.buf) {
			break
		}
		rel := i - jr.pos
		if err := jr.fill(); err != nil {
			return nil, err
		}
		i = jr.pos + rel
	}
	raw := jr.buf[jr.pos:i]
	if !validNumber(raw) {
		return nil, jr.errorf("invalid number literal %q", raw)
	}
	jr.pos = i
	return raw, nil
}

// numberOrNull consumes a number (raw) or null (null true) where a value of
// type what is expected.
func (jr *JSONReader) numberOrNull(what string) (raw []byte, null bool, err error) {
	c, err := jr.peek()
	switch {
	case err != nil:
		return nil, false, err
	case c == 'n':
		return nil, true, jr.literal("null")
	case c == '-' || isDigit(c):
		raw, err = jr.number()
		return raw, false, err
	}
	return nil, false, jr.mismatch(c, what)
}

// literal consumes true, false or null.
func (jr *JSONReader) literal(lit string) error {
	if err := jr.ensure(len(lit)); err != nil {
		return err
	}
	if string(jr.buf[jr.pos:jr.pos+len(lit)]) != lit {
		return jr.errorf("invalid literal, want %s", lit)
	}
	jr.pos += len(lit)
	return nil
}

// peek skips whitespace and returns the next byte without consuming it.
func (jr *JSONReader) peek() (byte, error) {
	for {
		for jr.pos < len(jr.buf) {
			if c := jr.buf[jr.pos]; !isSpace(c) {
				return c, nil
			}
			jr.pos++
		}
		if err := jr.fill(); err != nil {
			return 0, err
		}
	}
}

// ensure buffers at least n unparsed bytes.
func (jr *JSONReader) ensure(n int) error {
	for len(jr.buf)-jr.pos < n {
		if err := jr.fill(); err != nil {
			return err
		}
	}
	return nil
}

// fill is more inside a document, where the input ending is a truncation.
func (jr *JSONReader) fill() error {
	if err := jr.more(); err != io.EOF {
		return err
	}
	return io.ErrUnexpectedEOF
}

// more slides the unparsed tail to the front of the window and reads at
// least one more byte, growing the window only when the tail fills it.
// Inside a document every buffered byte belongs to it, so a document that
// needs a byte past the limit is refused before it is read.
func (jr *JSONReader) more() error {
	if jr.pos > 0 {
		n := copy(jr.buf, jr.buf[jr.pos:])
		jr.off += int64(jr.pos)
		jr.buf, jr.pos = jr.buf[:n], 0
	}
	if jr.limit > 0 && jr.doc >= 0 && jr.off+int64(len(jr.buf))-jr.doc >= jr.limit {
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
		jr.buf = jr.buf[:len(jr.buf)+n]
		if err != nil {
			jr.rerr = err
		}
		if n > 0 {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return io.ErrNoProgress
}

// --- errors -------------------------------------------------------------

// jsonError is a syntax or type error at a stream offset.
type jsonError struct {
	off int64
	msg string
}

func (e *jsonError) Error() string { return fmt.Sprintf("json: %s (offset %d)", e.msg, e.off) }

func (jr *JSONReader) errorf(format string, args ...any) error {
	return &jsonError{off: jr.off + int64(jr.pos), msg: fmt.Sprintf(format, args...)}
}

func (jr *JSONReader) syntax(c byte, context string) error {
	return jr.errorf("invalid character %q %s", c, context)
}

// mismatch refuses a value (starting with c) where want was expected.
func (jr *JSONReader) mismatch(c byte, want string) error {
	return jr.errorf("cannot decode a value starting %q into %s", c, want)
}

// --- byte classes -------------------------------------------------------

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isNumberByte(c byte) bool {
	return isDigit(c) || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// validNumber reports whether s is exactly one JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func validNumber(s []byte) bool {
	i := 0
	digits := func() bool {
		start := i
		for i < len(s) && isDigit(s[i]) {
			i++
		}
		return i > start
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case !digits():
		return false
	}
	if i < len(s) && s[i] == '.' {
		i++
		if !digits() {
			return false
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			return false
		}
	}
	return i == len(s)
}

package frame

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"testing"
	"time"
)

// TestGoldenBytes pins both shapes, both end markers and every field
// primitive to literal bytes: the formats on disk and on the wire are these,
// whatever the code above them looks like.
func TestGoldenBytes(t *testing.T) {
	big := make([]byte, 300)
	for i := range big {
		big[i] = byte(i)
	}
	var e Encoder
	e.Byte(7)
	e.Uvarint(300)
	e.Varint(-3)
	e.Fixed64(1)
	e.Float64(-60.5)
	e.Bool(true)
	e.Bool(false)
	e.String("pm")
	e.Bytes([]byte{9, 8})
	e.Time(time.Unix(1, 5))
	e.Time(time.Unix(31, 5)) // chained: a 30 s delta
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"fixed frame", AppendFixed(nil, []byte("abc")), "03000000" + "c2412435" + "616263"},
		{"fixed empty frame (WAL)", AppendFixed(nil, nil), "00000000" + "00000000"},
		{"fixed end marker", AppendFixedEnd(nil, EndSum("PMSNAP02")), "00000000" + "fcd28420"},
		{"var frame", AppendVar(nil, []byte("abc")), "03" + "c2412435" + "616263"},
		{"var frame, two-byte length", AppendVar(nil, big)[:6], "ac02" + "eefcbc3a"},
		{"var end marker", VarEnd, "00"},
		{"fields", e.Buf, "07" + "ac02" + "05" + "0100000000000000" + "0000000000404ec0" +
			"01" + "00" + "02706d" + "020908" + "8aa8d6b907" + "80b09dc2df01"},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}

	d := NewDecoder(e.Buf)
	if d.Byte() != 7 || d.Uvarint() != 300 || d.Varint() != -3 || d.Fixed64() != 1 ||
		d.Float64() != -60.5 || !d.Bool() || d.Bool() || d.String() != "pm" || !bytes.Equal(d.Bytes(), []byte{9, 8}) ||
		!d.Time().Equal(time.Unix(1, 5)) || !d.Time().Equal(time.Unix(31, 5)) || d.Err() != nil || d.Rest() != 0 {
		t.Errorf("fields did not decode back (err %v, rest %d)", d.Err(), d.Rest())
	}
}

const testMax = 1 << 10

// testEnd keys the tests' fixed-shape end marker like a PMSNAP02 snapshot, so the
// parent-written snapshot in the seed corpus is a valid marked stream.
var testEnd = EndSum("PMSNAP02")

// readAll drains one stream of shape-specific frames, returning the payloads
// (copied) and the error that ended it.
func readAll(data []byte, fixed bool, end uint32) (out [][]byte, err error) {
	var scratch []byte
	r := bytes.NewReader(data)
	br := bufio.NewReader(r)
	for {
		var p []byte
		if fixed {
			p, err = ReadFixed(r, testMax, end, &scratch)
		} else {
			p, err = ReadVar(br, testMax, &scratch)
		}
		if err != nil {
			return out, err
		}
		if cap(scratch) > testMax+FixedHeaderSize {
			panic("reader allocated beyond its bound")
		}
		out = append(out, append([]byte(nil), p...))
	}
}

// checkStream is the property both frame fuzzers assert on arbitrary input:
// reading never panics, never allocates past the bound, ends in one of the
// five documented ways, and whatever it accepted is exactly a prefix of what
// re-framing the accepted payloads produces — so no bytes were skipped or
// invented. For input that is itself a valid stream, every strict prefix
// yields a prefix of the same payloads and ends io.EOF or ErrTruncated.
func checkStream(t *testing.T, data []byte, fixed bool, end uint32) {
	t.Helper()
	payloads, err := readAll(data, fixed, end)
	if err != io.EOF && err != ErrEnd && err != ErrTruncated && !errors.Is(err, ErrCorrupt) {
		// ReadUvarint's overflow is the one foreign error a byte slice can cause.
		if fixed || err.Error() != "binary: varint overflows a 64-bit integer" {
			t.Fatalf("stream ended with unclassified error %v", err)
		}
	}
	var re []byte
	for _, p := range payloads {
		if fixed {
			re = AppendFixed(re, p)
		} else {
			re = AppendVar(re, p)
		}
	}
	if !bytes.HasPrefix(data, re) {
		t.Fatalf("accepted payloads re-frame to bytes that are not a prefix of the input")
	}
	if err != io.EOF && err != ErrEnd {
		return
	}
	// data[:valid] is a complete valid stream: cut it everywhere.
	valid := len(re)
	if err == ErrEnd {
		valid += map[bool]int{true: FixedHeaderSize, false: 1}[fixed]
	}
	for cut := 0; cut < valid; cut++ {
		got, cerr := readAll(data[:cut], fixed, end)
		if cerr != io.EOF && cerr != ErrTruncated {
			t.Fatalf("prefix %d/%d ended with %v, want EOF or truncated", cut, valid, cerr)
		}
		if len(got) > len(payloads) {
			t.Fatalf("prefix %d/%d yielded more frames than the whole", cut, valid)
		}
		for i := range got {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("prefix %d/%d changed frame %d", cut, valid, i)
			}
		}
	}
}

func fixedStream(end uint32, payloads ...string) []byte {
	var b []byte
	for _, p := range payloads {
		b = AppendFixed(b, []byte(p))
	}
	if end != 0 {
		b = AppendFixedEnd(b, end)
	}
	return b
}

func varStream(marked bool, payloads ...string) []byte {
	var b []byte
	for _, p := range payloads {
		b = AppendVar(b, []byte(p))
	}
	if marked {
		b = append(b, VarEnd...)
	}
	return b
}

// TestReadClassification walks the error classes on hand-built streams.
func TestReadClassification(t *testing.T) {
	flip := func(b []byte, i int) []byte {
		c := append([]byte(nil), b...)
		c[i] ^= 0x40
		return c
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 9, 9}
	for _, tc := range []struct {
		name   string
		fixed  bool
		end    uint32
		data   []byte
		frames int
		want   error
	}{
		{"fixed: clean EOF", true, 0, fixedStream(0, "a", "", "ccc"), 3, io.EOF},
		{"fixed: end marker", true, testEnd, fixedStream(testEnd, "a", "bb"), 2, ErrEnd},
		{"fixed: EOF before the end marker", true, testEnd, fixedStream(0, "a"), 1, io.EOF},
		{"fixed: zero tail is not an end marker", true, testEnd, append(fixedStream(0, "a"), make([]byte, 8)...), 1, ErrCorrupt},
		{"fixed: zero tail is an empty record without one", true, 0, append(fixedStream(0, "a"), make([]byte, 8)...), 2, io.EOF},
		{"fixed: torn header", true, 0, fixedStream(0, "a", "bb")[:12], 1, ErrTruncated},
		{"fixed: torn payload", true, 0, fixedStream(0, "a", "bbbb")[:19], 1, ErrTruncated},
		{"fixed: bit flip", true, 0, flip(fixedStream(0, "a", "bbbb"), 18), 1, ErrCorrupt},
		{"fixed: absurd length", true, 0, append(fixedStream(0, "a"), huge...), 1, ErrCorrupt},
		{"var: clean EOF", false, 0, varStream(false, "a", "bb"), 2, io.EOF},
		{"var: end marker", false, 0, varStream(true, "a", "bb"), 2, ErrEnd},
		{"var: torn checksum", false, 0, varStream(false, "a", "bb")[:8], 1, ErrTruncated},
		{"var: torn payload", false, 0, varStream(false, "a", "bbbb")[:13], 1, ErrTruncated},
		{"var: torn length", false, 0, append(varStream(false, "a"), 0x80), 1, ErrTruncated},
		{"var: bit flip", false, 0, flip(varStream(false, "a", "bbbb"), 12), 1, ErrCorrupt},
		{"var: absurd length", false, 0, append(varStream(false, "a"), 0xff, 0xff, 0xff, 0x7f, 1, 2), 1, ErrCorrupt},
	} {
		got, err := readAll(tc.data, tc.fixed, tc.end)
		if len(got) != tc.frames || !errors.Is(err, tc.want) {
			t.Errorf("%s: %d frames then %v, want %d then %v", tc.name, len(got), err, tc.frames, tc.want)
		}
		checkStream(t, tc.data, tc.fixed, tc.end)
	}
}

// policyReader fails with a caller-defined error after n bytes, standing in
// for http.MaxBytesReader.
type policyReader struct {
	r   io.Reader
	n   int
	err error
}

func (p *policyReader) Read(b []byte) (int, error) {
	if p.n == 0 {
		return 0, p.err
	}
	if len(b) > p.n {
		b = b[:p.n]
	}
	n, err := p.r.Read(b)
	p.n -= n
	return n, err
}

// TestPolicyErrorsPassThrough: a reader's own error, wherever in a frame it
// strikes, comes back unchanged — not as truncation.
func TestPolicyErrorsPassThrough(t *testing.T) {
	policy := errors.New("body too large")
	fixed, varb := fixedStream(0, "payload-payload"), varStream(false, "payload-payload")
	for cut := 0; cut < len(fixed); cut++ {
		var scratch []byte
		if _, err := ReadFixed(&policyReader{bytes.NewReader(fixed), cut, policy}, testMax, 0, &scratch); err != policy {
			t.Fatalf("fixed, policy error after %d bytes: got %v", cut, err)
		}
	}
	for cut := 0; cut < len(varb); cut++ {
		var scratch []byte
		br := bufio.NewReader(&policyReader{bytes.NewReader(varb), cut, policy})
		if _, err := ReadVar(br, testMax, &scratch); err != policy {
			t.Fatalf("var, policy error after %d bytes: got %v", cut, err)
		}
	}
}

// TestDecoderCount: a list length is believed only as far as the remaining
// bytes could hold that many elements.
func TestDecoderCount(t *testing.T) {
	var e Encoder
	e.Uvarint(3)
	e.Buf = append(e.Buf, make([]byte, 6)...)
	if d := NewDecoder(e.Buf); d.Count(2) != 3 || d.Err() != nil || d.Rest() != 6 {
		t.Fatalf("3 two-byte elements in 6 bytes refused: %v", d.Err())
	}
	d := NewDecoder(e.Buf)
	if n := d.Count(3); n != 0 || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("3 three-byte elements in 6 bytes: count %d, err %v", n, d.Err())
	}
	if d.Count(1) != 0 || d.Rest() != 6 {
		t.Fatal("Count after a failure read on")
	}
	if d := NewDecoder(nil); d.Count(1) != 0 || !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("Count of empty input: %v", d.Err())
	}
}

func FuzzReadFixed(f *testing.F) {
	f.Add(fixedStream(0, "record-00", "", "record-02-xxxxxx"), false)
	f.Add(fixedStream(testEnd, "chunk one", "chunk two"), true)
	f.Add(append(fixedStream(0, "ok"), 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 9, 9), false) // TestWALGarbageLength
	f.Add(append(fixedStream(testEnd, "a"), make([]byte, 8)...), true)
	f.Fuzz(func(t *testing.T, data []byte, marked bool) {
		end := uint32(0)
		if marked {
			end = testEnd
		}
		checkStream(t, data, true, end)
	})
}

func FuzzReadVar(f *testing.F) {
	f.Add(varStream(true, "block one", "block two"))
	f.Add(varStream(false, "record"))
	f.Add(append(varStream(false, "a"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f))
	f.Fuzz(func(t *testing.T, data []byte) { checkStream(t, data, false, 0) })
}

// FuzzDecoder drives every primitive over arbitrary bytes in an order the
// input chooses: no panic, errors stick, nothing is read past the input, and
// byte strings alias the input instead of allocating on a length's say-so.
func FuzzDecoder(f *testing.F) {
	var e Encoder
	e.Time(time.Unix(1393660800, 0))
	e.Varint(262)
	e.Float64(-60)
	e.String("00:11:22:33:44:55")
	e.Bool(true)
	f.Add([]byte{6, 2, 5, 7, 4}, e.Buf)
	f.Add([]byte{7, 7, 7}, []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 2})
	f.Add([]byte{1, 1, 8}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		d := NewDecoder(data)
		for _, op := range ops {
			before, failed := d.Rest(), d.Err() != nil
			var got []byte
			switch op % 10 {
			case 0:
				d.Byte()
			case 1:
				d.Uvarint()
			case 2:
				d.Varint()
			case 3:
				d.Fixed64()
			case 4:
				d.Bool()
			case 5:
				d.Float64()
			case 6:
				d.Time()
			case 7:
				got = d.Bytes()
			case 8:
				if v := d.Int(); v < 0 {
					t.Fatalf("Int returned %d", v)
				}
			case 9:
				got = []byte(d.String())
			}
			if d.Rest() < 0 || d.Rest() > before {
				t.Fatalf("op %d moved Rest from %d to %d", op%10, before, d.Rest())
			}
			if len(got) > before {
				t.Fatalf("op %d returned %d bytes out of %d remaining", op%10, len(got), before)
			}
			if failed && (d.Err() == nil || d.Rest() != before || len(got) != 0) {
				t.Fatalf("op %d after a failure: err %v, rest %d→%d, %d bytes", op%10, d.Err(), before, d.Rest(), len(got))
			}
		}
	})
}

package cloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/trace"
	"repro/internal/world"
)

// The JSON observation codec (internal/trace/jsonwire.go) replaces
// encoding/json on the discover and stream uploads; encoding/json is the
// oracle these tests hold it to, byte for byte on the way out and verdict for
// verdict, value for value on the way in.

// jsonTestZones are the zones the encoder must render exactly as
// time.Time.MarshalJSON does: UTC, the process's Local, and fixed offsets up
// to the largest RFC 3339 can write.
var jsonTestZones = []*time.Location{
	time.UTC,
	time.Local,
	time.FixedZone("IST", 5*3600+30*60),
	time.FixedZone("", -12*3600),
	time.FixedZone("edge", 23*3600+59*60),
	time.FixedZone("odd", -(3*3600 + 25*60 + 17)),
}

// jsonTestFloats are signal levels at encoding/json's formatting seams:
// signed zeros, both sides of the exponent-form thresholds, subnormals, the
// extremes.
var jsonTestFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.99999e-7, 1e20, 1e21, -1e21, 123456789e13,
	5e-324, -5e-324, 2.225073858507201e-308, math.MaxFloat64, -math.MaxFloat64, -72.5, 0.1,
}

// randomJSONObservations draws observations across the encoder's seams:
// nanosecond instants in every test zone, the years 0 and 9999, boundary and
// arbitrary floats, and cell fields from small to int64's extremes.
func randomJSONObservations(r *rand.Rand, n int) []trace.GSMObservation {
	ints := []int{0, -1, 404, 65535, math.MaxInt64, math.MinInt64}
	pickInt := func() int {
		if r.Intn(3) == 0 {
			return ints[r.Intn(len(ints))]
		}
		return int(r.Int63n(1<<40)) - 1<<39
	}
	obs := make([]trace.GSMObservation, n)
	for i := range obs {
		zone := jsonTestZones[r.Intn(len(jsonTestZones))]
		var at time.Time
		switch r.Intn(4) {
		case 0:
			year := []int{0, 9999, 1, 2014}[r.Intn(4)]
			at = time.Date(year, time.Month(1+r.Intn(12)), 1+r.Intn(28), r.Intn(24), r.Intn(60), r.Intn(60), r.Intn(1e9), zone)
		case 1:
			at = time.Unix(r.Int63n(1<<34), 0).In(zone) // whole seconds
		default:
			at = time.Unix(r.Int63n(1<<34), r.Int63n(1e9)).In(zone)
		}
		var sig float64
		switch r.Intn(3) {
		case 0:
			sig = jsonTestFloats[r.Intn(len(jsonTestFloats))]
		case 1:
			sig = -50 - r.Float64()*60
		default:
			for sig = math.NaN(); math.IsNaN(sig) || math.IsInf(sig, 0); {
				sig = math.Float64frombits(r.Uint64())
			}
		}
		obs[i] = trace.GSMObservation{
			At:        at,
			Cell:      world.CellID{MCC: pickInt(), MNC: pickInt(), LAC: pickInt(), CID: pickInt()},
			SignalDBM: sig,
		}
	}
	return obs
}

// sameEncoding fails unless the codec's output and encoding/json's agree:
// identical bytes, or errors with identical messages.
func sameEncoding(t *testing.T, what string, want []byte, werr error, got []byte, gerr error) {
	t.Helper()
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
			t.Fatalf("%s: encoding/json error %v, codec error %v", what, werr, gerr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: codec bytes differ from encoding/json\n got %s\nwant %s", what, got, want)
	}
}

// TestObservationsJSONMatchesMarshal is the encoder's byte-identity property:
// both envelopes, over randomized observations, encode exactly as
// json.Marshal and json.Encoder do, fail exactly where they fail, and decode
// back through the codec to what encoding/json decodes.
func TestObservationsJSONMatchesMarshal(t *testing.T) {
	r := rand.New(rand.NewSource(2501))
	for iter := 0; iter < 400; iter++ {
		var obs []trace.GSMObservation
		switch iter % 8 {
		case 0: // nil: "null"
		case 1:
			obs = []trace.GSMObservation{}
		default:
			obs = randomJSONObservations(r, r.Intn(40))
		}
		req := &DiscoverPlacesRequest{Observations: obs}
		if r.Intn(2) == 0 { // each omitempty field both ways
			req.Delta = true
		}
		if r.Intn(2) == 0 {
			req.Cursor = r.Int63() - r.Int63()
		}
		if r.Intn(2) == 0 {
			req.PrefixHash = r.Uint64()
		}
		want, werr := json.Marshal(req)
		got, gerr := appendDiscoverRequestJSON(nil, req)
		sameEncoding(t, "discover", want, werr, got, gerr)
		checkDiscoverJSON(t, got)

		var enc bytes.Buffer
		werr = json.NewEncoder(&enc).Encode(StreamBatch{Observations: obs})
		got, gerr = appendStreamBatchJSON([]byte("prefix"), &StreamBatch{Observations: obs})
		sameEncoding(t, "stream batch", enc.Bytes(), werr, bytes.TrimPrefix(got, []byte("prefix")), gerr)
		checkStreamJSON(t, append(got[len("prefix"):], got[len("prefix"):]...))
	}

	good := trace.GSMObservation{At: time.Date(2014, 9, 1, 0, 0, 0, 0, time.UTC), SignalDBM: -70}
	var bad []trace.GSMObservation
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		o := good
		o.SignalDBM = f
		bad = append(bad, o)
	}
	for _, at := range []time.Time{
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2014, 9, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
		time.Date(2014, 9, 1, 0, 0, 0, 0, time.FixedZone("", -25*3600)),
	} {
		o := good
		o.At = at
		bad = append(bad, o)
	}
	for _, o := range bad {
		what := fmt.Sprintf("%v / %v", o.At, o.SignalDBM)
		req := &DiscoverPlacesRequest{Observations: []trace.GSMObservation{good, o}}
		want, werr := json.Marshal(req)
		got, gerr := appendDiscoverRequestJSON(nil, req)
		if werr == nil {
			t.Fatalf("%s: encoding/json accepted the observation", what)
		}
		sameEncoding(t, what, want, werr, got, gerr)
		werr = json.NewEncoder(io.Discard).Encode(StreamBatch{Observations: req.Observations})
		_, gerr = appendStreamBatchJSON(nil, &StreamBatch{Observations: req.Observations})
		sameEncoding(t, what+" (stream)", nil, werr, nil, gerr)
	}
}

// checkDiscoverJSON decodes data as handlePlacesDiscover's JSON branch did
// (json.Decoder.Decode, which reads one value and ignores what follows) and
// through the codec — a whole-buffer read and a byte-at-a-time one — and
// fails unless the verdicts agree and accepted values are deeply equal.
func checkDiscoverJSON(t *testing.T, data []byte) {
	t.Helper()
	var want DiscoverPlacesRequest
	werr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	for _, r := range []io.Reader{bytes.NewReader(data), iotest.OneByteReader(bytes.NewReader(data))} {
		var got DiscoverPlacesRequest
		jr := trace.NewJSONReader(r, 0)
		gerr := readDiscoverRequestJSON(jr, &got)
		jr.Release()
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("discover %q: encoding/json error %v, codec error %v", data, werr, gerr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("discover %q: codec decoded\n%#v\nencoding/json decoded\n%#v", data, got, want)
		}
	}
}

// checkStreamJSON decodes data as handleObsStream's JSON loop did (fresh
// StreamBatch per json.Decoder.Decode until an error) and through the codec,
// and fails unless both yield the same batches and end the same way: a clean
// io.EOF, or an error after the same number of batches.
func checkStreamJSON(t *testing.T, data []byte) {
	t.Helper()
	var want []StreamBatch
	dec := json.NewDecoder(bytes.NewReader(data))
	var werr error
	for {
		var b StreamBatch
		if werr = dec.Decode(&b); werr != nil {
			break
		}
		want = append(want, b)
	}
	for _, r := range []io.Reader{bytes.NewReader(data), iotest.OneByteReader(bytes.NewReader(data))} {
		var got []StreamBatch
		jr := trace.NewJSONReader(r, 0)
		var gerr error
		for {
			var b StreamBatch
			if gerr = readStreamBatchJSON(jr, &b); gerr != nil {
				break
			}
			got = append(got, b)
		}
		jr.Release()
		if errors.Is(werr, io.EOF) != errors.Is(gerr, io.EOF) || len(got) != len(want) {
			t.Fatalf("stream %q: encoding/json took %d batches then %v, codec %d then %v", data, len(want), werr, len(got), gerr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stream %q: codec decoded\n%#v\nencoding/json decoded\n%#v", data, got, want)
		}
	}
}

// FuzzObservationsJSON is the reader's differential oracle: every input, read
// as a discover body and as a multi-batch stream, must be accepted or
// refused by the codec exactly when encoding/json accepts or refuses it, and
// accepted inputs must decode to identical values.
func FuzzObservationsJSON(f *testing.F) {
	for _, seed := range observationsJSONSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDiscoverJSON(t, data)
		checkStreamJSON(t, data)
	})
}

// observationsJSONSeeds is FuzzObservationsJSON's seed corpus: the client's
// own bodies, then the corners of what encoding/json accepts and refuses.
func observationsJSONSeeds() (seeds [][]byte) {
	r := rand.New(rand.NewSource(2502))
	real, _ := appendDiscoverRequestJSON(nil, &DiscoverPlacesRequest{
		Observations: randomJSONObservations(r, 3), Delta: true, Cursor: 720, PrefixHash: 1 << 63})
	seeds = append(seeds, real)
	var stream []byte
	for _, n := range []int{2, 0, 1} {
		stream, _ = appendStreamBatchJSON(stream, &StreamBatch{Observations: randomJSONObservations(r, n)})
	}
	seeds = append(seeds, stream)
	for _, s := range []string{
		// case-folded keys, Unicode simple folding included (ſ folds to S, K to K)
		`{"OBSERVATIONS":[{"at":"2014-09-01T00:00:00Z","cELL":{"MCC":1,"Mnc":2},"ſignalDBM":-1.5}],"DELTA":true,"Cursor":3,"PREFIX_HASH":4}`,
		`{"obſervations":[{"ſignaldbm":2}],"prefix_haſh":5}`,
		"{\"observations\":[{\"Cell\":{\"mcc\":1,\"\u212aid\":3}}]}",
		// escaped keys, surrogate pairs, a lone surrogate
		`{"\u006fbservations":[{"\u0041t":"2014-09-01T00:00:00Z","Ce\u006cl":{"\u006dcc":7}}],"prefix\u005fhash":7}`,
		`{"\ud83d\ude00":1,"\ud800":2,"\ud800\u0041":3,"observations":[]}`,
		`{"\"":1,"\\":2,"\/":3,"\b\f\n\r\t":4}`,
		// unknown fields with nested values
		`{"x":{"y":[1,{"z":null}],"w":"s","v":[true,false,-1.5e3,[]]},"observations":[{"extra":{"a":[{}]},"Cell":{"mcc":1,"q":{}}}]}`,
		// null for every field, at every level
		`{"observations":null,"delta":null,"cursor":null,"prefix_hash":null}`,
		`{"observations":[null,{"At":null,"Cell":null,"SignalDBM":null},{"Cell":{"mcc":null,"mnc":null,"lac":null,"cid":null}}]}`,
		`null`,
		`null{"observations":[]}null`,
		// duplicate keys: last wins, in place — stale elements survive a shorter repeat
		`{"observations":[{"At":"2014-09-01T00:00:00Z","Cell":{"mcc":1}},{"SignalDBM":2}],"observations":[{"Cell":{"mnc":2}}],"observations":[{},{},{}],"cursor":1,"cursor":2}`,
		`{"observations":[{"Cell":{"mcc":1},"Cell":{"lac":3},"At":"2014-09-01T00:00:00Z","At":null}],"observations":null,"observations":[{}]}`,
		`{"delta":true,"delta":false,"delta":null}`,
		// a repeated key's null leaves the earlier value, canonical elements included
		`{"observations":[{"At":"2014-09-01T00:00:00Z","Cell":{"mcc":1,"mnc":2,"lac":3,"cid":4},"SignalDBM":5}],"observations":[{"At":null,"Cell":{"mcc":null,"mnc":null,"lac":null,"cid":null},"SignalDBM":null}]}`,
		`{"observations":[{"At":"2014-09-01T00:00:00Z","Cell":{"mcc":1,"mnc":2,"lac":3,"cid":4},"SignalDBM":5},{}],"observations":[{"Cell":{"mcc":9}}],"observations":[{},{}]}`,
		`{"cursor":5,"cursor":null,"prefix_hash":6,"prefix_hash":null}`,
		// exponents and fractions in int fields, int64 and uint64 edges
		`{"cursor":1e3}`,
		`{"observations":[{"Cell":{"mcc":1.0}}]}`,
		`{"observations":[{"Cell":{"cid":-0,"lac":-9223372036854775808}}]}`,
		`{"cursor":9223372036854775808}`,
		`{"observations":[{"Cell":{"lac":99999999999999999999}}]}`,
		`{"prefix_hash":-1}`,
		`{"prefix_hash":18446744073709551615,"cursor":-9223372036854775808}`,
		`{"prefix_hash":18446744073709551616}`,
		`{"prefix_hash":1.5}`,
		// trailing bytes after a discover body (json.Decoder.Decode ignores them)
		`{"observations":[]}garbage`,
		`{"delta":true} {"delta":false}`,
		"\t\r\n { \"observations\" : [ { \"SignalDBM\" : -0.0 } , {} ] , \"delta\" : true } \n",
		// times: nanoseconds, offsets, escapes, out-of-range and lenient forms
		`{"observations":[{"At":"2014-09-01T00:00:00.123456789+05:30"},{"At":"0000-01-01T00:00:00Z"},{"At":"9999-12-31T23:59:59.999999999-23:59"}]}`,
		`{"observations":[{"At":"2014-09-01T00:00:00\u005a"}]}`,
		`{"observations":[{"At":"2014-09-01T00:00:00+24:00"}]}`,
		`{"observations":[{"At":"2014-09-01 00:00:00Z"}]}`,
		`{"observations":[{"At":1}]}`,
		`{"observations":[{"At":{}}]}`,
		// numbers at the grammar's edges
		`{"observations":[{"SignalDBM":1e400}]}`,
		`{"observations":[{"SignalDBM":1e-400}]}`,
		`{"observations":[{"SignalDBM":01}]}`,
		`{"observations":[{"SignalDBM":1.}]}`,
		`{"observations":[{"SignalDBM":-}]}`,
		`{"observations":[{"SignalDBM":1E+2}]}`,
		`{"x":[1,]}`,
		`{"x":1,}`,
		// strings: control characters, bad escapes, bytes that are not UTF-8
		"{\"x\":\"\x01\"}",
		"{\"x\":\"\xff\",\"\xffAt\":1}",
		`{"x":"\x"}`,
		`{"x":"\u12g4"}`,
		// type mismatches at every level
		`[]`, `1`, `"s"`, `true`,
		`{"observations":{}}`, `{"observations":[1]}`, `{"observations":[[]]}`, `{"observations":[{"Cell":[]}]}`,
		`{"observations":[{"Cell":{"mcc":"1"}}]}`, `{"delta":1}`, `{"cursor":"1"}`,
		// truncations and empty input
		``, ` `, `{`, `{"observations":[`, `{"observations":[{"At":"2014`, `nul`, `tru`,
	} {
		seeds = append(seeds, []byte(s))
	}
	// encoding/json's nesting limit, either side of it
	return append(seeds,
		[]byte(`{"x":`+strings.Repeat("[", 9998)+strings.Repeat("]", 9998)+`}`),
		[]byte(`{"x":`+strings.Repeat("[", 9999)+strings.Repeat("]", 9999)+`}`))
}

// TestJSONReaderFramesLikeDecoder pins where the reader says a document
// ends, which the differential fuzz target only sees through verdicts and
// values: over every fuzz seed and randomized multi-batch streams, each
// document encoding/json accepts must come back from the reader as exactly
// the bytes json.Decoder consumed for it, leading whitespace aside, and must
// come back even when reading past its last byte fails.
func TestJSONReaderFramesLikeDecoder(t *testing.T) {
	inputs := observationsJSONSeeds()
	r := rand.New(rand.NewSource(2503))
	for i := 0; i < 300; i++ {
		inputs = append(inputs, randomJSONStream(t, r))
	}
	for _, data := range inputs {
		var want [][]byte
		dec := json.NewDecoder(bytes.NewReader(data))
		end := 0
		for {
			var b StreamBatch
			if dec.Decode(&b) != nil {
				break
			}
			want = append(want, bytes.TrimLeft(data[end:dec.InputOffset()], " \t\r\n"))
			end = int(dec.InputOffset())
		}
		for _, rd := range []io.Reader{
			bytes.NewReader(data),
			iotest.OneByteReader(bytes.NewReader(data)),
			&failPastReader{rest: data[:end]},
			iotest.OneByteReader(&failPastReader{rest: data[:end]}),
		} {
			jr := trace.NewJSONReader(rd, 0)
			for i, w := range want {
				if doc, err := jr.Document(); err != nil || !bytes.Equal(doc, w) {
					t.Fatalf("%q: document %d framed as %q (%v), json.Decoder consumed %q", data, i, doc, err, w)
				}
			}
			jr.Release()
		}
	}
}

// failPastReader serves rest, then fails every later Read.
type failPastReader struct{ rest []byte }

func (f *failPastReader) Read(p []byte) (int, error) {
	if len(f.rest) == 0 {
		return 0, errors.New("read past the last document")
	}
	n := copy(p, f.rest)
	f.rest = f.rest[n:]
	return n, nil
}

// randomJSONStream writes up to six documents in the forms a stream may
// carry: the client's own batches with and without their newline, indented
// batches, batches whose unknown fields hold escapes, quotes and brackets
// inside strings and nested containers, and nulls, with whitespace of every
// kind between them, and sometimes a truncated last document.
func randomJSONStream(t *testing.T, r *rand.Rand) []byte {
	t.Helper()
	var out []byte
	for n := r.Intn(6); n >= 0; n-- {
		out = append(out, []string{"", " ", "\n", "\t\r\n "}[r.Intn(4)]...)
		b := StreamBatch{Observations: randomJSONObservations(r, r.Intn(4))}
		obs, err := trace.AppendObservationsJSON(nil, b.Observations)
		if err != nil {
			t.Fatal(err)
		}
		switch r.Intn(5) {
		case 0:
			out, err = appendStreamBatchJSON(out, &b)
		case 1:
			out, err = appendStreamBatchJSON(out, &b)
			out = out[:len(out)-1]
		case 2:
			var doc []byte
			doc, err = json.MarshalIndent(b, "", "\t")
			out = append(out, doc...)
		case 3:
			out = append(out, `{"x":"\"}]\\{[","observations":`...)
			out = append(append(out, obs...), `,"y":[{"z":["}"]},[]],"w":"\\"}`...)
		default:
			out = append(out, "null"...)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if r.Intn(4) == 0 {
		out = out[:r.Intn(len(out)+1)]
	}
	return out
}

package cloud

// Tests for the binary wire codec (DESIGN.md §14): content negotiation edge
// cases, the randomized JSON ≡ binary equivalence property, robustness
// against truncated or foreign bodies, the sticky JSON downgrade against
// peers that predate the codec, and end-to-end equivalence of the binary and
// JSON clients over the three converted route families.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/geo"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/world"
)

// The framing tests and benchmarks predate internal/frame and keep their
// spelling of its var shape.
var (
	appendWireFrame = frame.AppendVar
	wireFrameEnd    = frame.VarEnd
)

// --- negotiation ----------------------------------------------------------

func TestAcceptsBinary(t *testing.T) {
	cases := []struct {
		accept []string
		want   bool
	}{
		{nil, false},          // no header: the compatible default
		{[]string{""}, false}, // empty header
		{[]string{ContentTypeBinary}, true},
		{[]string{"application/json"}, false},
		{[]string{"*/*"}, false}, // wildcard alone never opts into binary
		{[]string{"text/html"}, false},
		{[]string{ContentTypeBinary + ", application/json;q=0.5"}, true},
		{[]string{ContentTypeBinary + ";q=0.4, application/json;q=0.5"}, false},
		{[]string{ContentTypeBinary + ";q=0.5, application/json;q=0.5"}, true}, // tie: the explicit offer wins
		{[]string{ContentTypeBinary + ";q=0"}, false},                          // q=0 is a refusal
		{[]string{ContentTypeBinary + ";q=0.8, */*;q=0.9"}, false},
		{[]string{ContentTypeBinary + ";q=0.8, application/*;q=0.3"}, true},
		{[]string{"application/json", ContentTypeBinary}, true}, // two header lines
		{[]string{";;;garbage"}, false},
		{[]string{";;;garbage, " + ContentTypeBinary}, true}, // unparseable parts are skipped
	}
	for _, tc := range cases {
		r, _ := http.NewRequest(http.MethodGet, "/", nil)
		for _, v := range tc.accept {
			r.Header.Add("Accept", v)
		}
		if got := acceptsBinary(r); got != tc.want {
			t.Errorf("acceptsBinary(%q) = %v, want %v", tc.accept, got, tc.want)
		}
	}
}

func TestRequestCodec(t *testing.T) {
	cases := []struct {
		ct   string
		want reqCodec
	}{
		{"", codecJSON}, // absent header is the historical JSON default
		{"application/json", codecJSON},
		{"application/json; charset=utf-8", codecJSON},
		{ContentTypeBinary, codecBinary},
		{ContentTypeBinary + "; v=1", codecBinary},
		{"application/msgpack", codecUnknown},
		{"text/plain", codecUnknown},
		{";;;not a media type", codecUnknown},
	}
	for _, tc := range cases {
		r, _ := http.NewRequest(http.MethodPost, "/", nil)
		if tc.ct != "" {
			r.Header.Set("Content-Type", tc.ct)
		}
		if got := requestCodec(r); got != tc.want {
			t.Errorf("requestCodec(%q) = %v, want %v", tc.ct, got, tc.want)
		}
	}
}

// --- JSON ≡ binary equivalence property -----------------------------------

func jsonRender(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// roundTripEq encodes msg with the binary codec, decodes into a fresh value,
// and requires the JSON renderings to match byte-for-byte — the same
// observable the JSON wire exposes, including nil-vs-empty and omitempty
// semantics.
func roundTripEq(t *testing.T, msg, into any) {
	t.Helper()
	buf, ok := appendWire(nil, msg)
	if !ok {
		t.Fatalf("no binary codec for %T", msg)
	}
	if err := decodeWire(buf, into); err != nil {
		t.Fatalf("decodeWire(%T): %v", msg, err)
	}
	if got, want := jsonRender(t, into), jsonRender(t, msg); got != want {
		t.Errorf("binary round trip of %T changed the message:\n got %s\nwant %s", msg, got, want)
	}
}

func randWireTime(r *rand.Rand) time.Time {
	// The decoder returns UTC instants; generate UTC so JSON renderings of
	// original and round-tripped values use the same zone designator.
	return time.Unix(int64(r.Intn(1<<30)), int64(r.Intn(1e9))).UTC()
}

func randCells(r *rand.Rand) []world.CellID {
	n := r.Intn(5)
	if n == 0 {
		return nil // empty encodes as absent, decodes as nil — JSON "null" parity
	}
	out := make([]world.CellID, n)
	for i := range out {
		out[i] = world.CellID{
			MCC: r.Intn(1000), MNC: r.Intn(1000),
			LAC: r.Intn(1 << 16), CID: r.Intn(1 << 28),
		}
	}
	return out
}

func randString(r *rand.Rand) string {
	const alpha = "abcdefghijklmnop-0123456789"
	b := make([]byte, r.Intn(12))
	for i := range b {
		b[i] = alpha[r.Intn(len(alpha))]
	}
	return string(b)
}

func randDiscoverResponse(r *rand.Rand) *DiscoverPlacesResponse {
	m := &DiscoverPlacesResponse{TraceLen: int64(r.Intn(1 << 20)), TraceHash: r.Uint64()}
	for i, n := 0, r.Intn(4); i < n; i++ {
		p := PlaceWire{
			ID:        r.Intn(100),
			Signature: randCells(r),
			Cells:     randCells(r),
			Label:     randString(r),
		}
		for j, nv := 0, r.Intn(4); j < nv; j++ {
			p.Visits = append(p.Visits, VisitWire{Arrive: randWireTime(r), Depart: randWireTime(r)})
		}
		m.Places = append(m.Places, p)
	}
	return m
}

func randPopular(r *rand.Rand) *PopularPlacesResponse {
	m := &PopularPlacesResponse{K: 2 + r.Intn(10)}
	for i, n := 0, r.Intn(6); i < n; i++ { // none leaves Places nil, as clusterPopular does
		p := PopularPlace{
			Center: geo.LatLng{Lat: r.Float64()*180 - 90, Lng: r.Float64()*360 - 180},
			Users:  m.K + r.Intn(50),
		}
		if r.Intn(2) == 0 {
			p.Label = randString(r)
		}
		m.Places = append(m.Places, p)
	}
	return m
}

func randProfile(r *rand.Rand) *profile.DayProfile {
	p := &profile.DayProfile{UserID: randString(r), Date: "2026-01-0" + string(rune('1'+r.Intn(9)))}
	for i, n := 0, r.Intn(4); i < n; i++ {
		p.Places = append(p.Places, profile.PlaceVisit{
			PlaceID: randString(r), Label: randString(r),
			Arrive: randWireTime(r), Depart: randWireTime(r),
		})
	}
	for i, n := 0, r.Intn(3); i < n; i++ {
		p.Routes = append(p.Routes, profile.RouteUse{
			RouteID: randString(r), Start: randWireTime(r), End: randWireTime(r),
		})
	}
	for i, n := 0, r.Intn(3); i < n; i++ {
		p.Contacts = append(p.Contacts, profile.Encounter{
			ContactID: randString(r), PlaceID: randString(r),
			Start: randWireTime(r), End: randWireTime(r),
		})
	}
	if r.Intn(2) == 0 {
		p.Activity = &profile.ActivitySummary{MovingMinutes: r.Intn(1440), StillMinutes: r.Intn(1440)}
	}
	return p
}

// TestWireRoundTripProperty is the codec's pinning property: for every
// message kind, a binary round trip is invisible at the JSON level.
func TestWireRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		roundTripEq(t, randDiscoverResponse(r), &DiscoverPlacesResponse{})
		roundTripEq(t, &StreamResult{
			TraceLen: int64(r.Intn(1 << 20)), TraceHash: r.Uint64(),
			Appended: r.Intn(1 << 16), Events: r.Intn(1 << 10),
		}, &StreamResult{})
		roundTripEq(t, randProfile(r), &profile.DayProfile{})

		rng := []*profile.DayProfile{}
		for j, n := 0, r.Intn(4); j < n; j++ {
			rng = append(rng, randProfile(r))
		}
		if len(rng) == 0 {
			rng = nil // ProfileRange renders "null" for an empty range
		}
		var gotRange []*profile.DayProfile
		roundTripEq(t, rng, &gotRange)

		roundTripEq(t, &PredictArrivalResponse{
			PlaceID: randString(r), TypicalArrivalSec: r.Intn(86400), SampleCount: r.Intn(1000),
		}, &PredictArrivalResponse{})
		next := PredictNextVisitResponse{PlaceID: randString(r), Confident: r.Intn(2) == 0}
		if r.Intn(2) == 0 {
			next.NextVisit = randWireTime(r) // otherwise the zero time — presence bit path
		}
		roundTripEq(t, &next, &PredictNextVisitResponse{})
		roundTripEq(t, &FrequencyResponse{
			PlaceID: randString(r), VisitsPerWeek: r.Float64() * 20, TotalVisits: r.Intn(1000),
		}, &FrequencyResponse{})
		roundTripEq(t, &DwellStatsResponse{
			PlaceID: randString(r), Visits: r.Intn(500), MeanStaySec: r.Intn(86400),
			MedianStaySec: r.Intn(86400), LongestStaySec: r.Intn(7 * 86400),
		}, &DwellStatsResponse{})
		roundTripEq(t, randPopular(r), &PopularPlacesResponse{})
	}
}

// wireTarget returns a fresh decodeWire destination for a message kind, nil
// for a kind decodeWire does not carry.
func wireTarget(kind byte) any {
	switch kind {
	case wireKindDiscoverResponse:
		return &DiscoverPlacesResponse{}
	case wireKindStreamResult:
		return &StreamResult{}
	case wireKindProfile:
		return &profile.DayProfile{}
	case wireKindProfileRange:
		return &[]*profile.DayProfile{}
	case wireKindPredictArrival:
		return &PredictArrivalResponse{}
	case wireKindPredictNext:
		return &PredictNextVisitResponse{}
	case wireKindFrequency:
		return &FrequencyResponse{}
	case wireKindDwell:
		return &DwellStatsResponse{}
	case wireKindPopular:
		return &PopularPlacesResponse{}
	}
	return nil
}

// wireDecoded returns the value appendWire takes for a filled destination
// and how many slice elements the decode produced.
func wireDecoded(into any) (msg any, elems int) {
	profileElems := func(p *profile.DayProfile) int { return len(p.Places) + len(p.Routes) + len(p.Contacts) }
	switch v := into.(type) {
	case *DiscoverPlacesResponse:
		elems = len(v.Places)
		for _, p := range v.Places {
			elems += len(p.Signature) + len(p.Cells) + len(p.Visits)
		}
	case *profile.DayProfile:
		elems = profileElems(v)
	case *PopularPlacesResponse:
		elems = len(v.Places)
	case *[]*profile.DayProfile:
		elems = len(*v)
		for _, p := range *v {
			elems += profileElems(p)
		}
		return *v, elems
	}
	return into, elems
}

// FuzzDecodeWire: arbitrary bytes never panic the message decoder, whatever
// destination the kind byte selects; a message it accepts holds no more
// slice elements than it has bytes, and re-encodes to the input.
func FuzzDecodeWire(f *testing.F) {
	r := rand.New(rand.NewSource(7)) // TestWireRoundTripProperty's generators
	for _, msg := range []any{
		randDiscoverResponse(r), wireDiscoverFixture(),
		&StreamResult{TraceLen: 41, TraceHash: 0x0123456789abcdef, Appended: 700, Events: 3},
		randProfile(r), synthProfiles(3),
		&PredictArrivalResponse{PlaceID: "home", TypicalArrivalSec: 66600, SampleCount: 12},
		&PredictNextVisitResponse{PlaceID: "work", Confident: true, NextVisit: randWireTime(r)},
		&PredictNextVisitResponse{PlaceID: "work"},
		&FrequencyResponse{PlaceID: "mall", VisitsPerWeek: 1.5, TotalVisits: 9},
		wireDwellFixture,
		randPopular(r), wirePopularFixture(), &PopularPlacesResponse{K: 3},
	} {
		buf, ok := appendWire(nil, msg)
		if !ok {
			f.Fatalf("no binary codec for %T", msg)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)/2])
		f.Add(append(buf, 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var into any
		if len(data) > 1 {
			into = wireTarget(data[1])
		}
		if into == nil {
			// Too short for a kind, or no codec for it: any destination refuses.
			if err := decodeWire(data, &DwellStatsResponse{}); err == nil {
				t.Fatalf("%x decoded as a dwell response", data)
			}
			return
		}
		if err := decodeWire(data, into); err != nil {
			return
		}
		msg, elems := wireDecoded(into)
		if elems > len(data) {
			t.Fatalf("%d elements from %d bytes", elems, len(data))
		}
		re, _ := appendWire(nil, msg)
		if !bytes.Equal(re, data) {
			// Non-minimal varints, any-nonzero booleans and a nanosecond delta
			// that is a whole number of seconds are the ways two inputs share
			// a meaning; the re-encoding is the one they all decode to.
			into2 := wireTarget(re[1])
			if err := decodeWire(re, into2); err != nil {
				t.Fatalf("re-encoding of accepted input refused: %v", err)
			}
			msg2, _ := wireDecoded(into2)
			if re2, _ := appendWire(nil, msg2); !bytes.Equal(re2, re) {
				t.Fatal("accepted input does not round-trip")
			}
		}
	})
}

// TestWireObservationsCompact pins the codec's reason to exist: a day of
// observations costs a small fraction of its JSON rendering.
func TestWireObservationsCompact(t *testing.T) {
	obs := synthDays(1)
	var e trace.BinaryEncoder
	trace.AppendObservations(&e, obs)
	jsonBytes, err := json.Marshal(obs)
	if err != nil {
		t.Fatal(err)
	}
	// The fixed 8-byte signal field keeps raw observations around 4–5x; the
	// response-side codecs (places, profiles, analytics) compress far more —
	// TestWireResponsesCompact pins those ratios.
	if len(e.Buf)*4 > len(jsonBytes) {
		t.Errorf("binary observations = %d bytes, want ≤ 1/4 of JSON's %d", len(e.Buf), len(jsonBytes))
	}
}

// TestWireResponsesCompact pins the response-side floor on the three hot
// routes' bodies (the fixtures the Wire benchmarks time): the binary
// rendering is at most a fifth of JSON's bytes, and encoding it into a
// reused buffer allocates at most a fifth as often.
func TestWireResponsesCompact(t *testing.T) {
	for name, msg := range map[string]any{
		"discover":      wireDiscoverFixture(),
		"profile_range": synthProfiles(7),
		"dwell":         wireDwellFixture,
	} {
		jsonBytes, err := json.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		buf, ok := appendWire(nil, msg)
		if !ok {
			t.Fatalf("%s: no binary codec for %T", name, msg)
		}
		if len(buf)*5 > len(jsonBytes) {
			t.Errorf("%s: binary body = %d bytes, want ≤ 1/5 of JSON's %d", name, len(buf), len(jsonBytes))
		}
		jsonAllocs := testing.AllocsPerRun(20, func() { _, _ = json.Marshal(msg) })
		binAllocs := testing.AllocsPerRun(20, func() { buf, _ = appendWire(buf[:0], msg) })
		if binAllocs*5 > jsonAllocs {
			t.Errorf("%s: binary encode = %.0f allocs, want ≤ 1/5 of JSON's %.0f", name, binAllocs, jsonAllocs)
		}
	}
}

// --- malformed and foreign bodies -----------------------------------------

func rawBinPost(t *testing.T, h *deltaHarness, tok, path, ct string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, h.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ct)
	req.Header.Set("Authorization", "Bearer "+tok)
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestUnknownContentType415: a body in a codec the server does not speak is
// refused with 415 on every negotiating route, with the uniform JSON error
// body.
func TestUnknownContentType415(t *testing.T) {
	h := newDeltaHarness(t, nil, nil)
	c := h.newClient(t, "imei-415")
	tok, _ := c.snapshotToken()
	for _, path := range []string{PathPlacesDiscover, PathObservationsStream} {
		resp := rawBinPost(t, h, tok, path, "application/msgpack", []byte("xx"))
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("%s with foreign content type: status %d, want 415", path, resp.StatusCode)
		}
		var er ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
			t.Errorf("%s 415 body not a JSON ErrorResponse: %v %+v", path, err, er)
		}
	}
}

// TestTruncatedBinary400: every way a binary body can be cut short or
// corrupted yields a clean 400 (or 413 under the size cap) — never a panic,
// never a misparse.
func TestTruncatedBinary400(t *testing.T) {
	h := newDeltaHarness(t, nil, nil)
	c := h.newClient(t, "imei-trunc")
	tok, _ := c.snapshotToken()

	var e trace.BinaryEncoder
	trace.AppendObservations(&e, synthDays(1)[:8])
	frame := appendWireFrame(nil, e.Buf)

	header := []byte{wireVersion, wireKindDiscoverRequest, 0 /* flags */, 0 /* cursor */}
	header = append(header, make([]byte, 8)...) // prefix hash
	good := append(append(append([]byte{}, header...), frame...), wireFrameEnd...)

	badCRC := append([]byte{}, good...)
	badCRC[len(header)+3] ^= 0xff // flip a CRC byte

	cases := []struct {
		name, path string
		body       []byte
	}{
		{"discover empty body", PathPlacesDiscover, nil},
		{"discover header only", PathPlacesDiscover, header},
		{"discover missing end marker", PathPlacesDiscover, append(append([]byte{}, header...), frame...)},
		{"discover frame cut mid-payload", PathPlacesDiscover, good[:len(header)+len(frame)/2]},
		{"discover CRC flip", PathPlacesDiscover, badCRC},
		{"discover wrong version", PathPlacesDiscover, append([]byte{99}, good[1:]...)},
		{"discover wrong kind", PathPlacesDiscover, append([]byte{wireVersion, wireKindDwell}, good[2:]...)},
		{"stream bare header truncated", PathObservationsStream, []byte{wireVersion}},
		{"stream frame cut mid-payload", PathObservationsStream,
			append([]byte{wireVersion, wireKindObsStream}, frame[:len(frame)/2]...)},
		{"stream CRC flip", PathObservationsStream,
			append([]byte{wireVersion, wireKindObsStream}, badCRC[len(header):len(header)+len(frame)]...)},
		{"profile put garbage", PathProfiles + "/2026-01-02", []byte{wireVersion, wireKindProfile, 0xff, 0xff}},
	}
	for _, tc := range cases {
		path, method := tc.path, http.MethodPost
		if tc.path != PathPlacesDiscover && tc.path != PathObservationsStream {
			method = http.MethodPut
		}
		req, err := http.NewRequest(method, h.ts.URL+path, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ContentTypeBinary)
		req.Header.Set("Authorization", "Bearer "+tok)
		resp, err := h.ts.Client().Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var er ErrorResponse
		derr := json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if derr != nil || er.Error == "" {
			t.Errorf("%s: error body not JSON ErrorResponse: %v %+v", tc.name, derr, er)
		}
	}

	// A clean stream that ends at a frame boundary without the marker is the
	// JSON-parity case: EOF there is a deliberate close, not truncation.
	body := append([]byte{wireVersion, wireKindObsStream}, frame...)
	resp := rawBinPost(t, h, tok, PathObservationsStream, ContentTypeBinary, body)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stream ending at frame boundary: status %d, want 200", resp.StatusCode)
	}
}

// TestBinaryUpload413: the streamed binary discover path preserves the typed
// 413 contract of the JSON path.
func TestBinaryUpload413(t *testing.T) {
	h := newDeltaHarness(t, nil, nil, WithMaxBodyBytes(4<<10))
	c := h.newClient(t, "imei-bin-413", WithWireCodec(WireBinary))
	_, err := c.DiscoverPlaces(synthDays(20))
	if !errors.Is(err, ErrRequestTooLarge) {
		t.Fatalf("binary oversized upload: err = %v, want ErrRequestTooLarge", err)
	}
}

// --- no downgrade against a peer that refuses the codec ---------------------

// binaryRefusingPeer emulates a server without the codec: binary request
// bodies are refused with 415.
func binaryRefusingPeer(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Type") == ContentTypeBinary {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnsupportedMediaType)
			fmt.Fprint(w, `{"error":"unsupported media type"}`)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// TestBinaryClient415IsAnError: a client configured WireBinary speaks
// binary. A peer that answers 415 fails the call with that status after
// exactly one request, on the buffered, streamed-discover and streaming-ingest
// paths alike — nothing is re-marshalled, replayed, or remembered.
func TestBinaryClient415IsAnError(t *testing.T) {
	h := newDeltaHarness(t, nil, binaryRefusingPeer)
	c := h.newClient(t, "imei-415", WithWireCodec(WireBinary))
	calls := []struct {
		name string
		do   func() error
	}{
		{"discover", func() error { _, err := c.DiscoverPlaces(synthDays(2)); return err }},
		{"stream", func() error { _, err := c.StreamObservations(t.Context(), synthDays(1), 0); return err }},
		{"profile put", func() error { return c.SyncProfile(synthProfiles(1)[0]) }},
		{"discover again", func() error { _, err := c.DiscoverPlaces(synthDays(2)); return err }},
	}
	for _, tc := range calls {
		before := c.m.attempts.Value()
		err := tc.do()
		if status, ok := StatusCode(err); !ok || status != http.StatusUnsupportedMediaType {
			t.Errorf("%s: err = %v, want http 415", tc.name, err)
		}
		if n := c.m.attempts.Value() - before; n != 1 {
			t.Errorf("%s: %d requests, want exactly 1", tc.name, n)
		}
	}
}

// --- end-to-end equivalence ------------------------------------------------

// synthProfiles builds a deterministic profile history with enough structure
// for every analytics query: a home place with an overnight midnight split,
// a labelled work place visited on weekdays, and routes/contacts/activity.
func synthProfiles(days int) []*profile.DayProfile {
	base := time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC) // a Monday
	var out []*profile.DayProfile
	for d := 0; d < days; d++ {
		day := base.AddDate(0, 0, d)
		date := day.Format(profile.DateFormat)
		p := &profile.DayProfile{Date: date}
		// Home from midnight (continuation of yesterday) to ~08:10.
		p.Places = append(p.Places, profile.PlaceVisit{
			PlaceID: "home", Label: "home",
			Arrive: day, Depart: day.Add(8*time.Hour + time.Duration(d)*10*time.Minute),
		})
		if day.Weekday() != time.Saturday && day.Weekday() != time.Sunday {
			p.Places = append(p.Places, profile.PlaceVisit{
				PlaceID: "work", Label: "work",
				Arrive: day.Add(9*time.Hour + time.Duration(d)*7*time.Minute),
				Depart: day.Add(17 * time.Hour),
			})
			p.Routes = append(p.Routes, profile.RouteUse{
				RouteID: "commute",
				Start:   day.Add(8*time.Hour + 30*time.Minute),
				End:     day.Add(9 * time.Hour),
			})
			p.Contacts = append(p.Contacts, profile.Encounter{
				ContactID: "colleague", PlaceID: "work",
				Start: day.Add(10 * time.Hour), End: day.Add(11 * time.Hour),
			})
		}
		// Home overnight: depart exactly at next midnight so the next day's
		// 00:00 arrival is a midnight continuation.
		p.Places = append(p.Places, profile.PlaceVisit{
			PlaceID: "home", Label: "home",
			Arrive: day.Add(19 * time.Hour), Depart: day.AddDate(0, 0, 1),
		})
		p.Activity = &profile.ActivitySummary{MovingMinutes: 60 + d, StillMinutes: 1300 - d}
		out = append(out, p)
	}
	return out
}

// stripUserIDs clears the server-assigned user id so profile histories of
// two different test users compare structurally.
func stripUserIDs(ps []*profile.DayProfile) {
	for _, p := range ps {
		p.UserID = ""
	}
}

// TestBinaryE2EMatchesJSON runs the identical workload through a JSON client
// and a binary client — delta trace sync, streaming ingest, profile
// upload/range, and every analytics query — and requires identical results,
// while the binary client moves a fraction of the bytes.
func TestBinaryE2EMatchesJSON(t *testing.T) {
	h := newDeltaHarness(t, nil, nil, WithCellDatabase(synthCellDB()))
	cj := h.newClient(t, "imei-e2e-json")
	cb := h.newClient(t, "imei-e2e-bin", WithWireCodec(WireBinary))
	clients := []*Client{cj, cb}

	// Delta trace sync: full upload, then a one-day extension.
	full := synthDays(4)
	for _, c := range clients {
		if _, err := c.DiscoverPlaces(full[:3*obsPerSynthDay]); err != nil {
			t.Fatal(err)
		}
	}
	var places [2]string
	for i, c := range clients {
		got, err := c.DiscoverPlaces(full)
		if err != nil {
			t.Fatal(err)
		}
		places[i] = canonicalWire(t, got)
	}
	if places[0] != places[1] {
		t.Errorf("binary delta sync diverges from JSON:\n got %s\nwant %s", places[1], places[0])
	}
	if n := cb.m.deltaUploads.Value(); n != 1 {
		t.Errorf("binary client delta uploads = %d, want 1 (cursor protocol intact)", n)
	}

	// Conflict path: diverge the server behind each client's back; the full
	// re-upload (chunked frames on the binary side) must heal both.
	for i, c := range clients {
		if _, _, err := h.store.SyncTrace(c.UserID(), false, 0, 0, synthDays(1)); err != nil {
			t.Fatal(err)
		}
		got, err := c.DiscoverPlaces(full)
		if err != nil {
			t.Fatalf("client %d post-conflict discover: %v", i, err)
		}
		places[i] = canonicalWire(t, got)
	}
	if places[0] != places[1] {
		t.Errorf("post-conflict full upload diverges:\n got %s\nwant %s", places[1], places[0])
	}
	if n := cb.m.deltaFallbacks.Value(); n != 1 {
		t.Errorf("binary client delta fallbacks = %d, want 1", n)
	}

	// Streaming ingest of a fresh tail.
	var streams [2]StreamResult
	for i, c := range clients {
		res, err := c.StreamObservations(t.Context(), synthDays(5), 0)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = res
	}
	if streams[0] != streams[1] {
		t.Errorf("stream results diverge: json %+v, binary %+v", streams[0], streams[1])
	}

	// Profile upload and readback: single day, full range, empty range.
	days := synthProfiles(10)
	for _, c := range clients {
		for _, p := range days {
			if err := c.SyncProfile(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	var rendered [2]string
	for i, c := range clients {
		one, err := c.Profile(days[3].Date)
		if err != nil {
			t.Fatal(err)
		}
		all, err := c.ProfileRange("", "")
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != len(days) {
			t.Fatalf("client %d range returned %d profiles, want %d", i, len(all), len(days))
		}
		empty, err := c.ProfileRange("2030-01-01", "2030-01-02")
		if err != nil {
			t.Fatal(err)
		}
		if empty != nil {
			t.Errorf("client %d empty range = %v, want nil", i, empty)
		}
		stripUserIDs(all)
		one.UserID = ""
		rendered[i] = jsonRender(t, one) + "\n" + jsonRender(t, all)
	}
	if rendered[0] != rendered[1] {
		t.Errorf("profile readback diverges:\n got %s\nwant %s", rendered[1], rendered[0])
	}

	// Every analytics query family, JSON vs binary.
	after := time.Date(2026, 3, 12, 12, 0, 0, 0, time.UTC)
	for i, c := range clients {
		var parts []string
		ar, err := c.PredictArrival("work")
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, jsonRender(t, ar))
		nv, err := c.PredictNextVisit("work", after)
		if err != nil {
			t.Fatal(err)
		}
		if !nv.Confident {
			t.Errorf("client %d next-visit not confident over 10 days of history", i)
		}
		parts = append(parts, jsonRender(t, nv))
		fr, err := c.VisitFrequency("work")
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, jsonRender(t, fr))
		dw, err := c.DwellStats("home")
		if err != nil {
			t.Fatal(err)
		}
		if dw.Visits == 0 {
			t.Errorf("client %d dwell stats empty", i)
		}
		parts = append(parts, jsonRender(t, dw))
		fl, err := c.FrequencyByLabel("work")
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, jsonRender(t, fl))
		rendered[i] = fmt.Sprint(parts)
	}
	if rendered[0] != rendered[1] {
		t.Errorf("analytics responses diverge:\n json   %s\n binary %s", rendered[0], rendered[1])
	}

	// The k-anonymous aggregate: both users discovered the same home and
	// work, so k=2 keeps them.
	for i, c := range clients {
		pop, err := c.PopularPlaces(2, 300)
		if err != nil {
			t.Fatal(err)
		}
		if len(pop.Places) == 0 {
			t.Fatalf("client %d popular places empty", i)
		}
		rendered[i] = jsonRender(t, pop)
	}
	if rendered[0] != rendered[1] {
		t.Errorf("popular places diverge:\n json   %s\n binary %s", rendered[0], rendered[1])
	}
	// The JSON wire is what encoding/json writes for the handler's answer.
	want, err := json.Marshal(PopularPlacesResponse{K: 2, Places: h.server.popular.Places(2, 300)})
	if err != nil {
		t.Fatal(err)
	}
	tok, _ := cj.snapshotToken()
	req, _ := http.NewRequest(http.MethodGet, h.ts.URL+PathPlacesPopular+"?k=2&radius=300", nil)
	req.Header.Set("Authorization", "Bearer "+tok)
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" || string(body) != string(want)+"\n" {
		t.Errorf("JSON popular body = %s %q, want application/json %q", ct, body, string(want)+"\n")
	}

	// The whole point: the binary client moved far fewer bytes for the same
	// workload, and the server served binary.
	jsonBytes := cj.m.wireSentBytes.Value() + cj.m.wireRecvBytes.Value()
	binBytes := cb.m.wireSentBytes.Value() + cb.m.wireRecvBytes.Value()
	if binBytes == 0 || jsonBytes == 0 {
		t.Fatalf("byte counters not wired: json %d, binary %d", jsonBytes, binBytes)
	}
	if binBytes*2 > jsonBytes {
		t.Errorf("binary client moved %d bytes vs JSON's %d, want well under half", binBytes, jsonBytes)
	}
	if n := h.server.metrics.wireBin.Value(); n == 0 {
		t.Error("server pci_wire_encoding_total{codec=bin} never incremented")
	}
	if n := h.server.metrics.wireJSON.Value(); n == 0 {
		t.Error("server pci_wire_encoding_total{codec=json} never incremented")
	}
}

// synthCellDB geolocates synthDays' home cells (10, 11) and work cells
// (20, 21), about 4 km apart; its commute cells stay unmapped.
func synthCellDB() *CellDatabase {
	db := &CellDatabase{entries: map[world.CellID]GeoCellResponse{}}
	for cid, at := range map[int]geo.LatLng{
		10: {Lat: 28.6139, Lng: 77.2090}, 11: {Lat: 28.6141, Lng: 77.2093},
		20: {Lat: 28.6500, Lng: 77.2300}, 21: {Lat: 28.6502, Lng: 77.2297},
	} {
		db.entries[world.CellID{MCC: 404, MNC: 10, LAC: 1, CID: cid}] = GeoCellResponse{Lat: at.Lat, Lng: at.Lng, AccuracyMeters: 500}
	}
	return db
}

// TestBinaryClientReadsAreBinary: every read route a binary client calls
// answers on the binary wire. Each read moves the server's bin encoding
// counter by one and its json counter not at all; a handler that bypasses
// negotiation (writeJSON) moves neither, so both are checked.
func TestBinaryClientReadsAreBinary(t *testing.T) {
	h := newDeltaHarness(t, nil, nil, WithCellDatabase(synthCellDB()))
	cb := h.newClient(t, "imei-reads-bin", WithWireCodec(WireBinary))
	other := h.newClient(t, "imei-reads-other", WithWireCodec(WireBinary))
	for _, c := range []*Client{cb, other} {
		if _, err := c.DiscoverPlaces(synthDays(4)); err != nil {
			t.Fatal(err)
		}
	}
	days := synthProfiles(10)
	for _, p := range days {
		if err := cb.SyncProfile(p); err != nil {
			t.Fatal(err)
		}
	}

	after := time.Date(2026, 3, 12, 12, 0, 0, 0, time.UTC)
	reads := []struct {
		name string
		call func() error
	}{
		{"Places", func() error { _, err := cb.Places(); return err }},
		{"Profile", func() error { _, err := cb.Profile(days[3].Date); return err }},
		{"ProfileRange", func() error { _, err := cb.ProfileRange("", ""); return err }},
		{"PredictArrival", func() error { _, err := cb.PredictArrival("work"); return err }},
		{"PredictNextVisit", func() error { _, err := cb.PredictNextVisit("work", after); return err }},
		{"VisitFrequency", func() error { _, err := cb.VisitFrequency("work"); return err }},
		{"DwellStats", func() error { _, err := cb.DwellStats("home"); return err }},
		{"PopularPlaces", func() error { _, err := cb.PopularPlaces(2, 300); return err }},
	}
	for _, rd := range reads {
		jsonBefore, binBefore := h.server.metrics.wireJSON.Value(), h.server.metrics.wireBin.Value()
		if err := rd.call(); err != nil {
			t.Fatalf("%s: %v", rd.name, err)
		}
		jsonMoved := h.server.metrics.wireJSON.Value() - jsonBefore
		binMoved := h.server.metrics.wireBin.Value() - binBefore
		if jsonMoved != 0 || binMoved != 1 {
			t.Errorf("%s: pci_wire_encoding_total moved json by %d and bin by %d, want 0 and 1", rd.name, jsonMoved, binMoved)
		}
	}
}

// TestNegotiatedResponseContentType pins the response side of negotiation
// over real HTTP: the same resource answers binary or JSON by Accept alone.
func TestNegotiatedResponseContentType(t *testing.T) {
	h := newDeltaHarness(t, nil, nil)
	c := h.newClient(t, "imei-neg")
	for _, p := range synthProfiles(3) {
		if err := c.SyncProfile(p); err != nil {
			t.Fatal(err)
		}
	}
	tok, _ := c.snapshotToken()

	get := func(accept string) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodGet, h.ts.URL+PathPredictArrival+"?place=work", nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		req.Header.Set("Authorization", "Bearer "+tok)
		resp, err := h.ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Accept %q: status %d, body %s", accept, resp.StatusCode, body)
		}
		return resp, body
	}

	respJSON, bodyJSON := get("")
	if ct := respJSON.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("no-Accept response content type = %q, want application/json", ct)
	}
	var viaJSON PredictArrivalResponse
	if err := json.Unmarshal(bodyJSON, &viaJSON); err != nil {
		t.Fatal(err)
	}

	respBin, bodyBin := get(ContentTypeBinary + ", application/json;q=0.5")
	if ct := respBin.Header.Get("Content-Type"); ct != ContentTypeBinary {
		t.Fatalf("binary-Accept response content type = %q, want %s", ct, ContentTypeBinary)
	}
	var viaBin PredictArrivalResponse
	if err := decodeWire(bodyBin, &viaBin); err != nil {
		t.Fatal(err)
	}
	if viaBin != viaJSON {
		t.Errorf("negotiated representations diverge: json %+v, binary %+v", viaJSON, viaBin)
	}
	if len(bodyBin) >= len(bodyJSON) {
		t.Errorf("binary body %d bytes not smaller than JSON's %d", len(bodyBin), len(bodyJSON))
	}

	// A low q-value keeps the peer on JSON.
	respLow, _ := get(ContentTypeBinary + ";q=0.1, application/json")
	if ct := respLow.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("low-q binary Accept got content type %q, want application/json", ct)
	}
}

package cloud

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/frame"
	"repro/internal/geo"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/world"
)

// Binary wire codec (DESIGN.md §14). The paper's communication-management
// module assumes phones on intermittent cellular links, where every byte of
// PMS↔PCI traffic costs energy; reflective JSON spends most of its bytes on
// field names and RFC 3339 timestamps. This file promotes the compact trace
// codec (internal/trace/binary.go) to the wire via content negotiation:
//
//   - A client that wants binary sends Content-Type and/or Accept
//     application/x-pmware-bin. Anything else — including no header at all —
//     is the JSON path, byte-for-byte what it always was, so old and new
//     peers interoperate without a protocol flag day.
//   - Every binary message opens with a version byte and a message-kind
//     byte, so a route mix-up or codec drift fails loudly instead of
//     misparsing.
//   - Responses encode into sync.Pool-recycled buffers: the hot read routes
//     serve without an intermediate DTO slice or per-request allocation.
//   - Error bodies are ALWAYS JSON (ErrorResponse), whatever the request
//     codec — the client's error parsing predates negotiation and stays
//     uniform.
//
// Streamed bodies (trace sync, observation ingest) do not fit one buffer by
// design; they use CRC-framed observation blocks (internal/frame's var shape
// and its end marker) so neither side buffers the whole history and
// truncation fails at a frame boundary.

// ContentTypeBinary is the negotiated binary media type.
const ContentTypeBinary = "application/x-pmware-bin"

// contentTypeJSON is the default media type.
const contentTypeJSON = "application/json"

// wireVersion is the current binary wire-format version, the first byte of
// every binary message.
const wireVersion = 1

// Message kinds — the second byte of every binary message.
const (
	wireKindDiscoverRequest  byte = 1
	wireKindDiscoverResponse byte = 2
	wireKindStreamResult     byte = 3
	wireKindProfile          byte = 4
	wireKindProfileRange     byte = 5
	wireKindPredictArrival   byte = 6
	wireKindPredictNext      byte = 7
	wireKindFrequency        byte = 8
	wireKindDwell            byte = 9
	wireKindObsStream        byte = 10
	wireKindPopular          byte = 11
)

// maxWireFrame bounds one framed observation block on the streaming paths;
// a larger claim is corruption, not data.
const maxWireFrame = 8 << 20

// wireFrameObs is how many observations the client packs per frame on
// streamed binary uploads.
const wireFrameObs = 512

// maxPooledWireBuf caps the capacity of buffers returned to the pool, so one
// huge response does not pin its buffer forever.
const maxPooledWireBuf = 1 << 20

var wireBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getWireBuf() *[]byte { return wireBufPool.Get().(*[]byte) }

func putWireBuf(p *[]byte) {
	if cap(*p) <= maxPooledWireBuf {
		wireBufPool.Put(p)
	}
}

// readAllInto reads r to EOF appending into buf (reusing its capacity),
// returning the filled slice. io.ReadAll without the fresh allocation.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// acceptsBinary reports whether the request's Accept header asks for the
// binary media type: its q-value must be positive and at least as high as
// the best JSON-capable alternative (application/json, application/*, */*).
// No Accept header means JSON — the compatible default.
func acceptsBinary(r *http.Request) bool {
	values := r.Header.Values("Accept")
	if len(values) == 0 {
		return false
	}
	qBin, qJSON := -1.0, -1.0
	for _, hdr := range values {
		for _, part := range strings.Split(hdr, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			mt, params, err := mime.ParseMediaType(part)
			if err != nil {
				continue
			}
			q := 1.0
			if qs, ok := params["q"]; ok {
				f, err := strconv.ParseFloat(qs, 64)
				if err != nil || f < 0 {
					continue
				}
				q = f
			}
			switch mt {
			case ContentTypeBinary:
				qBin = max(qBin, q)
			case contentTypeJSON, "application/*", "*/*":
				qJSON = max(qJSON, q)
			}
		}
	}
	return qBin > 0 && qBin >= qJSON
}

// reqCodec classifies a request body's declared encoding.
type reqCodec int

const (
	codecJSON reqCodec = iota
	codecBinary
	codecUnknown
)

// requestCodec classifies the Content-Type header. An absent header is JSON
// (the historical default); an unparseable or foreign one is unknown, which
// negotiating handlers answer with 415.
func requestCodec(r *http.Request) reqCodec {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return codecJSON
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return codecUnknown
	}
	switch mt {
	case contentTypeJSON:
		return codecJSON
	case ContentTypeBinary:
		return codecBinary
	default:
		return codecUnknown
	}
}

// --- message codecs -------------------------------------------------------

// appendWire encodes msg as a binary wire message appended to dst. ok is
// false when the type has no binary codec (the caller falls back to JSON);
// response structs have one only by pointer.
func appendWire(dst []byte, msg any) ([]byte, bool) {
	var e trace.BinaryEncoder
	e.Buf = append(dst, wireVersion)
	switch m := msg.(type) {
	case *DiscoverPlacesResponse:
		e.Byte(wireKindDiscoverResponse)
		appendDiscoverResponse(&e, m)
	case *StreamResult:
		e.Byte(wireKindStreamResult)
		appendStreamResult(&e, m)
	case *profile.DayProfile:
		e.Byte(wireKindProfile)
		appendProfileBody(&e, m)
	case []*profile.DayProfile:
		e.Byte(wireKindProfileRange)
		e.Uvarint(uint64(len(m)))
		for _, p := range m {
			appendProfileBody(&e, p)
		}
	case *PredictArrivalResponse:
		e.Byte(wireKindPredictArrival)
		e.String(m.PlaceID)
		e.Varint(int64(m.TypicalArrivalSec))
		e.Varint(int64(m.SampleCount))
	case *PredictNextVisitResponse:
		e.Byte(wireKindPredictNext)
		e.String(m.PlaceID)
		e.Bool(m.Confident)
		// The zero time.Time predates the UnixNano range; carry presence
		// explicitly instead of a garbage delta.
		e.Bool(!m.NextVisit.IsZero())
		if !m.NextVisit.IsZero() {
			e.Time(m.NextVisit)
		}
	case *FrequencyResponse:
		e.Byte(wireKindFrequency)
		e.String(m.PlaceID)
		e.Float64(m.VisitsPerWeek)
		e.Varint(int64(m.TotalVisits))
	case *DwellStatsResponse:
		e.Byte(wireKindDwell)
		e.String(m.PlaceID)
		e.Varint(int64(m.Visits))
		e.Varint(int64(m.MeanStaySec))
		e.Varint(int64(m.MedianStaySec))
		e.Varint(int64(m.LongestStaySec))
	case *PopularPlacesResponse:
		e.Byte(wireKindPopular)
		e.Varint(int64(m.K))
		e.Uvarint(uint64(len(m.Places)))
		for i := range m.Places {
			p := &m.Places[i]
			e.Float64(p.Center.Lat)
			e.Float64(p.Center.Lng)
			e.Varint(int64(p.Users))
			e.String(p.Label)
		}
	default:
		return dst, false
	}
	return e.Buf, true
}

// wireDecodable reports whether decodeWire can fill into — the client uses
// it to decide whether to offer Accept: application/x-pmware-bin.
func wireDecodable(into any) bool {
	switch into.(type) {
	case *DiscoverPlacesResponse, *StreamResult, *profile.DayProfile, *[]*profile.DayProfile,
		*PredictArrivalResponse, *PredictNextVisitResponse, *FrequencyResponse, *DwellStatsResponse,
		*PopularPlacesResponse:
		return true
	}
	return false
}

// decodeWire parses a binary wire message into the pointed-to value,
// verifying version and message kind. Decoded values never alias data — the
// buffer may be recycled the moment this returns.
func decodeWire(data []byte, into any) error {
	d := trace.NewBinaryDecoder(data)
	if v := d.Byte(); d.Err() == nil && v != wireVersion {
		return fmt.Errorf("cloud: unsupported wire version %d", v)
	}
	kind := d.Byte()
	var want byte
	switch v := into.(type) {
	case *DiscoverPlacesResponse:
		want = wireKindDiscoverResponse
		if kind == want {
			decodeDiscoverResponse(d, v)
		}
	case *StreamResult:
		want = wireKindStreamResult
		if kind == want {
			v.TraceLen = d.Varint()
			v.TraceHash = d.Fixed64()
			v.Appended = int(d.Uvarint())
			v.Events = int(d.Uvarint())
		}
	case *profile.DayProfile:
		want = wireKindProfile
		if kind == want {
			decodeProfileBody(d, v)
		}
	case *[]*profile.DayProfile:
		want = wireKindProfileRange
		if kind == want {
			n := d.Uvarint()
			var out []*profile.DayProfile
			for i := uint64(0); i < n && d.Err() == nil; i++ {
				p := &profile.DayProfile{}
				decodeProfileBody(d, p)
				out = append(out, p)
			}
			if d.Err() == nil {
				*v = out
			}
		}
	case *PredictArrivalResponse:
		want = wireKindPredictArrival
		if kind == want {
			v.PlaceID = d.String()
			v.TypicalArrivalSec = int(d.Varint())
			v.SampleCount = int(d.Varint())
		}
	case *PredictNextVisitResponse:
		want = wireKindPredictNext
		if kind == want {
			v.PlaceID = d.String()
			v.Confident = d.Bool()
			if d.Bool() {
				v.NextVisit = d.Time()
			} else {
				v.NextVisit = time.Time{}
			}
		}
	case *FrequencyResponse:
		want = wireKindFrequency
		if kind == want {
			v.PlaceID = d.String()
			v.VisitsPerWeek = d.Float64()
			v.TotalVisits = int(d.Varint())
		}
	case *DwellStatsResponse:
		want = wireKindDwell
		if kind == want {
			v.PlaceID = d.String()
			v.Visits = int(d.Varint())
			v.MeanStaySec = int(d.Varint())
			v.MedianStaySec = int(d.Varint())
			v.LongestStaySec = int(d.Varint())
		}
	case *PopularPlacesResponse:
		want = wireKindPopular
		if kind == want {
			v.K = int(d.Varint())
			v.Places = decodePopular(d)
		}
	default:
		return fmt.Errorf("cloud: no binary codec for %T", into)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if kind != want {
		return fmt.Errorf("cloud: wire kind %d where %d expected", kind, want)
	}
	if d.Rest() != 0 {
		return fmt.Errorf("cloud: %d trailing bytes after wire message", d.Rest())
	}
	return nil
}

func appendDiscoverResponse(e *trace.BinaryEncoder, m *DiscoverPlacesResponse) {
	appendPlaces(e, m.Places)
	e.Varint(m.TraceLen)
	e.Fixed64(m.TraceHash)
}

func decodeDiscoverResponse(d *trace.BinaryDecoder, m *DiscoverPlacesResponse) {
	m.Places = decodePlaces(d)
	m.TraceLen = d.Varint()
	m.TraceHash = d.Fixed64()
}

// appendPlaces encodes a place list; visits ride e's timestamp chain.
func appendPlaces(e *trace.BinaryEncoder, places []PlaceWire) {
	e.Uvarint(uint64(len(places)))
	for i := range places {
		p := &places[i]
		e.Varint(int64(p.ID))
		appendCells(e, p.Signature)
		appendCells(e, p.Cells)
		appendVisits(e, p.Visits)
		e.String(p.Label)
	}
}

// decodePlaces decodes a place list; an empty one is nil. Like every list
// decoder here it checks the count against the least its elements could cost
// (frame's Decoder.Count) and leaves a malformed input's error on d — what it
// returns then is not for use.
func decodePlaces(d *trace.BinaryDecoder) (out []PlaceWire) {
	for i, n := 0, d.Count(5); i < n; i++ { // id, two cell counts, visit count, label length
		out = append(out, PlaceWire{ID: int(d.Varint()), Signature: decodeCells(d), Cells: decodeCells(d),
			Visits: decodeVisits(d), Label: d.String()})
	}
	return out
}

// decodePopular decodes a popular-place list; an empty one is nil, as
// clusterPopular returns it.
func decodePopular(d *trace.BinaryDecoder) (out []PopularPlace) {
	n := d.Count(18) // two float64s, a user count, a label length
	if n > 0 {
		out = make([]PopularPlace, 0, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, PopularPlace{Center: geo.LatLng{Lat: d.Float64(), Lng: d.Float64()},
			Users: int(d.Varint()), Label: d.String()})
	}
	return out
}

func appendVisits(e *trace.BinaryEncoder, visits []VisitWire) {
	e.Uvarint(uint64(len(visits)))
	for _, v := range visits {
		e.Time(v.Arrive)
		e.Time(v.Depart)
	}
}

func decodeVisits(d *trace.BinaryDecoder) (out []VisitWire) {
	for i, n := 0, d.Count(2); i < n; i++ { // two time deltas
		out = append(out, VisitWire{Arrive: d.Time(), Depart: d.Time()})
	}
	return out
}

// appendRoutes encodes a route list in the shape of a place list: id, cells,
// trips on e's timestamp chain.
func appendRoutes(e *trace.BinaryEncoder, routes []RouteWire) {
	e.Uvarint(uint64(len(routes)))
	for i := range routes {
		r := &routes[i]
		e.Varint(int64(r.ID))
		appendCells(e, r.Cells)
		appendVisits(e, r.Trips)
	}
}

func decodeRoutes(d *trace.BinaryDecoder) (out []RouteWire) {
	for i, n := 0, d.Count(3); i < n; i++ { // id, cell count, trip count
		out = append(out, RouteWire{ID: int(d.Varint()), Cells: decodeCells(d), Trips: decodeVisits(d)})
	}
	return out
}

func appendStreamResult(e *trace.BinaryEncoder, m *StreamResult) {
	e.Varint(m.TraceLen)
	e.Fixed64(m.TraceHash)
	e.Uvarint(uint64(m.Appended))
	e.Uvarint(uint64(m.Events))
}

// appendCells encodes a cell list with per-field deltas against the previous
// cell in the list (a place signature's cells share MCC/MNC and usually LAC,
// so most entries cost a few bytes).
func appendCells(e *trace.BinaryEncoder, cells []world.CellID) {
	e.Uvarint(uint64(len(cells)))
	var prev world.CellID
	for _, c := range cells {
		e.Varint(int64(c.MCC - prev.MCC))
		e.Varint(int64(c.MNC - prev.MNC))
		e.Varint(int64(c.LAC - prev.LAC))
		e.Varint(int64(c.CID - prev.CID))
		prev = c
	}
}

func decodeCells(d *trace.BinaryDecoder) []world.CellID {
	n := d.Int()
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]world.CellID, 0, min(n, d.Rest()/4+1))
	var prev world.CellID
	for i := 0; i < n && d.Err() == nil; i++ {
		var c world.CellID
		c.MCC = prev.MCC + int(d.Varint())
		c.MNC = prev.MNC + int(d.Varint())
		c.LAC = prev.LAC + int(d.Varint())
		c.CID = prev.CID + int(d.Varint())
		if d.Err() != nil {
			return nil
		}
		prev = c
		out = append(out, c)
	}
	return out
}

// wireTimeChain delta-encodes a run of timestamps that are overwhelmingly
// whole seconds (profile visits, route uses, encounters): when both the
// previous and current instant sit on a second boundary the delta travels at
// seconds scale — a working day is three varint bytes instead of seven at
// nanoseconds scale — with a per-value flag falling back to nanoseconds for
// anything finer. Each profile body gets its own chain, so range entries
// decode independently of their neighbours.
type wireTimeChain struct{ lastNs int64 }

func (c *wireTimeChain) put(e *trace.BinaryEncoder, t time.Time) {
	ns := t.UnixNano()
	if ns%int64(time.Second) == 0 && c.lastNs%int64(time.Second) == 0 {
		e.Bool(true)
		e.Varint((ns - c.lastNs) / int64(time.Second))
	} else {
		e.Bool(false)
		e.Varint(ns - c.lastNs)
	}
	c.lastNs = ns
}

func (c *wireTimeChain) get(d *trace.BinaryDecoder) time.Time {
	seconds := d.Bool()
	delta := d.Varint()
	if seconds {
		delta *= int64(time.Second)
	}
	c.lastNs += delta
	return time.Unix(0, c.lastNs).UTC()
}

// appendProfileBody encodes one day profile.
func appendProfileBody(e *trace.BinaryEncoder, p *profile.DayProfile) {
	var tc wireTimeChain
	e.String(p.UserID)
	e.String(p.Date)
	e.Uvarint(uint64(len(p.Places)))
	for i := range p.Places {
		v := &p.Places[i]
		e.String(v.PlaceID)
		e.String(v.Label)
		tc.put(e, v.Arrive)
		tc.put(e, v.Depart)
	}
	e.Uvarint(uint64(len(p.Routes)))
	for i := range p.Routes {
		r := &p.Routes[i]
		e.String(r.RouteID)
		tc.put(e, r.Start)
		tc.put(e, r.End)
	}
	appendEncounters(e, &tc, p.Contacts)
	e.Bool(p.Activity != nil)
	if p.Activity != nil {
		e.Varint(int64(p.Activity.MovingMinutes))
		e.Varint(int64(p.Activity.StillMinutes))
	}
}

func decodeProfileBody(d *trace.BinaryDecoder, p *profile.DayProfile) {
	var tc wireTimeChain
	p.UserID = d.String()
	p.Date = d.String()
	for i, n := 0, d.Count(6); i < n; i++ { // two string lengths, two flagged time deltas
		p.Places = append(p.Places, profile.PlaceVisit{PlaceID: d.String(), Label: d.String(), Arrive: tc.get(d), Depart: tc.get(d)})
	}
	for i, n := 0, d.Count(5); i < n; i++ { // a string length, two flagged time deltas
		p.Routes = append(p.Routes, profile.RouteUse{RouteID: d.String(), Start: tc.get(d), End: tc.get(d)})
	}
	p.Contacts = decodeEncounters(d, &tc)
	if d.Bool() {
		p.Activity = &profile.ActivitySummary{
			MovingMinutes: int(d.Varint()),
			StillMinutes:  int(d.Varint()),
		}
	}
}

// appendEncounters encodes an encounter list on the caller's time chain: a
// day profile's contacts continue its own, a record's contact log starts one.
func appendEncounters(e *trace.BinaryEncoder, tc *wireTimeChain, encs []profile.Encounter) {
	e.Uvarint(uint64(len(encs)))
	for i := range encs {
		c := &encs[i]
		e.String(c.ContactID)
		e.String(c.PlaceID)
		tc.put(e, c.Start)
		tc.put(e, c.End)
	}
}

func decodeEncounters(d *trace.BinaryDecoder, tc *wireTimeChain) (out []profile.Encounter) {
	for i, n := 0, d.Count(6); i < n; i++ { // two string lengths, two flagged time deltas
		out = append(out, profile.Encounter{ContactID: d.String(), PlaceID: d.String(), Start: tc.get(d), End: tc.get(d)})
	}
	return out
}

// --- JSON upload envelopes ------------------------------------------------

// The two JSON bodies that carry observations — the discover upload and the
// stream batch — are written by internal/trace's hand-written observation
// encoder, byte for byte what encoding/json writes. On the way in,
// trace.JSONReader frames one document at a time; it may read ahead into its
// window but never waits for a byte past the document it returns. The
// document is parsed straight-line when it is in the encoder's own form and
// handed to json.Unmarshal otherwise, so encoding/json decides every input
// the client here never sends (FuzzObservationsJSON holds the pair to it).
// Every other JSON body stays on encoding/json.

// appendDiscoverRequestJSON appends m exactly as json.Marshal encodes it.
func appendDiscoverRequestJSON(dst []byte, m *DiscoverPlacesRequest) ([]byte, error) {
	dst = append(dst, `{"observations":`...)
	dst, err := trace.AppendObservationsJSON(dst, m.Observations)
	if err != nil {
		return nil, err
	}
	if m.Delta {
		dst = append(dst, `,"delta":true`...)
	}
	if m.Cursor != 0 {
		dst = strconv.AppendInt(append(dst, `,"cursor":`...), m.Cursor, 10)
	}
	if m.PrefixHash != 0 {
		dst = strconv.AppendUint(append(dst, `,"prefix_hash":`...), m.PrefixHash, 10)
	}
	return append(dst, '}'), nil
}

// appendStreamBatchJSON appends m exactly as json.Encoder writes it,
// trailing newline included.
func appendStreamBatchJSON(dst []byte, m *StreamBatch) ([]byte, error) {
	dst = append(dst, `{"observations":`...)
	dst, err := trace.AppendObservationsJSON(dst, m.Observations)
	if err != nil {
		return nil, err
	}
	return append(dst, "}\n"...), nil
}

// readDiscoverRequestJSON decodes the next document of jr into m as
// json.Decoder.Decode would into a zero request: straight-line when the
// document is in appendDiscoverRequestJSON's form, else through
// json.Unmarshal.
func readDiscoverRequestJSON(jr *trace.JSONReader, m *DiscoverPlacesRequest) error {
	doc, err := jr.Document()
	if err != nil {
		return err
	}
	c := trace.NewCanonJSON(doc)
	c.Lit(`{"observations":`)
	var req DiscoverPlacesRequest
	req.Observations = c.Observations()
	req.Delta = c.Opt(`,"delta":true`)
	if c.Opt(`,"cursor":`) {
		req.Cursor = int64(c.Int())
	}
	if c.Opt(`,"prefix_hash":`) {
		req.PrefixHash = c.Uint64()
	}
	c.Lit("}")
	if c.Done() {
		*m = req
		return nil
	}
	*m = DiscoverPlacesRequest{}
	return json.Unmarshal(doc, m)
}

// readStreamBatchJSON decodes the next document of jr into m as
// json.Decoder.Decode would into a zero batch, straight-line when the
// document is in appendStreamBatchJSON's form; io.EOF means the stream
// ended cleanly.
func readStreamBatchJSON(jr *trace.JSONReader, m *StreamBatch) error {
	doc, err := jr.Document()
	if err != nil {
		return err
	}
	c := trace.NewCanonJSON(doc)
	c.Lit(`{"observations":`)
	obs := c.Observations()
	c.Lit("}")
	if c.Done() {
		*m = StreamBatch{Observations: obs}
		return nil
	}
	*m = StreamBatch{}
	return json.Unmarshal(doc, m)
}

// --- framing for streamed bodies ------------------------------------------

// readWireHeader consumes the two bytes every binary message opens with and
// checks them: the wire version, then the message kind.
func readWireHeader(br *bufio.Reader, kind byte) error {
	var hdr [2]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return frame.ReadErr(err)
	}
	if hdr[0] != wireVersion {
		return fmt.Errorf("unsupported wire version %d", hdr[0])
	}
	if hdr[1] != kind {
		return fmt.Errorf("wire kind %d where %d expected", hdr[1], kind)
	}
	return nil
}

// readObsBlocks drains the var-shape frames (internal/frame) of a streamed
// body, handing each decoded observation block to sink until the end marker,
// a clean EOF at a frame boundary, the first error, or sink returning false.
// marked reports an explicit end marker; without it a nil error means a bare
// EOF — a deliberate close on the ingest stream, a cut-off upload on discover
// — or a sink that stopped early.
func readObsBlocks(br *bufio.Reader, sink func([]trace.GSMObservation) bool) (marked bool, err error) {
	bp := getWireBuf()
	defer putWireBuf(bp)
	for {
		payload, err := frame.ReadVar(br, maxWireFrame, bp)
		if err == frame.ErrEnd || err == io.EOF {
			return err == frame.ErrEnd, nil
		}
		if err != nil {
			return false, err
		}
		d := trace.NewBinaryDecoder(payload)
		obs := trace.DecodeObservations(d)
		if err := d.Err(); err != nil {
			return false, err
		}
		if d.Rest() != 0 {
			return false, fmt.Errorf("%d trailing bytes in observation frame", d.Rest())
		}
		if !sink(obs) {
			return false, nil
		}
	}
}

package cloud

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/gsm"
	"repro/internal/profile"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// The wire codec micro-benchmarks (DESIGN.md §14): each pair measures one hot route's body codec — the
// reflective JSON wire against the negotiated binary codec — at the codec
// layer, where the bytes-on-the-wire and allocation deltas are not drowned by
// net/http's per-request overhead (which both codecs pay identically). The
// equivalence property in wire_test.go holds the two representations
// interchangeable and TestWireResponsesCompact pins the bytes and allocation
// floors. Run with:
//
//	go test ./internal/cloud -run '^$' -bench Wire -benchmem

// wireDiscoverFixture is a realistic delta-sync response: the places GCA
// actually discovers over a week of the synthetic trace.
func wireDiscoverFixture() *DiscoverPlacesResponse {
	obs := synthDays(7)
	res := gsm.Discover(obs, gsm.DefaultParams())
	resp := &DiscoverPlacesResponse{TraceLen: int64(len(obs)), TraceHash: TraceHash(obs)}
	for _, p := range res.Places {
		resp.Places = append(resp.Places, PlaceToWire(p))
	}
	return resp
}

func benchEncodeJSON(b *testing.B, msg any) {
	b.ReportAllocs()
	var size int
	for i := 0; i < b.N; i++ {
		data, err := json.Marshal(msg)
		if err != nil {
			b.Fatal(err)
		}
		size = len(data)
	}
	b.ReportMetric(float64(size), "bodybytes/op")
}

func benchEncodeBinary(b *testing.B, msg any) {
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		var ok bool
		buf, ok = appendWire(buf[:0], msg)
		if !ok {
			b.Fatalf("no binary codec for %T", msg)
		}
	}
	b.ReportMetric(float64(len(buf)), "bodybytes/op")
}

func benchDecodeJSON(b *testing.B, msg any, mk func() any) {
	data, err := json.Marshal(msg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := json.Unmarshal(data, mk()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecodeBinary(b *testing.B, msg any, mk func() any) {
	data, ok := appendWire(nil, msg)
	if !ok {
		b.Fatalf("no binary codec for %T", msg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodeWire(data, mk()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- route 1: delta trace sync (DiscoverPlacesResponse) -------------------

func BenchmarkWireDiscoverEncodeJSON(b *testing.B) { benchEncodeJSON(b, wireDiscoverFixture()) }
func BenchmarkWireDiscoverEncodeBinary(b *testing.B) {
	benchEncodeBinary(b, wireDiscoverFixture())
}
func BenchmarkWireDiscoverDecodeJSON(b *testing.B) {
	benchDecodeJSON(b, wireDiscoverFixture(), func() any { return &DiscoverPlacesResponse{} })
}
func BenchmarkWireDiscoverDecodeBinary(b *testing.B) {
	benchDecodeBinary(b, wireDiscoverFixture(), func() any { return &DiscoverPlacesResponse{} })
}

// --- route 2: profile upload/range ([]*profile.DayProfile) ----------------

func BenchmarkWireProfileRangeEncodeJSON(b *testing.B) { benchEncodeJSON(b, synthProfiles(7)) }
func BenchmarkWireProfileRangeEncodeBinary(b *testing.B) {
	benchEncodeBinary(b, synthProfiles(7))
}
func BenchmarkWireProfileRangeDecodeJSON(b *testing.B) {
	benchDecodeJSON(b, synthProfiles(7), func() any { return &[]*profile.DayProfile{} })
}
func BenchmarkWireProfileRangeDecodeBinary(b *testing.B) {
	benchDecodeBinary(b, synthProfiles(7), func() any { return &[]*profile.DayProfile{} })
}

// BenchmarkWireProfileRangeServe* measure the whole serving path, store to
// body bytes: the JSON route deep-clones the window then reflects over it;
// the binary route encodes straight out of the store under the read lock
// into a reused buffer.
func BenchmarkWireProfileRangeServeJSON(b *testing.B) {
	s := servingStore(b)
	from := simclock.Epoch.AddDate(0, 0, 100).Format(profile.DateFormat)
	to := simclock.Epoch.AddDate(0, 0, 106).Format(profile.DateFormat)
	b.ReportAllocs()
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		data, err := json.Marshal(s.ProfileRange("u-serving", from, to))
		if err != nil {
			b.Fatal(err)
		}
		size = len(data)
	}
	b.ReportMetric(float64(size), "bodybytes/op")
}

func BenchmarkWireProfileRangeServeBinary(b *testing.B) {
	s := servingStore(b)
	from := simclock.Epoch.AddDate(0, 0, 100).Format(profile.DateFormat)
	to := simclock.Epoch.AddDate(0, 0, 106).Format(profile.DateFormat)
	b.ReportAllocs()
	b.ResetTimer()
	var e trace.BinaryEncoder
	for i := 0; i < b.N; i++ {
		e.Buf = append(e.Buf[:0], wireVersion, wireKindProfileRange)
		s.viewProfileRange("u-serving", from, to,
			func(n int) { e.Uvarint(uint64(n)) },
			func(p *profile.DayProfile) { appendProfileBody(&e, p) })
	}
	b.ReportMetric(float64(len(e.Buf)), "bodybytes/op")
}

// --- route 3: indexed analytics reads -------------------------------------

var wireDwellFixture = &DwellStatsResponse{
	PlaceID: "home", Visits: 365, MeanStaySec: 46980, MedianStaySec: 47100, LongestStaySec: 86400,
}

func BenchmarkWireAnalyticsEncodeJSON(b *testing.B) { benchEncodeJSON(b, wireDwellFixture) }
func BenchmarkWireAnalyticsEncodeBinary(b *testing.B) {
	benchEncodeBinary(b, wireDwellFixture)
}
func BenchmarkWireAnalyticsDecodeJSON(b *testing.B) {
	benchDecodeJSON(b, wireDwellFixture, func() any { return &DwellStatsResponse{} })
}
func BenchmarkWireAnalyticsDecodeBinary(b *testing.B) {
	benchDecodeBinary(b, wireDwellFixture, func() any { return &DwellStatsResponse{} })
}

// --- route 4: the k-anonymous popular-places aggregate --------------------

// wirePopularFixture is a popular-places answer of 20 clusters around one
// city, every third one without a consensus label.
func wirePopularFixture() *PopularPlacesResponse {
	r := rand.New(rand.NewSource(33))
	labels := []string{"home", "work", "mall", "gym", "station", "campus"}
	resp := &PopularPlacesResponse{K: 3}
	for i := 0; i < 20; i++ {
		p := PopularPlace{
			Center: geo.LatLng{Lat: 28.6139 + r.NormFloat64()*0.05, Lng: 77.2090 + r.NormFloat64()*0.05},
			Users:  3 + r.Intn(40),
		}
		if i%3 != 0 {
			p.Label = labels[r.Intn(len(labels))]
		}
		resp.Places = append(resp.Places, p)
	}
	return resp
}

func BenchmarkWirePopularEncodeJSON(b *testing.B) { benchEncodeJSON(b, wirePopularFixture()) }
func BenchmarkWirePopularEncodeBinary(b *testing.B) {
	benchEncodeBinary(b, wirePopularFixture())
}
func BenchmarkWirePopularDecodeJSON(b *testing.B) {
	benchDecodeJSON(b, wirePopularFixture(), func() any { return &PopularPlacesResponse{} })
}
func BenchmarkWirePopularDecodeBinary(b *testing.B) {
	benchDecodeBinary(b, wirePopularFixture(), func() any { return &PopularPlacesResponse{} })
}

// --- request side: streamed observation upload ----------------------------

// The stream pairs run what StreamObservations and handleObsStream run: the
// JSON observation codec (byte-identical to encoding/json's wire) against the
// binary frames, one day of observations in DefaultStreamBatchSize batches.

// obsStreamJSON is a day's stream body as the JSON client sends it.
func obsStreamJSON(b *testing.B) []byte {
	obs := synthDays(1)
	var body []byte
	for start := 0; start < len(obs); start += DefaultStreamBatchSize {
		var err error
		end := min(start+DefaultStreamBatchSize, len(obs))
		if body, err = appendStreamBatchJSON(body, &StreamBatch{Observations: obs[start:end]}); err != nil {
			b.Fatal(err)
		}
	}
	return body
}

func BenchmarkWireObsStreamEncodeJSON(b *testing.B) {
	obs := synthDays(1)
	b.ReportAllocs()
	var buf []byte
	var size int
	for i := 0; i < b.N; i++ {
		size = 0
		for start := 0; start < len(obs); start += DefaultStreamBatchSize {
			var err error
			end := min(start+DefaultStreamBatchSize, len(obs))
			if buf, err = appendStreamBatchJSON(buf[:0], &StreamBatch{Observations: obs[start:end]}); err != nil {
				b.Fatal(err)
			}
			size += len(buf)
		}
	}
	b.ReportMetric(float64(size), "bodybytes/op")
}

func BenchmarkWireObsStreamDecodeJSON(b *testing.B) {
	body := obsStreamJSON(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jr := trace.NewJSONReader(bytes.NewReader(body), DefaultMaxBodyBytes)
		for {
			var batch StreamBatch
			err := readStreamBatchJSON(jr, &batch)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		jr.Release()
	}
	b.ReportMetric(float64(len(body)), "bodybytes/op")
}

func BenchmarkWireObsStreamDecodeBinary(b *testing.B) {
	var body bytes.Buffer
	if err := writeObsFrames(&body, synthDays(1), DefaultStreamBatchSize); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br := bufio.NewReader(bytes.NewReader(body.Bytes()))
		if err := readWireHeader(br, wireKindObsStream); err != nil {
			b.Fatal(err)
		}
		if _, err := readObsBlocks(br, func([]trace.GSMObservation) bool { return true }); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(body.Len()), "bodybytes/op")
}

func BenchmarkWireObsStreamEncodeBinary(b *testing.B) {
	obs := synthDays(1)
	b.ReportAllocs()
	var e trace.BinaryEncoder
	var frame []byte
	var size int
	for i := 0; i < b.N; i++ {
		size = 2 // version + kind header
		for start := 0; start < len(obs); start += DefaultStreamBatchSize {
			end := min(start+DefaultStreamBatchSize, len(obs))
			e.Reset(e.Buf)
			trace.AppendObservations(&e, obs[start:end])
			frame = appendWireFrame(frame[:0], e.Buf)
			size += len(frame)
		}
		size += len(wireFrameEnd)
	}
	b.ReportMetric(float64(size), "bodybytes/op")
}

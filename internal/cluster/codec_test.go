package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/storage"
)

func randBatch(rng *rand.Rand) *BatchRequest {
	n := rng.Intn(20)
	recs := make([]ShipRecord, n)
	for i := range recs {
		rec := make([]byte, rng.Intn(200))
		rng.Read(rec)
		recs[i] = ShipRecord{
			Engine: uint8(rng.Intn(2)),
			Shard:  rng.Intn(16),
			Rec:    rec,
		}
	}
	return &BatchRequest{
		From:        fmt.Sprintf("node-%d", rng.Intn(100)),
		Epoch:       rng.Uint64() >> rng.Intn(60),
		Start:       rng.Uint64() >> rng.Intn(60),
		RingVersion: rng.Uint64() >> rng.Intn(60),
		DataShards:  1 + rng.Intn(8),
		TraceShards: 1 + rng.Intn(8),
		Records:     recs,
	}
}

// Every batch must round-trip the binary framing exactly.
func TestBatchBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		want := randBatch(rng)
		enc := EncodeBatchBinary(nil, want)
		got, err := DecodeBatchBinary(enc)
		if err != nil {
			t.Fatalf("iteration %d: decode: %v", i, err)
		}
		if got.Records == nil {
			got.Records = []ShipRecord{}
		}
		if want.Records == nil {
			want.Records = []ShipRecord{}
		}
		for j := range got.Records {
			if got.Records[j].Rec == nil {
				got.Records[j].Rec = []byte{}
			}
			if want.Records[j].Rec == nil {
				want.Records[j].Rec = []byte{}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: round-trip mismatch:\ngot  %+v\nwant %+v", i, got, want)
		}
	}
}

// Encoding into a reused buffer must not leak the previous batch.
func TestBatchBinaryBufferReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var buf []byte
	a, b := randBatch(rng), randBatch(rng)
	buf = EncodeBatchBinary(buf[:0], a)
	first := append([]byte(nil), buf...)
	buf = EncodeBatchBinary(buf[:0], b)
	buf = EncodeBatchBinary(buf[:0], a)
	if !bytes.Equal(buf, first) {
		t.Fatal("re-encoding the same batch into a reused buffer changed the bytes")
	}
}

// Truncation at any byte boundary must error, never misparse.
func TestBatchBinaryTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	enc := EncodeBatchBinary(nil, randBatch(rng))
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeBatchBinary(enc[:cut]); err == nil {
			t.Fatalf("decode of %d/%d-byte prefix succeeded", cut, len(enc))
		}
	}
	if _, err := DecodeBatchBinary(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("decode with a trailing byte succeeded")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 99
	if _, err := DecodeBatchBinary(bad); err == nil {
		t.Fatal("decode with a wrong version byte succeeded")
	}
}

// pinnedBatch is the request testdata/parent/batch.bin was encoded from. Its
// records are opaque to this package; they have the shape of the record codec
// (op byte 5, a 17-byte user id, a body).
func pinnedBatch() *BatchRequest {
	req := &BatchRequest{From: "n0", Epoch: 3, Start: 1 << 40, RingVersion: 7, DataShards: 8, TraceShards: 8}
	for i := 0; i < 5; i++ {
		req.Records = append(req.Records, ShipRecord{
			Shard: i * 37 % 8,
			Rec:   append([]byte{5, 17}, fmt.Sprintf("u%016x\x00\x0a2014-03-%02d\x00\x00\x00\x00", i*7919, i+1)...),
		})
	}
	return req
}

// TestParentFormatPin is the cross-commit format pin: the same request
// encodes to the fixture's bytes, and the fixture's bytes decode and
// re-encode to themselves. The fixture was re-cut on purpose by each change
// of replWireVersion: 2 → 3 when the records inside a batch left JSON for
// the record codec (DESIGN.md §8), and 3 → 4 when shard indices came to
// address one engine. batch.bin is v4; the v2 and v3 bodies are kept as
// batch-v2.bin and batch-v3.bin for TestReceiverRefusesOtherWireVersion.
func TestParentFormatPin(t *testing.T) {
	want, err := os.ReadFile("testdata/parent/batch.bin")
	if err != nil {
		t.Fatal(err)
	}
	if got := EncodeBatchBinary(nil, pinnedBatch()); !bytes.Equal(got, want) {
		t.Fatalf("pinned request encodes to %d bytes that differ from the fixture's %d", len(got), len(want))
	}
	req, err := DecodeBatchBinary(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := EncodeBatchBinary(nil, req); !bytes.Equal(got, want) {
		t.Fatal("pinned batch body does not re-encode to itself")
	}
}

// TestBatchBinaryBounds: nothing is allocated on the input's say-so. A
// record count the remaining bytes cannot hold and a record length above
// storage.MaxRecordSize are refused, whatever follows them.
func TestBatchBinaryBounds(t *testing.T) {
	header := func(records uint64) []byte {
		e := frame.Encoder{Buf: []byte{replWireVersion}}
		e.String("n0")
		for _, v := range []uint64{1, 1, 1, 2, 1, records} {
			e.Uvarint(v)
		}
		return e.Buf
	}
	// 1<<20 claimed records, each a legal 3-byte minimum, would have been a
	// 40 MB []ShipRecord for a 4 MB body; 1 MB short of that it must fail.
	body := append(header(1<<20), make([]byte, 3<<20-1)...)
	if _, err := DecodeBatchBinary(body); err == nil || !strings.Contains(err.Error(), "claims") {
		t.Fatalf("record count beyond the remaining bytes: err = %v", err)
	}
	if allocs := testing.AllocsPerRun(10, func() { DecodeBatchBinary(body) }); allocs > 8 {
		t.Fatalf("refusing an impossible record count cost %v allocations", allocs)
	}
	e := frame.Encoder{Buf: header(1)}
	e.Byte(EngineMain)
	e.Uvarint(0)
	e.Uvarint(storage.MaxRecordSize + 1)
	if _, err := DecodeBatchBinary(append(e.Buf, make([]byte, 64)...)); err == nil {
		t.Fatal("record length above storage.MaxRecordSize accepted")
	}
	e = frame.Encoder{Buf: header(1)}
	e.Byte(EngineMain)
	e.Uvarint(1 << 40) // shard
	e.Bytes(nil)
	if _, err := DecodeBatchBinary(e.Buf); err == nil {
		t.Fatal("shard index beyond int32 accepted")
	}
}

// FuzzDecodeBatchBinary: arbitrary bytes never panic the decoder, and
// whatever it accepts it accepted whole — the request re-encodes to exactly
// the input, so no prefix of a body passes for a body and no trailing bytes
// ride along — with every record inside the input and the stated bounds.
func FuzzDecodeBatchBinary(f *testing.F) {
	rng := rand.New(rand.NewSource(99))
	enc := EncodeBatchBinary(nil, randBatch(rng)) // TestBatchBinaryTruncation's fixture
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(append(append([]byte(nil), enc...), 0))
	f.Add(EncodeBatchBinary(nil, pinnedBatch()))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeBatchBinary(data)
		if err != nil {
			return
		}
		if len(req.Records) > len(data)/minRecordBytes {
			t.Fatalf("%d records from %d bytes", len(req.Records), len(data))
		}
		if re := EncodeBatchBinary(nil, req); !bytes.Equal(re, data) {
			// Non-minimal varints are the one way two inputs share a meaning.
			if req2, err := DecodeBatchBinary(re); err != nil || !reflect.DeepEqual(req, req2) {
				t.Fatalf("accepted input does not round-trip (%v)", err)
			}
			if len(re) > len(data) {
				t.Fatalf("re-encoding grew %d → %d bytes", len(data), len(re))
			}
		}
	})
}

package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/world"
)

func randomObservations(r *rand.Rand, n int) []GSMObservation {
	obs := make([]GSMObservation, n)
	at := simclock.Epoch
	cell := world.CellID{MCC: 262, MNC: 10, LAC: 4000 + r.Intn(100), CID: 30000 + r.Intn(1000)}
	for i := range obs {
		at = at.Add(time.Duration(1+r.Intn(600)) * time.Second)
		if r.Intn(4) == 0 { // oscillate
			cell.CID = 30000 + r.Intn(1000)
			if r.Intn(8) == 0 {
				cell.LAC = 4000 + r.Intn(100)
			}
		}
		obs[i] = GSMObservation{At: at, Cell: cell, SignalDBM: -50 - r.Float64()*60}
	}
	return obs
}

func TestObservationBlockRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(901))
	for _, n := range []int{0, 1, 7, 500} {
		obs := randomObservations(r, n)
		var e BinaryEncoder
		AppendObservations(&e, obs)
		d := NewBinaryDecoder(e.Buf)
		got := DecodeObservations(d)
		if d.Err() != nil {
			t.Fatalf("n=%d: decode: %v", n, d.Err())
		}
		if d.Rest() != 0 {
			t.Fatalf("n=%d: %d trailing bytes", n, d.Rest())
		}
		if len(got) != len(obs) {
			t.Fatalf("n=%d: %d != %d observations", n, len(got), len(obs))
		}
		for i := range obs {
			if !got[i].At.Equal(obs[i].At) || got[i].Cell != obs[i].Cell || got[i].SignalDBM != obs[i].SignalDBM {
				t.Fatalf("n=%d: observation %d mismatch: %+v != %+v", n, i, got[i], obs[i])
			}
		}
	}
}

func TestObservationBlockCompactness(t *testing.T) {
	r := rand.New(rand.NewSource(902))
	obs := randomObservations(r, 1000)
	var e BinaryEncoder
	AppendObservations(&e, obs)
	perObs := float64(len(e.Buf)) / float64(len(obs))
	if perObs > 25 {
		t.Errorf("binary observation block too fat: %.1f bytes/obs", perObs)
	}
}

func TestObservationBlockTruncation(t *testing.T) {
	r := rand.New(rand.NewSource(903))
	obs := randomObservations(r, 50)
	var e BinaryEncoder
	AppendObservations(&e, obs)
	// Every strict prefix must fail cleanly, never panic or succeed.
	for cut := 0; cut < len(e.Buf); cut++ {
		d := NewBinaryDecoder(e.Buf[:cut])
		if got := DecodeObservations(d); got != nil && d.Err() == nil {
			t.Fatalf("cut=%d: truncated block decoded %d observations with nil error", cut, len(got))
		}
	}
}

func TestObservationBlockBogusCount(t *testing.T) {
	var e BinaryEncoder
	e.Uvarint(1 << 40) // claims a trillion observations, carries none
	d := NewBinaryDecoder(e.Buf)
	if got := DecodeObservations(d); got != nil || d.Err() == nil {
		t.Fatalf("bogus count: got %d observations, err %v", len(got), d.Err())
	}
}

func TestEncoderChainReset(t *testing.T) {
	at := simclock.Epoch.Add(48 * time.Hour)
	var e BinaryEncoder
	e.Time(at)
	e.SetChain(0)
	e.Time(at)
	d := NewBinaryDecoder(e.Buf)
	first := d.Time()
	d.SetChain(0)
	second := d.Time()
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if !first.Equal(at) || !second.Equal(at) {
		t.Fatalf("chain reset broken: %v / %v != %v", first, second, at)
	}
}

// FuzzDecodeObservations: arbitrary bytes never panic the block decoder; a
// block it accepts holds no more observations than its bytes can carry (13
// at the least: one timestamp byte, four cell bytes, the fixed signal), was
// not sized by the count's say-so, and re-encodes to the bytes it consumed.
func FuzzDecodeObservations(f *testing.F) {
	var e BinaryEncoder
	AppendObservations(&e, randomObservations(rand.New(rand.NewSource(903)), 50)) // TestObservationBlockTruncation's fixture
	f.Add(e.Buf)
	f.Add(e.Buf[:len(e.Buf)/2])
	f.Add([]byte{0})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}) // TestObservationBlockBogusCount
	// A count past MaxInt64 used to reach make() as a negative capacity.
	f.Add(append(binary.AppendUvarint(nil, 1<<63), make([]byte, 40)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewBinaryDecoder(data)
		obs := DecodeObservations(d)
		if d.Err() != nil {
			if obs != nil {
				t.Fatalf("%d observations alongside %v", len(obs), d.Err())
			}
			return
		}
		if len(obs)*13 > len(data) || cap(obs) > len(data) {
			t.Fatalf("%d observations (cap %d) from %d bytes", len(obs), cap(obs), len(data))
		}
		consumed := data[:len(data)-d.Rest()]
		var re BinaryEncoder
		AppendObservations(&re, obs)
		if !bytes.Equal(re.Buf, consumed) {
			// Non-minimal varints are the one way two inputs share a meaning.
			d2 := NewBinaryDecoder(re.Buf)
			var re2 BinaryEncoder
			AppendObservations(&re2, DecodeObservations(d2))
			if d2.Err() != nil || !bytes.Equal(re2.Buf, re.Buf) {
				t.Fatalf("accepted input does not round-trip (%v)", d2.Err())
			}
			if len(re.Buf) > len(consumed) {
				t.Fatalf("re-encoding grew %d → %d bytes", len(consumed), len(re.Buf))
			}
		}
	})
}

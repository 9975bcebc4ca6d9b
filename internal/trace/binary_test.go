package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
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

func TestBinaryBundleRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(904))
	valid := true
	orig := &Bundle{
		GSM: randomObservations(r, 120),
		WiFi: []WiFiScan{
			{At: simclock.Epoch, APs: []WiFiReading{{BSSID: "aa:bb", SSID: "net café", RSSIDBM: -61.5}}},
			{At: simclock.Epoch.Add(time.Minute)}, // empty scan
		},
		GPS: []GPSFix{
			{At: simclock.Epoch, Pos: geo.LatLng{Lat: 52.52, Lng: 13.405}, AccuracyMeters: 8, Valid: valid},
			{At: simclock.Epoch.Add(time.Hour), Valid: false},
		},
		Activity: []ActivitySample{
			{At: simclock.Epoch, Moving: true},
			{At: simclock.Epoch.Add(2 * time.Hour), Moving: false},
		},
	}

	var bin bytes.Buffer
	if err := WriteBinaryBundle(&bin, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	if len(got.GSM) != len(orig.GSM) {
		t.Fatalf("gsm: %d != %d", len(got.GSM), len(orig.GSM))
	}
	for i := range orig.GSM {
		if !got.GSM[i].At.Equal(orig.GSM[i].At) || got.GSM[i].Cell != orig.GSM[i].Cell ||
			got.GSM[i].SignalDBM != orig.GSM[i].SignalDBM {
			t.Fatalf("gsm %d mismatch", i)
		}
	}
	if len(got.WiFi) != 2 || len(got.WiFi[0].APs) != 1 || got.WiFi[0].APs[0].SSID != "net café" {
		t.Fatalf("wifi mismatch: %+v", got.WiFi)
	}
	if len(got.GPS) != 2 || !got.GPS[0].Valid || got.GPS[1].Valid ||
		got.GPS[0].Pos.Lat != 52.52 || got.GPS[0].Pos.Lng != 13.405 {
		t.Fatalf("gps mismatch: %+v", got.GPS)
	}
	if len(got.Activity) != 2 || !got.Activity[0].Moving || got.Activity[1].Moving {
		t.Fatalf("activity mismatch: %+v", got.Activity)
	}

	// Binary must be meaningfully smaller than JSON lines for the same data.
	var js bytes.Buffer
	if err := WriteBundle(&js, orig); err != nil {
		t.Fatal(err)
	}
	if bin.Len()*3 > js.Len() {
		t.Errorf("binary bundle not compact: %d bytes vs %d JSON", bin.Len(), js.Len())
	}
}

func TestBinaryBundleCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(905))
	orig := &Bundle{GSM: randomObservations(r, 30)}
	var buf bytes.Buffer
	if err := WriteBinaryBundle(&buf, orig); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	t.Run("bit flip fails CRC", func(t *testing.T) {
		bad := bytes.Clone(data)
		bad[len(bad)/2] ^= 0x40
		if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
			t.Error("corrupted stream accepted")
		}
	})
	t.Run("truncation fails cleanly", func(t *testing.T) {
		for _, cut := range []int{3, 9, len(data) / 2, len(data) - 1} {
			if _, err := ReadBinary(bytes.NewReader(data[:cut])); err == nil {
				t.Errorf("cut=%d: truncated stream accepted", cut)
			}
		}
	})
	t.Run("header-only stream is a valid empty bundle", func(t *testing.T) {
		got, err := ReadBinary(bytes.NewReader(data[:5]))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.GSM) != 0 {
			t.Error("empty stream produced records")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := bytes.Clone(data)
		bad[0] = 'X'
		if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
			t.Error("bad magic accepted")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := bytes.Clone(data)
		bad[4] = 99
		if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
			t.Error("future version accepted")
		}
	})
}

func TestReadAutoSniffsFormat(t *testing.T) {
	r := rand.New(rand.NewSource(906))
	orig := &Bundle{GSM: randomObservations(r, 25)}

	var bin, js bytes.Buffer
	if err := WriteBinaryBundle(&bin, orig); err != nil {
		t.Fatal(err)
	}
	if err := WriteBundle(&js, orig); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string]*bytes.Buffer{"binary": &bin, "json": &js} {
		got, err := ReadAuto(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.GSM) != len(orig.GSM) {
			t.Fatalf("%s: %d != %d", name, len(got.GSM), len(orig.GSM))
		}
	}
}

// TestReadReportsCurrentRecordNumber pins 1-based record numbering in
// trace.Read error messages: the reported number must be the record that
// failed, not its predecessor.
func TestReadReportsCurrentRecordNumber(t *testing.T) {
	good := `{"kind":"gsm","at":"2014-09-01T00:00:00Z","mcc":262,"mnc":10,"lac":1,"cid":2}`
	cases := []struct {
		name  string
		input string
		want  string
	}{
		{"malformed first record", `{"kind":`, "record 1:"},
		{"unknown kind first record", `{"kind":"sonar","at":"2014-09-01T00:00:00Z"}`, "record 1:"},
		{"malformed third record", good + "\n" + good + "\n" + `{"kind": 7}`, "record 3:"},
		{"unknown kind third record", good + "\n" + good + "\n" + `{"kind":"sonar"}`, "record 3:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.input))
			if err == nil {
				t.Fatal("bad input accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
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

// TestParentFormatPin is the cross-commit format pin: testdata/parent/
// bundle.pmtb was written by the commit before internal/frame existed and
// must re-encode byte-for-byte.
func TestParentFormatPin(t *testing.T) {
	want, err := os.ReadFile("testdata/parent/bundle.pmtb")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadBinary(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.GSM) != 9 || len(b.WiFi) != 3 || len(b.GPS) != 2 || len(b.Activity) != 2 {
		t.Fatalf("parent bundle decoded %d/%d/%d/%d records", len(b.GSM), len(b.WiFi), len(b.GPS), len(b.Activity))
	}
	var got bytes.Buffer
	if err := WriteBinaryBundle(&got, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("parent bundle re-encodes to different bytes (%d vs %d)", got.Len(), len(want))
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

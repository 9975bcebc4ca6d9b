package cloud

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/trace"
	"repro/internal/world"
)

// captureSink is a storage.ReplSink with no replica behind it: it keeps a
// copy of every record the store journals, in ship order.
type captureSink struct{ recs []cluster.ShipRecord }

func (c *captureSink) Enqueue(shard int, rec []byte) uint64 {
	c.recs = append(c.recs, cluster.ShipRecord{Shard: shard, Rec: bytes.Clone(rec)})
	return 0 // no token: the store never waits on this sink
}

func (c *captureSink) Wait(uint64) {}

// shippedMix records what a primary ships for users × days of steady
// traffic. setup is each user's registration and places; mix is, per user
// and day, a trace_append of 120 observations, a put_profile and a label.
func shippedMix(b *testing.B, users, days int) (setup, mix []cluster.ShipRecord) {
	b.Helper()
	sink := &captureSink{}
	s, err := newStore("", StoreConfig{Shards: 4, StableIDs: true, Repl: sink})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	uids := make([]string, users)
	for u := range uids {
		reg, err := s.Register(fmt.Sprintf("imei-%03d", u), fmt.Sprintf("u%d@example.com", u))
		if err != nil {
			b.Fatal(err)
		}
		uids[u] = reg.UserID
		if err := s.SetPlaces(reg.UserID, []PlaceWire{{ID: 0}, {ID: 1}, {ID: 2}}); err != nil {
			b.Fatal(err)
		}
	}
	setup, sink.recs = sink.recs, nil
	for d := 0; d < days; d++ {
		day := time.Date(2014, 3, 1+d, 0, 0, 0, 0, time.UTC)
		for u, uid := range uids {
			obs := make([]trace.GSMObservation, 120)
			for i := range obs {
				obs[i] = trace.GSMObservation{
					At:        day.Add(time.Duration(i) * 5 * time.Minute),
					Cell:      world.CellID{MCC: 262, MNC: 1, LAC: 1, CID: 100 + (u+i/10)%7},
					SignalDBM: -60 - float64(rng.Intn(30)),
				}
			}
			if _, err := s.AppendTrace(uid, obs); err != nil {
				b.Fatal(err)
			}
			if err := s.PutProfile(uid, genDayProfile(rng, uid, day.Format("2006-01-02"))); err != nil {
				b.Fatal(err)
			}
			if err := s.LabelPlace(uid, d%3, propLabels[rng.Intn(len(propLabels))]); err != nil {
				b.Fatal(err)
			}
		}
	}
	return setup, sink.recs
}

// BenchmarkApplyShippedBatch is a follower's cost on the replication ack
// path: it applies and journals a fixed mix of shipped trace_append,
// put_profile and label records into a durable store (fsync always), in runs
// of 32 records as the receiver gets them. ns/record is the per-record cost.
func BenchmarkApplyShippedBatch(b *testing.B) {
	setup, mix := shippedMix(b, 16, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := OpenStore(b.TempDir(), StoreConfig{Shards: 4, StableIDs: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.ApplyShippedBatch(setup); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for run := mix; len(run) > 0; {
			n := min(32, len(run))
			if err := s.ApplyShippedBatch(run[:n]); err != nil {
				b.Fatal(err)
			}
			run = run[n:]
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(mix)), "ns/record")
}

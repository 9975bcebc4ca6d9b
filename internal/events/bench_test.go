package events

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// measureFanout runs one fanout measurement: a hub with one hot user stream,
// subscribers draining as fast as they can, and eventsN published events.
// It returns deliveries per second over first publish to last receive, and
// the p99 of hub publish stamp to subscriber receive in microseconds.
func measureFanout(subscribers, eventsN, queueCap int) (deliveriesPerSec, deliveryP99US float64, err error) {
	h := NewHub(Config{QueueCap: queueCap})
	defer h.Close()

	subs := make([]*Subscriber, subscribers)
	for i := range subs {
		subs[i] = h.Subscribe("bench", 0)
	}

	var wg sync.WaitGroup
	hists := make([]obs.HistogramSnapshot, subscribers)
	received := make([]uint64, subscribers)
	start := time.Now()
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hist := obs.NewHistogram(obs.DefaultLatencyBuckets())
			n := uint64(0)
			for ev := range subs[i].C {
				n++
				hist.ObserveDuration(time.Since(time.Unix(0, ev.PublishedUnixNano)))
				if n == uint64(eventsN) {
					break
				}
			}
			subs[i].Close()
			received[i] = n
			hists[i] = hist.Snapshot()
		}(i)
	}
	for i := 0; i < eventsN; i++ {
		if !h.Publish(Event{Type: KindPlaceEntry, UserID: "bench", Label: "fanout"}) {
			return 0, 0, fmt.Errorf("publish %d rejected", i)
		}
		// Yield between publishes so consumers get scheduled even on a
		// single-CPU runner; otherwise the measurement degenerates into
		// queue-fill-then-evict and never exercises sustained fanout.
		runtime.Gosched()
	}
	wg.Wait()
	wall := time.Since(start)

	merged, err := obs.MergeHistogramSnapshots(hists...)
	if err != nil {
		return 0, 0, err
	}
	var delivered uint64
	for _, n := range received {
		delivered += n
	}
	return float64(delivered) / wall.Seconds(), merged.Quantile(0.99), nil
}

// BenchmarkHubFanout is the CI bench-smoke surface: one hot user stream
// fanned out to N subscribers, reporting deliveries per second.
func BenchmarkHubFanout(b *testing.B) {
	for _, subscribers := range []int{8, 64, 1024} {
		b.Run(fmt.Sprintf("subs=%d", subscribers), func(b *testing.B) {
			perSec, p99, err := measureFanout(subscribers, b.N, 256)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(perSec, "deliveries/s")
			b.ReportMetric(p99, "p99-us")
		})
	}
}

package load

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/events"
	"repro/internal/obs"
)

// subscriberPool runs the spec's SSE subscribers for the span of the main
// phase. Each subscriber is its own authenticated client attached as user
// i mod Users; received events are timed against their hub publish stamp,
// one histogram per subscriber, merged into the report's delivery quantiles
// exactly like the per-worker request recorders.
type subscriberPool struct {
	subs []*cloud.Subscription
	wg   sync.WaitGroup

	mu        sync.Mutex
	hists     []obs.HistogramSnapshot
	delivered uint64
	evictions uint64
	resets    uint64
}

// startSubscribers registers and attaches the pool. On any attach failure the
// already-attached subscribers are torn down before the error returns.
func (r *Runner) startSubscribers(spec *SubscribersSpec) (*subscriberPool, error) {
	p := &subscriberPool{}
	for i := 0; i < spec.Count; i++ {
		_, imei, email := UserIdentity(i % r.cfg.Spec.Users)
		var copts []cloud.ClientOption
		if len(r.cfg.Targets) > 0 {
			copts = append(copts, cloud.WithCluster(r.cfg.Targets))
		}
		client := cloud.NewClient(r.cfg.BaseURL, imei, email, r.cfg.HTTP, copts...)
		if err := client.Register(); err != nil {
			p.close()
			return nil, fmt.Errorf("load: subscriber %d register: %w", i, err)
		}
		var opts []cloud.SubscribeOption
		if spec.Buffer > 0 {
			opts = append(opts, cloud.WithSubscribeBuffer(spec.Buffer))
		}
		sub, err := client.Subscribe(context.Background(), opts...)
		if err != nil {
			p.close()
			return nil, fmt.Errorf("load: subscriber %d attach: %w", i, err)
		}
		p.subs = append(p.subs, sub)
		p.wg.Add(1)
		go p.consume(sub)
	}
	return p, nil
}

func (p *subscriberPool) consume(sub *cloud.Subscription) {
	defer p.wg.Done()
	hist := obs.NewHistogram(LatencyBuckets())
	var delivered, evictions, resets uint64
	for ev := range sub.C {
		switch ev.Type {
		case events.KindEvicted:
			evictions++
		case events.KindReset:
			resets++
		default:
			delivered++
			if ev.PublishedUnixNano > 0 {
				hist.ObserveDuration(time.Since(time.Unix(0, ev.PublishedUnixNano)))
			}
		}
	}
	p.mu.Lock()
	p.hists = append(p.hists, hist.Snapshot())
	p.delivered += delivered
	p.evictions += evictions
	p.resets += resets
	p.mu.Unlock()
}

func (p *subscriberPool) close() {
	for _, s := range p.subs {
		s.Close()
	}
}

// stop detaches every subscriber, waits the consumers out, and renders the
// pool's recording. Subscriptions that died mid-run (exhausted reconnect
// budget) are counted as errors rather than failing the run: a dropped
// subscriber under load is a finding, not a harness fault.
func (p *subscriberPool) stop() (*EventsReport, error) {
	p.close()
	p.wg.Wait()

	rep := &EventsReport{
		Subscribers: len(p.subs),
		Delivered:   p.delivered,
		Evictions:   p.evictions,
		Resets:      p.resets,
	}
	for _, s := range p.subs {
		if s.Err() != nil {
			rep.Errors++
		}
	}
	if len(p.hists) > 0 {
		merged := p.hists[0]
		for _, h := range p.hists[1:] {
			var err error
			if merged, err = obs.MergeHistogramSnapshots(merged, h); err != nil {
				return nil, fmt.Errorf("load: merge delivery histograms: %w", err)
			}
		}
		rep.DeliveryMeanUS = merged.Mean()
		rep.DeliveryP50US = merged.Quantile(0.50)
		rep.DeliveryP99US = merged.Quantile(0.99)
		if merged.Count > 0 {
			rep.DeliveryMaxUS = merged.Max
		}
	}
	return rep, nil
}

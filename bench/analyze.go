package main

import (
	"runtime"
	"slices"
	"time"

	"repro/internal/obs"
)

// metric is one reported number. N is the sample count behind a timing
// (a p99 over fewer than 1000 samples is reported but not trustworthy).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func (m metricSet) timing(name string, sorted []int64, q float64) {
	m[name] = metric{Value: us(quantile(sorted, q)), Unit: "us", N: len(sorted)}
}

// delta is a view over two registry snapshots taken around the timed phase.
type delta struct{ before, after obs.Snapshot }

func (d delta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

// hist returns the histogram of observations made between the snapshots.
func (d delta) hist(name string) obs.HistogramSnapshot {
	a, b := d.after.Histograms[name], d.before.Histograms[name]
	out := obs.HistogramSnapshot{Count: a.Count - b.Count, Sum: a.Sum - b.Sum, Min: a.Min, Max: a.Max, Bounds: a.Bounds}
	out.Counts = slices.Clone(a.Counts)
	for i := range b.Counts {
		out.Counts[i] -= b.Counts[i]
	}
	return out
}

// snapshotBytes is the payload total of every snapshot written so far.
func snapshotBytes(s obs.Snapshot) float64 {
	return float64(s.Histograms["pci_storage_snapshot_bytes"].Sum)
}

// numWindows is how many equal slices of the timed phase the end-to-end
// latency quantiles and the throughput are computed over. Each is reported as
// the median of its per-window values: a shared host slows down for seconds
// at a time, and a whole-run p99 is mostly a measure of whether it did.
const numWindows = 5

// classSamples splits the run's successful ops by latency class.
type classSamples struct {
	latency [numClasses][]int64 // what the end-to-end metrics report
	// window[i] holds the same latencies for the ops that completed in the
	// i-th slice of the timed phase.
	window [numWindows][numClasses][]int64
	call   [numClasses][]int64 // dispatch -> completion, traced ops only
	plain  []int64             // dispatch -> completion, untraced ops
	byKind [numKinds]int
	ok     int
	failed int
}

func (e *env) classify(wall time.Duration) *classSamples {
	cs := &classSamples{}
	for _, c := range e.callers {
		for _, s := range c.samples {
			if !s.ok {
				cs.failed++
				continue
			}
			cs.ok++
			cs.byKind[s.kind]++
			cl := s.kind.class()
			cs.latency[cl] = append(cs.latency[cl], s.latency)
			w := min(int(s.end*numWindows/int64(wall)), numWindows-1)
			cs.window[w][cl] = append(cs.window[w][cl], s.latency)
			if cl == classNone {
				continue
			}
			if s.traced {
				cs.call[cl] = append(cs.call[cl], s.call)
			} else {
				cs.plain = append(cs.plain, s.call)
			}
		}
	}
	for cl := range cs.latency {
		slices.Sort(cs.latency[cl])
		slices.Sort(cs.call[cl])
	}
	slices.Sort(cs.plain)
	return cs
}

// windowed returns the median over the windows of each window's q-quantile
// of the given classes' latencies, and the sample count behind it.
func (cs *classSamples) windowed(q float64, classes ...class) metric {
	var per []float64
	n := 0
	for w := range cs.window {
		var lat []int64
		for _, cl := range classes {
			lat = append(lat, cs.window[w][cl]...)
		}
		if len(lat) == 0 {
			continue
		}
		slices.Sort(lat)
		per = append(per, us(quantile(lat, q)))
		n += len(lat)
	}
	return metric{Value: median(per), Unit: "us", N: n}
}

// endToEnd computes every end-to-end metric the workload defines. A latency
// class that does not occur in the workload is omitted.
func (e *env) endToEnd(ph *phaseResult, cs *classSamples, setupS, recoverS float64) metricSet {
	m := metricSet{}
	wall := ph.wall.Seconds()
	m.set("setup_s", setupS, "s")
	var rates []float64
	for w := range cs.window {
		n := 0
		for cl := range cs.window[w] {
			n += len(cs.window[w][cl])
		}
		rates = append(rates, float64(n)/(wall/numWindows))
	}
	m.set("ops_per_s", median(rates), "1/s")
	m.set("failed_frac", ratio(float64(cs.failed), float64(cs.ok+cs.failed)), "ratio")

	for cl := classWrite; cl <= classDiscover; cl++ {
		if len(cs.latency[cl]) == 0 {
			continue
		}
		m[cl.String()+"_p50_us"] = cs.windowed(0.50, cl)
		m[cl.String()+"_p99_us"] = cs.windowed(0.99, cl)
	}
	m["op_p50_us"] = cs.windowed(0.50, classWrite, classRead, classDiscover)
	m["op_p90_us"] = cs.windowed(0.90, classWrite, classRead, classDiscover)
	m["op_p99_us"] = cs.windowed(0.99, classWrite, classRead, classDiscover)

	if ev := e.eventLatencies(func(r eventRec) int64 { return r.latency }); len(ev) > 0 {
		m.timing("event_latency_p50_us", ev, 0.50)
		m.timing("event_latency_p99_us", ev, 0.99)
	}
	m.set("cpu_us_per_op", ratio(float64(ph.cpuMicros), float64(cs.ok)), "us")
	m.set("peak_rss_mb", peakRSSMB(), "MB")

	// Disk bytes are counted from boot (the registry starts at zero), so the
	// metric exists on read-bin too, where it is the preload's write cost.
	writes := float64(e.setupWrites + int64(len(cs.latency[classWrite])+len(cs.latency[classDiscover])))
	disk := float64(ph.server[1].Counters["storage_wal_append_bytes_total"]) + snapshotBytes(ph.server[1])
	m.set("disk_bytes_per_write", ratio(disk, writes), "B")
	m.set("recover_s", recoverS, "s")
	return m
}

// eventLatencies collects one number per received event, sorted.
func (e *env) eventLatencies(pick func(eventRec) int64) []int64 {
	var out []int64
	for _, vu := range e.vus {
		if vu.sub == nil {
			continue
		}
		for _, r := range vu.sub.events {
			out = append(out, pick(r))
		}
	}
	slices.Sort(out)
	return out
}

// perLayer computes the traced run's metrics: span self times, registry
// count deltas over the timed phase, and generator honesty. Probe metrics are
// merged in by the caller. Every name is always present; a class or layer the
// workload does not exercise reads 0.
func (e *env) perLayer(ph *phaseResult, cs *classSamples, pr metricSet, recoverS float64) metricSet {
	m := metricSet{}
	srv := delta{ph.server[0], ph.server[1]}
	cli := delta{ph.client[0], ph.client[1]}
	ops := float64(cs.ok)
	wallNS := float64(ph.wall.Nanoseconds())

	// load: is the run measuring the PCI or the generator?
	idle, late := e.generatorStats()
	m.timing("load.late_p99_us", late, 0.99)
	m.set("load.idle_frac", idle, "ratio")
	m.set("load.synth_ms_per_template", e.in.synthMS, "ms")

	// Spans: self time = span minus the part its child covers.
	var callSelf, transSelf, handle [numClasses][]int64
	var handleByKind [numKinds][]int64
	for c := range e.tracer.done {
		for _, s := range e.tracer.done[c] {
			cl := s.kind.class()
			if cl == classNone || s.attempts == 0 {
				continue
			}
			callSelf[cl] = append(callSelf[cl], s.call.dur()-s.transDur)
			transSelf[cl] = append(transSelf[cl], s.transDur-s.handleDur)
			handle[cl] = append(handle[cl], s.handleDur)
			handleByKind[s.kind] = append(handleByKind[s.kind], s.handleDur)
		}
	}
	for cl := classWrite; cl <= classDiscover; cl++ {
		sfx := "." + cl.String()
		slices.Sort(callSelf[cl])
		slices.Sort(transSelf[cl])
		slices.Sort(handle[cl])
		m.timing("client.call_self_p50_us"+sfx, callSelf[cl], 0.50)
		m.timing("transport.self_p50_us"+sfx, transSelf[cl], 0.50)
		m.timing("server.handle_p50_us"+sfx, handle[cl], 0.50)
		m.timing("server.handle_p99_us"+sfx, handle[cl], 0.99)

		// server self = handle minus the matching layer probe, per op kind,
		// weighted by how often the kind ran.
		var self, weight float64
		for k := opKind(0); k < numKinds; k++ {
			if k.class() != cl || len(handleByKind[k]) == 0 {
				continue
			}
			slices.Sort(handleByKind[k])
			n := float64(len(handleByKind[k]))
			self += n * (us(quantile(handleByKind[k], 0.50)) - pr[probeFor[k]].Value)
			weight += n
		}
		m.set("server.self_p50_us"+sfx, ratio(self, weight), "us")

		// Reconciliation: do the p50s of the parts add up to the p50 of the
		// whole? (handle already contains server self + probe.)
		parts := m["client.call_self_p50_us"+sfx].Value + m["transport.self_p50_us"+sfx].Value + m["server.handle_p50_us"+sfx].Value
		m.set("trace.reconcile_frac"+sfx, ratio(parts, us(quantile(cs.call[cl], 0.50))), "ratio")

		m.timing("e2e."+cl.String()+"_p50_us", cs.latency[cl], 0.50)
		m.timing("e2e."+cl.String()+"_p99_us", cs.latency[cl], 0.99)
	}
	delete(m, "e2e.read_p50_us") // an end-to-end metric on every workload
	all := slices.Concat(cs.latency[classWrite], cs.latency[classRead], cs.latency[classDiscover])
	slices.Sort(all)
	m.timing("e2e.op_p99_us", all, 0.99)
	ev := e.eventLatencies(func(r eventRec) int64 { return r.latency })
	m.timing("e2e.event_latency_p50_us", ev, 0.50)
	m.timing("e2e.event_latency_p99_us", ev, 0.99)
	m.set("e2e.recover_s", recoverS, "s")

	var traced []int64
	for cl := classWrite; cl <= classDiscover; cl++ {
		traced = append(traced, cs.call[cl]...)
	}
	slices.Sort(traced)
	m.set("trace.overhead_frac", ratio(quantile(traced, 0.50), quantile(cs.plain, 0.50))-1, "ratio")
	m.set("server.busy_frac", ratio(float64(e.tracer.handleBusy.Load()), wallNS*float64(runtime.GOMAXPROCS(0))), "ratio")

	// cloud.client counts.
	m.set("client.wire_bytes_sent_per_op", ratio(cli.counter("client_wire_bytes_sent_total"), ops), "B")
	m.set("client.wire_bytes_recv_per_op", ratio(cli.counter("client_wire_bytes_received_total"), ops), "B")
	m.set("client.attempts_per_op", ratio(cli.counter("client_attempts_total"), ops), "ratio")
	m.set("client.delta_upload_frac", ratio(cli.counter("client_delta_uploads_total"), float64(cs.byKind[opDiscover])), "ratio")

	// cloud.analytics and cloud.discover counts the program already exports.
	hits, recomputes := srv.counter("popular_memo_hits_total"), srv.counter("popular_recomputes_total")
	m.set("analytics.popular_memo_hit_frac", ratio(hits, hits+recomputes), "ratio")
	ih, ifb := srv.counter("analytics_index_hits_total"), srv.counter("analytics_index_fallbacks_total")
	m.set("analytics.index_hit_frac", ratio(ih, ih+ifb), "ratio")
	run, wait := srv.hist("pci_discover_run_us"), srv.hist("pci_discover_wait_us")
	m.set("discover.run_mean_us", run.Mean(), "us")
	m.set("discover.wait_mean_us", wait.Mean(), "us")
	memo, inc, full := srv.counter("pci_discover_memo_hits_total"), srv.counter("pci_discover_incremental_total"), srv.counter("pci_discover_full_total")
	m.set("discover.memo_hit_frac", ratio(memo, memo+inc+full), "ratio")
	m.set("discover.incremental_frac", ratio(inc, inc+full), "ratio")
	m.set("discover.rejected", srv.counter("pci_discover_rejected_total"), "count")

	// storage counts (both engines, all nodes).
	recs, bytes := srv.counter("storage_wal_append_records_total"), srv.counter("storage_wal_append_bytes_total")
	fsyncs := srv.counter("storage_wal_fsync_total")
	m.set("storage.wal_records", recs, "count")
	m.set("storage.wal_bytes_per_record", ratio(bytes, recs), "B")
	m.set("storage.fsyncs", fsyncs, "count")
	m.set("storage.fsyncs_per_record", ratio(fsyncs, recs), "ratio")
	m.set("storage.records_per_commit", ratio(srv.counter("storage_commit_records_total"), srv.counter("storage_commit_batches_total")), "ratio")
	m.set("storage.fsync_mean_us", srv.hist("storage_wal_fsync_duration_us").Mean(), "us")
	m.set("storage.compactions", srv.counter("storage_compactions_total"), "count")
	m.set("storage.compact_pause_p99_us", srv.hist("pci_storage_compact_pause_us").Quantile(0.99), "us")
	m.set("storage.compact_encode_mean_us", srv.hist("pci_storage_compact_encode_us").Mean(), "us")
	m.set("storage.snapshot_bytes", snapshotBytes(ph.server[1])-snapshotBytes(ph.server[0]), "B")

	// events.
	m.set("events.published", srv.counter("pci_events_published_total"), "count")
	m.set("events.delivered", srv.counter("pci_events_delivered_total"), "count")
	m.set("events.evictions", srv.counter("pci_events_evictions_total"), "count")
	m.set("events.dropped", srv.counter("pci_events_dropped_total"), "count")
	p2r := e.eventLatencies(func(r eventRec) int64 { return r.pubToRecv })
	m.timing("events.publish_to_recv_p50_us", p2r, 0.50)
	m.timing("events.publish_to_recv_p99_us", p2r, 0.99)

	// cluster.
	shipped, batches := srv.counter("pci_repl_shipped_records_total"), srv.counter("pci_repl_ship_batches_total")
	var repl []int64
	var replBytes int64
	for _, p := range e.tracer.repl {
		if p.start >= ph.startNS { // preload replicates too; count the timed phase only
			repl = append(repl, p.dur())
			replBytes += p.bytes
		}
	}
	slices.Sort(repl)
	m.timing("cluster.repl_post_p50_us", repl, 0.50)
	m.set("cluster.repl_bytes_per_record", ratio(float64(replBytes), shipped), "B")
	m.set("cluster.records_per_batch", ratio(shipped, batches), "ratio")
	m.set("cluster.ship_batches", batches, "count")
	m.set("cluster.shipped_records", shipped, "count")
	m.set("cluster.lag_max_records", float64(ph.lagMax), "count")
	m.set("cluster.redirects", cli.counter("client_cluster_redirects_total"), "count")
	m.set("cluster.proxied", srv.counter("pci_cluster_proxied_total"), "count")

	// runtime / host.
	m.set("runtime.alloc_bytes_per_op", ratio(float64(ph.mem[1].TotalAlloc-ph.mem[0].TotalAlloc), ops), "B")
	m.set("runtime.allocs_per_op", ratio(float64(ph.mem[1].Mallocs-ph.mem[0].Mallocs), ops), "count")
	m.set("runtime.gc_cycles", float64(ph.mem[1].NumGC-ph.mem[0].NumGC), "count")
	m.set("runtime.gc_pause_total_ms", float64(ph.mem[1].PauseTotalNs-ph.mem[0].PauseTotalNs)/1e6, "ms")

	for name, v := range pr {
		m[name] = v
	}
	return m
}

package main

import "slices"

// metricDef names one metric with its unit, direction and — for end-to-end
// metrics — the share of the baseline median by which it may worsen before a
// change counts as a regression.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
	// universal marks the end-to-end metrics that exist, non-zero, on every
	// workload. Those are the ones BENCHMARK.json lists; the others (a class
	// that not every workload runs, and failed_frac, which is 0 by design)
	// are reported by full runs and judged by -compare only.
	universal bool
}

// endToEndDefs is every end-to-end metric (measured with tracing off).
//
// ISSUE 11 started the timing bounds at 10-15%. On the reference host one
// seed's throughput moves by 15-20% between sets of runs minutes apart (a
// shared 2-vCPU machine), so every timing bound is the widest the acceptance
// contract allows; README.md has the A/A spreads behind each.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25, true},
	{"ops_per_s", "1/s", "higher", 0.25, true},
	{"failed_frac", "ratio", "lower", 0, false},
	{"op_p50_us", "us", "lower", 0.25, true},
	{"op_p90_us", "us", "lower", 0.25, true},
	{"op_p99_us", "us", "lower", 0.25, false},
	{"write_p50_us", "us", "lower", 0.25, false},
	{"write_p99_us", "us", "lower", 0.25, false},
	{"read_p50_us", "us", "lower", 0.25, true},
	{"read_p99_us", "us", "lower", 0.25, false},
	{"discover_p50_us", "us", "lower", 0.25, false},
	{"discover_p99_us", "us", "lower", 0.25, false},
	{"event_latency_p50_us", "us", "lower", 0.25, false},
	{"event_latency_p99_us", "us", "lower", 0.25, false},
	{"cpu_us_per_op", "us", "lower", 0.25, true},
	{"peak_rss_mb", "MB", "lower", 0.25, true},
	{"disk_bytes_per_write", "B", "lower", 0.10, true},
	{"recover_s", "s", "lower", 0.25, false},
}

// contractEndToEnd is the subset BENCHMARK.json lists under end_to_end.
var contractEndToEnd = func() []metricDef {
	var out []metricDef
	for _, d := range endToEndDefs {
		if d.universal {
			out = append(out, d)
		}
	}
	return out
}()

func perClass(name, unit, better string) []metricDef {
	var out []metricDef
	for cl := classWrite; cl <= classDiscover; cl++ {
		out = append(out, metricDef{name: name + "." + cl.String(), unit: unit, better: better})
	}
	return out
}

func defs(unit, better string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{name: n, unit: unit, better: better}
	}
	return out
}

// contractPerLayer is every per-layer metric (traced run + probes), in the
// order of the layer table in README.md. BENCHMARK.json lists them under
// per_layer; a class or layer a workload does not exercise reads 0 there.
var contractPerLayer = slices.Concat(
	// load: generator honesty
	defs("us", "lower", "load.late_p99_us"),
	defs("ratio", "lower", "load.idle_frac"),
	defs("ms", "lower", "load.synth_ms_per_template"),
	// cloud.client
	perClass("client.call_self_p50_us", "us", "lower"),
	defs("B", "lower", "client.wire_bytes_sent_per_op", "client.wire_bytes_recv_per_op"),
	defs("ratio", "lower", "client.attempts_per_op"),
	defs("ratio", "higher", "client.delta_upload_frac"),
	// net/http + loopback
	perClass("transport.self_p50_us", "us", "lower"),
	// cloud.server
	perClass("server.handle_p50_us", "us", "lower"),
	perClass("server.handle_p99_us", "us", "lower"),
	perClass("server.self_p50_us", "us", "lower"),
	defs("ratio", "lower", "server.busy_frac"),
	// cloud.store (probe)
	defs("us", "lower", "store.put_profile_p50_us", "store.label_place_p50_us", "store.places_p50_us",
		"store.profile_range_p50_us", "store.sync_trace_p50_us"),
	// cloud.analytics (probe + counts)
	defs("us", "lower", "analytics.typical_arrival_p50_us", "analytics.dwell_p50_us",
		"analytics.frequency_p50_us", "analytics.popular_p50_us"),
	defs("ratio", "higher", "analytics.popular_memo_hit_frac", "analytics.index_hit_frac"),
	// cloud.discover (counts the program exports)
	defs("us", "lower", "discover.run_mean_us", "discover.wait_mean_us"),
	defs("ratio", "higher", "discover.memo_hit_frac", "discover.incremental_frac"),
	defs("count", "lower", "discover.rejected"),
	// gsm (probe)
	defs("us", "lower", "gsm.extend_day_p50_us", "gsm.result_p50_us", "gsm.batch_discover_p50_us"),
	defs("1/s", "higher", "gsm.obs_per_s"),
	// storage (counts + probe)
	defs("count", "lower", "storage.wal_records"),
	defs("B", "lower", "storage.wal_bytes_per_record"),
	defs("count", "lower", "storage.fsyncs"),
	defs("ratio", "lower", "storage.fsyncs_per_record"),
	defs("ratio", "higher", "storage.records_per_commit"),
	defs("us", "lower", "storage.fsync_mean_us"),
	defs("count", "higher", "storage.compactions"),
	defs("us", "lower", "storage.compact_pause_p99_us", "storage.compact_encode_mean_us"),
	defs("B", "lower", "storage.snapshot_bytes"),
	defs("us", "lower", "storage.mutate_p50_us", "storage.compact_p50_us"),
	defs("1/s", "higher", "storage.replay_records_per_s"),
	// events
	defs("us", "lower", "events.feed_p50_us", "events.publish_to_recv_p50_us", "events.publish_to_recv_p99_us"),
	defs("count", "higher", "events.published", "events.delivered"),
	defs("count", "lower", "events.evictions", "events.dropped"),
	// cluster
	defs("us", "lower", "cluster.repl_post_p50_us"),
	defs("B", "lower", "cluster.repl_bytes_per_record"),
	defs("ratio", "higher", "cluster.records_per_batch"),
	defs("count", "lower", "cluster.ship_batches"),
	defs("count", "higher", "cluster.shipped_records"),
	defs("count", "lower", "cluster.lag_max_records", "cluster.redirects", "cluster.proxied"),
	defs("ns", "lower", "cluster.ring_lookup_ns", "cluster.codec_encode_ns_per_record", "cluster.codec_decode_ns_per_record"),
	// trace (probe)
	defs("ns", "lower", "trace.encode_ns_per_obs", "trace.decode_ns_per_obs"),
	defs("B", "lower", "trace.bytes_per_obs"),
	// runtime / host
	defs("B", "lower", "runtime.alloc_bytes_per_op"),
	defs("count", "lower", "runtime.allocs_per_op", "runtime.gc_cycles"),
	defs("ms", "lower", "runtime.gc_pause_total_ms"),
	defs("count", "higher", "host.cpus", "host.gomaxprocs"),
	defs("bool", "higher", "host.datadir_tmpfs"),
	defs("ms", "lower", "host.calib_ms"),
	// tracing: is the per-layer table trustworthy?
	defs("ratio", "lower", "trace.overhead_frac"),
	perClass("trace.reconcile_frac", "ratio", "higher"),
	// The traced run's copy of the end-to-end metrics BENCHMARK.json cannot
	// list under end_to_end: classes that not every workload runs, p99s
	// (unsteady on pms-day) and recover_s (device time on a disk).
	defs("us", "lower", "e2e.op_p99_us", "e2e.read_p99_us", "e2e.write_p50_us", "e2e.write_p99_us",
		"e2e.discover_p50_us", "e2e.discover_p99_us", "e2e.event_latency_p50_us", "e2e.event_latency_p99_us"),
	defs("s", "lower", "e2e.recover_s"),
)

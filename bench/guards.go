package main

import "fmt"

// Validity thresholds. A run that trips one measured something other than
// the PCI under the named workload, so it fails instead of printing numbers.
const (
	// maxIdleFrac bounds the share of a closed-loop caller's time spent
	// outside client calls.
	maxIdleFrac = 0.10
	// maxLateP99US bounds how late the open-loop generator may dispatch.
	// ISSUE 11 asked for 1000; Go parks an idle scheduler in netpoll with
	// millisecond granularity, so on an otherwise idle process time.Sleep
	// alone overshoots by up to 1 ms whatever the rate (README.md has the
	// measurements). 5 ms still catches a generator that cannot keep pace.
	maxLateP99US = 5000
	// minAchievedFrac is achieved / scheduled rate below which the open loop
	// has a growing backlog. ISSUE 11 asked for 0.99; over a 10 s phase that is
	// 100 ms, and one host stall of that length near the end (seen once in
	// ~75 runs) would fail a run that kept pace. An overloaded PCI is far below
	// either (68% at 2000 req/s).
	minAchievedFrac = 0.97
)

// guards fail a run whose numbers would mislead: one that measured the load
// generator, or one in which a layer designed to be idle was not.
func (e *env) guards(ph *phaseResult, cs *classSamples) error {
	srv := delta{ph.server[0], ph.server[1]}
	w := e.w
	idle, late := e.generatorStats()
	if w.open {
		if p99 := us(quantile(late, 0.99)); p99 >= maxLateP99US {
			return fmt.Errorf("load.late_p99_us = %.0f >= %d: the generator, not the PCI, set the pace", p99, maxLateP99US)
		}
		// Measured to the last op's completion: closing the last sessions'
		// subscriptions afterwards is not part of the offered load.
		var last int64
		for _, c := range e.callers {
			last = max(last, c.wall)
		}
		if achieved := ratio(float64(cs.ok), float64(last)/1e9); achieved < minAchievedFrac*e.sched.offered {
			return fmt.Errorf("achieved %.1f req/s < %.2f x scheduled %.1f", achieved, minAchievedFrac, e.sched.offered)
		}
	} else {
		if idle >= maxIdleFrac {
			return fmt.Errorf("load.idle_frac = %.3f >= %.2f: callers spent too long outside client calls", idle, maxIdleFrac)
		}
		if n := srv.counter("pci_discover_incremental_total") + srv.counter("pci_discover_full_total") + srv.counter("pci_events_published_total"); n != 0 {
			return fmt.Errorf("%s ran %.0f discoveries/events in its timed phase; it is designed to run none", w.name, n)
		}
	}
	shipped, journaled := srv.counter("pci_repl_shipped_records_total"), srv.counter("storage_wal_append_records_total")
	switch {
	case !w.cluster && srv.counter("pci_repl_ship_batches_total") != 0:
		return fmt.Errorf("%s shipped replication batches; only a cluster workload may", w.name)
	case w.cluster && 2*shipped != journaled:
		// Every record is journaled twice: on its primary, and verbatim on
		// the follower once shipped.
		return fmt.Errorf("%s shipped %.0f records but its nodes journaled %.0f (want exactly twice as many)", w.name, shipped, journaled)
	case w.readOnly() && journaled != 0:
		return fmt.Errorf("%s journaled %.0f WAL records in its timed phase; it is designed to write none", w.name, journaled)
	}
	if w.compactionsPerSecond > 0 {
		per := srv.counter("storage_compactions_total") / float64(e.pci.nodes[0].store.ShardCount())
		if want := w.compactionsPerSecond * ph.wall.Seconds(); per < want {
			return fmt.Errorf("%.1f compactions per data shard < %.1f: compaction did not reach steady state", per, want)
		}
	}
	return nil
}

package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/events"
	"repro/internal/gsm"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Probes time direct, single-threaded calls into each layer's public
// functions, on the workload's own inputs and store configuration. They are
// the benchmark's view below server.handle, where it owns no seam.

// probeFor names the layer probe that does an op kind's work below the
// server, so server self time can be taken as handle minus probe. Kinds with
// no single matching probe (register, subscribe, stream) subtract nothing.
var probeFor = [numKinds]string{
	opDiscover:       "store.sync_trace_p50_us",
	opSyncProfile:    "store.put_profile_p50_us",
	opLabelPlace:     "store.label_place_p50_us",
	opPlaces:         "store.places_p50_us",
	opProfileRange:   "store.profile_range_p50_us",
	opPredictArrival: "analytics.typical_arrival_p50_us",
	opDwellStats:     "analytics.dwell_p50_us",
	opVisitFrequency: "analytics.frequency_p50_us",
	opPopular:        "analytics.popular_p50_us",
}

// timeCalls runs fn n times and returns the sorted per-call durations.
func timeCalls(n int, fn func(i int)) []int64 {
	out := make([]int64, n)
	for i := range out {
		t0 := time.Now()
		fn(i)
		out[i] = int64(time.Since(t0))
	}
	slices.Sort(out)
	return out
}

// blobState is the trivial ShardState of the bare-storage probe: it keeps the
// last record, so Mutate and Compact cost what the engine costs.
type blobState struct{ last []byte }

func (b *blobState) Apply(rec []byte) error    { b.last = append(b.last[:0], rec...); return nil }
func (b *blobState) Snapshot() ([]byte, error) { return b.last, nil }
func (b *blobState) Restore(snap []byte) error { b.last = append([]byte(nil), snap...); return nil }

// probes runs every layer probe with n calls each. walRecordBytes sizes the
// bare-storage record like the workload's mean WAL record.
func (e *env) probes(n int, walRecordBytes int) (metricSet, error) {
	m := metricSet{}
	p50 := func(name string, sorted []int64) { m.timing(name, sorted, 0.50) }
	ts := e.in.templates
	tmpl := func(i int) *template { return ts[i%len(ts)] }

	// cloud.store and cloud.analytics, on a store of the workload's config
	// holding every template once.
	cfg := e.w.storeConfig()
	store, err := cloud.OpenStore(filepath.Join(e.dir, "probe-store"), cfg)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	uids := make([]string, len(ts))
	places := make([][]cloud.PlaceWire, len(ts))
	for i, t := range ts {
		_, imei, email := load.UserIdentity(i)
		reg, err := store.Register(imei, email)
		if err != nil {
			return nil, err
		}
		uids[i] = reg.UserID
		for _, p := range gsm.Discover(t.trace, gsm.DefaultParams()).Places {
			places[i] = append(places[i], cloud.PlaceToWire(p))
		}
		if err := store.SetPlaces(reg.UserID, places[i]); err != nil {
			return nil, err
		}
		for d := range t.profiles {
			if err := store.PutProfile(reg.UserID, t.profiles[d][0]); err != nil {
				return nil, err
			}
		}
	}
	var perr error
	fail := func(err error) {
		if err != nil && perr == nil {
			perr = err
		}
	}
	p50("store.put_profile_p50_us", timeCalls(n, func(i int) {
		t := tmpl(i)
		fail(store.PutProfile(uids[i%len(ts)], t.profiles[i%len(t.profiles)][i&1]))
	}))
	p50("store.label_place_p50_us", timeCalls(n, func(i int) {
		ps := places[i%len(ts)]
		fail(store.LabelPlace(uids[i%len(ts)], ps[i%len(ps)].ID, labels[i%len(labels)]))
	}))
	p50("store.places_p50_us", timeCalls(n, func(i int) { store.Places(uids[i%len(ts)]) }))
	from, to := rangeFrom, rangeTo(e.w.days)
	p50("store.profile_range_p50_us", timeCalls(n, func(i int) { store.ProfileRange(uids[i%len(ts)], from, to) }))
	// sync_trace: the discover upload's store half — append one day's delta.
	syncN := min(n, len(ts)*e.w.days)
	cursors := make([]cloud.TraceStatus, len(ts))
	p50("store.sync_trace_p50_us", timeCalls(syncN, func(i int) {
		u, d := i%len(ts), i/len(ts)
		t := ts[u]
		lo := 0
		if d > 0 {
			lo = t.dayEnd[d-1]
		}
		st, _, err := store.SyncTrace(uids[u], d > 0, cursors[u].Len, cursors[u].Hash, t.trace[lo:t.dayEnd[d]])
		cursors[u] = st
		fail(err)
	}))

	an := cloud.NewAnalytics(store)
	qp := func(i int) (string, string) {
		t := tmpl(i)
		return uids[i%len(ts)], t.queryPlaces[i%len(t.queryPlaces)]
	}
	p50("analytics.typical_arrival_p50_us", timeCalls(n, func(i int) { u, p := qp(i); an.TypicalArrival(u, p) }))
	p50("analytics.dwell_p50_us", timeCalls(n, func(i int) { u, p := qp(i); an.DwellStats(u, p) }))
	p50("analytics.frequency_p50_us", timeCalls(n, func(i int) { u, p := qp(i); an.VisitFrequency(u, p) }))
	popular := cloud.NewPopularIndex(store, cloud.NewCellDatabase(e.in.pop.World(), 150))
	p50("analytics.popular_p50_us", timeCalls(n, func(int) { popular.Places(3, 300) }))
	if perr != nil {
		return nil, fmt.Errorf("store probe: %w", perr)
	}

	// gsm: the incremental pipeline by day, its merge pass, and batch GCA.
	gn := min(n, len(ts))
	params := gsm.DefaultParams()
	pipes := make([]*gsm.Pipeline, gn)
	var obsFed int
	extend := timeCalls(gn, func(i int) {
		pipes[i] = gsm.NewPipeline(params)
		pipes[i].Extend(ts[i].trace[:ts[i].dayEnd[0]])
		obsFed += ts[i].dayEnd[0]
	})
	p50("gsm.extend_day_p50_us", extend)
	var extendNS int64
	for _, d := range extend {
		extendNS += d
	}
	m.set("gsm.obs_per_s", ratio(float64(obsFed), float64(extendNS)/1e9), "1/s")
	p50("gsm.result_p50_us", timeCalls(gn, func(i int) { pipes[i].Result() }))
	p50("gsm.batch_discover_p50_us", timeCalls(gn, func(i int) { gsm.Discover(ts[i].trace, params) }))

	// events: the online detector over one day.
	p50("events.feed_p50_us", timeCalls(gn, func(i int) {
		events.NewDetector(params).Feed(ts[i].trace[:ts[i].dayEnd[0]])
	}))

	// trace: the binary observation codec over one day.
	var enc trace.BinaryEncoder
	day := ts[0].trace[:ts[0].dayEnd[0]]
	encT := timeCalls(n, func(int) { enc.Reset(enc.Buf); trace.AppendObservations(&enc, day) })
	decT := timeCalls(n, func(int) { trace.DecodeObservations(trace.NewBinaryDecoder(enc.Buf)) })
	m.set("trace.encode_ns_per_obs", quantile(encT, 0.50)/float64(len(day)), "ns")
	m.set("trace.decode_ns_per_obs", quantile(decT, 0.50)/float64(len(day)), "ns")
	m.set("trace.bytes_per_obs", ratio(float64(len(enc.Buf)), float64(len(day))), "B")

	// storage: the bare engine, no cloud state on top.
	rec := make([]byte, max(walRecordBytes, 16))
	for i := range rec {
		rec[i] = byte('a' + i%26)
	}
	sdir := filepath.Join(e.dir, "probe-storage")
	sopts := storage.Options{Dir: sdir, Sync: e.w.fsync, CompactEvery: -1, Metrics: obs.NewRegistry()}
	st := &blobState{}
	eng, err := storage.Open(sopts, []storage.ShardState{st})
	if err != nil {
		return nil, err
	}
	mutate := func(int) { fail(eng.Mutate(0, func() ([]byte, error) { return rec, st.Apply(rec) })) }
	p50("storage.mutate_p50_us", timeCalls(n, mutate))
	p50("storage.compact_p50_us", timeCalls(min(n, 50), func(i int) {
		mutate(i)
		fail(eng.Compact(0))
	}))
	// Replay: journal n records past the last compaction, drop the engine
	// without Close (Close would compact), reopen, and time the recovery.
	for i := 0; i < n; i++ {
		mutate(i)
	}
	fail(eng.Sync())
	cdir := filepath.Join(e.dir, "probe-storage-copy")
	fail(copyTree(sdir, cdir))
	fail(eng.Close())
	if perr != nil {
		return nil, fmt.Errorf("storage probe: %w", perr)
	}
	sopts.Dir = cdir
	t0 := time.Now()
	eng2, err := storage.Open(sopts, []storage.ShardState{&blobState{}})
	replay := time.Since(t0)
	if err != nil {
		return nil, err
	}
	_ = eng2.Close()
	m.set("storage.replay_records_per_s", ratio(float64(n), replay.Seconds()), "1/s")

	// cluster: ring lookup and the replication batch codec on records of the
	// workload's size.
	ring := cluster.NewRing(1, []cluster.Node{{ID: "n0", URL: "http://a"}, {ID: "n1", URL: "http://b"}}, cluster.DefaultVNodes)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = "u" + strconv.Itoa(i)
	}
	const ringReps = 100
	look := timeCalls(n, func(i int) {
		for r := 0; r < ringReps; r++ {
			ring.PrimaryID(keys[(i+r)%len(keys)])
		}
	})
	m.set("cluster.ring_lookup_ns", quantile(look, 0.50)/ringReps, "ns")
	batch := &cluster.BatchRequest{From: "n0", Epoch: 1, Start: 1, RingVersion: 1, DataShards: 8, TraceShards: 8}
	for i := 0; i < 16; i++ {
		batch.Records = append(batch.Records, cluster.ShipRecord{Engine: cluster.EngineMain, Shard: 1 + i%8, Rec: rec})
	}
	var buf []byte
	encB := timeCalls(n, func(int) { buf = cluster.EncodeBatchBinary(buf[:0], batch) })
	decB := timeCalls(n, func(int) { _, err := cluster.DecodeBatchBinary(buf); fail(err) })
	m.set("cluster.codec_encode_ns_per_record", quantile(encB, 0.50)/float64(len(batch.Records)), "ns")
	m.set("cluster.codec_decode_ns_per_record", quantile(decB, 0.50)/float64(len(batch.Records)), "ns")
	return m, perr
}

package storage

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// The storage micro-benchmarks (DESIGN.md §8, §9). The shard-scaling pair is
// the acceptance measurement for the sharded engine: identical record
// volume, identical fsync policy, only the shard count (and hence lock
// contention) differs. Run with:
//
//	go test ./internal/storage -run '^$' -bench . -benchmem
func benchEngine(b *testing.B, shards int, opts Options) (*Engine, []*kvState) {
	b.Helper()
	if opts.Dir == "disk" {
		opts.Dir = b.TempDir()
	}
	states := make([]ShardState, shards)
	kvs := make([]*kvState, shards)
	for i := range states {
		kvs[i] = newKV()
		states[i] = kvs[i]
	}
	e, err := Open(opts, states)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	return e, kvs
}

// benchParallelMutate drives b.N journaled writes from 8 worker goroutines,
// each pinned to the shard its worker ID hashes to — the concurrent-upload
// pattern of many users hitting the PCI at once. SetParallelism pins the
// worker count so the 1-vs-8-shard comparison is 8 writers contending on one
// lock vs 8 writers each owning their own, independent of GOMAXPROCS; keys
// cycle through a fixed window so map size doesn't confound the comparison.
func benchParallelMutate(b *testing.B, e *Engine, kvs []*kvState) {
	var worker atomic.Int64
	rec := kvRecord("user-profile", "payload-of-a-typical-journal-record")
	b.SetParallelism(max(1, 8/runtime.GOMAXPROCS(0)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(worker.Add(1))
		shard := id % e.NumShards()
		st := kvs[shard]
		i := 0
		for pb.Next() {
			key := fmt.Sprintf("w%d-k%d", id, i%1024)
			i++
			if err := e.Mutate(shard, func() ([]byte, error) {
				st.m[key] = "v"
				return rec, nil
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMutateParallelShards1(b *testing.B) {
	e, kvs := benchEngine(b, 1, Options{Dir: "disk", Sync: SyncNever, CompactEvery: -1})
	benchParallelMutate(b, e, kvs)
}

func BenchmarkMutateParallelShards8(b *testing.B) {
	e, kvs := benchEngine(b, 8, Options{Dir: "disk", Sync: SyncNever, CompactEvery: -1})
	benchParallelMutate(b, e, kvs)
}

// The fsync=always pair is where sharding pays off even on few cores: one
// shard serializes every commit behind a single log's fsync, while N shards
// fsync N independent files that overlap in the kernel and on the device.
func BenchmarkMutateParallelDurableShards1(b *testing.B) {
	e, kvs := benchEngine(b, 1, Options{Dir: "disk", Sync: SyncAlways, CompactEvery: -1})
	benchParallelMutate(b, e, kvs)
}

func BenchmarkMutateParallelDurableShards8(b *testing.B) {
	e, kvs := benchEngine(b, 8, Options{Dir: "disk", Sync: SyncAlways, CompactEvery: -1})
	benchParallelMutate(b, e, kvs)
}

// The group-commit pair is the acceptance measurement for ISSUE 3: 8 durable
// writers contending on ONE shard, with commit grouping disabled
// (CommitMaxBatch: -1 — every record pays its own write+fsync, the
// pre-group-commit behavior) versus enabled. The ns/op ratio is the commit
// throughput multiplier delivered by batching concurrent fsyncs.
func BenchmarkGroupCommitOff(b *testing.B) {
	e, kvs := benchEngine(b, 1, Options{
		Dir: "disk", Sync: SyncAlways, CompactEvery: -1, CommitMaxBatch: -1,
	})
	benchParallelMutate(b, e, kvs)
}

func BenchmarkGroupCommitOn(b *testing.B) {
	e, kvs := benchEngine(b, 1, Options{
		Dir: "disk", Sync: SyncAlways, CompactEvery: -1,
	})
	benchParallelMutate(b, e, kvs)
}

func BenchmarkMutateFsyncNever(b *testing.B) {
	e, kvs := benchEngine(b, 1, Options{Dir: "disk", Sync: SyncNever, CompactEvery: -1})
	benchSerialMutate(b, e, kvs[0])
}

func BenchmarkMutateFsyncInterval(b *testing.B) {
	e, kvs := benchEngine(b, 1, Options{Dir: "disk", Sync: SyncInterval, CompactEvery: -1})
	benchSerialMutate(b, e, kvs[0])
}

func BenchmarkMutateFsyncAlways(b *testing.B) {
	e, kvs := benchEngine(b, 1, Options{Dir: "disk", Sync: SyncAlways, CompactEvery: -1})
	benchSerialMutate(b, e, kvs[0])
}

func benchSerialMutate(b *testing.B, e *Engine, st *kvState) {
	rec := kvRecord("user-profile", "payload-of-a-typical-journal-record")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := e.Mutate(0, func() ([]byte, error) {
			st.m[key] = "v"
			return rec, nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMixedReadWrite models the analytics-heavy PCI workload: 80% reads
// against 20% journaled writes on the same shard set.
func BenchmarkMixedReadWrite(b *testing.B) {
	e, kvs := benchEngine(b, 8, Options{Dir: "disk", Sync: SyncNever, CompactEvery: -1})
	rec := kvRecord("k", "v")
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(worker.Add(1))
		shard := id % e.NumShards()
		st := kvs[shard]
		i := 0
		for pb.Next() {
			if i%5 == 0 {
				key := fmt.Sprintf("w%d-k%d", id, i)
				if err := e.Mutate(shard, func() ([]byte, error) {
					st.m[key] = "v"
					return rec, nil
				}); err != nil {
					b.Fatal(err)
				}
			} else {
				var n int
				e.View(shard, func() { n = len(st.m) })
				_ = n
			}
			i++
		}
	})
}

func BenchmarkWALAppend(b *testing.B) {
	w, err := createWAL(b.TempDir()+"/bench.log", SyncNever, DefaultSyncEvery, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec := make([]byte, 256)
	b.SetBytes(int64(frameHeaderSize + len(rec)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	e, kvs := benchEngine(b, 1, Options{Dir: dir, Sync: SyncNever, CompactEvery: -1})
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := e.Mutate(0, func() ([]byte, error) {
			kvs[0].m[key] = "v"
			return kvRecord(key, "v"), nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Sync(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := newKV()
		e2, err := Open(Options{Dir: dir, Sync: SyncNever, CompactEvery: -1}, []ShardState{st})
		if err != nil {
			b.Fatal(err)
		}
		if len(st.m) != 10000 {
			b.Fatalf("recovered %d keys", len(st.m))
		}
		// Suppress the close-time snapshot: each iteration must replay the
		// same 10k-record WAL, not load a snapshot the previous one wrote.
		e2.shards[0].since = 0
		e2.Close()
	}
}

package cache

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"willump/internal/value"
)

func BenchmarkShardedGetPut(b *testing.B) {
	c := NewSharded(1024, 0)
	keys := make([][]byte, 4096)
	hashes := make([]uint64, 4096)
	for i := range keys {
		keys[i] = intKey(int64(i))
		hashes[i] = Hash64(keys[i])
	}
	val := []float64{1, 2, 3, 4}
	dst := make([]float64, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(keys)
		if !c.CopyInto(hashes[k], keys[k], dst) {
			c.Put(hashes[k], keys[k], val)
		}
	}
}

func BenchmarkAppendRowKeyHash(b *testing.B) {
	cols := []value.Value{
		value.NewInts([]int64{123456}),
		value.NewStrings([]string{"user-abc"}),
		value.NewFloats([]float64{3.14159}),
	}
	buf := make([]byte, 0, 128)
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendRowKey(buf[:0], cols, 0)
		sink += Hash64(buf)
	}
	_ = sink
}

// zipfKeys draws n keys over [0, space) from the skewed distribution the
// concurrent workloads model (s = 1.1, the classic web-traffic shape).
func zipfKeys(n, space int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.1, 1, uint64(space-1))
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(z.Uint64())
	}
	return out
}

// zipfOpsSharded runs ops Zipfian lookup-or-insert operations per worker
// against the sharded cache, the production feature-cache access pattern:
// key bytes appended into a reused buffer, hashed inline, CopyInto on hit,
// Put on miss.
func zipfOpsSharded(c *Sharded, keys []int64, workers, ops int) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kb := make([]byte, 0, 16)
			dst := make([]float64, 2)
			val := []float64{1, 2}
			for i := 0; i < ops; i++ {
				k := keys[(w*ops+i)%len(keys)]
				kb = append(kb[:0], intKey(k)...)
				h := Hash64(kb)
				if !c.CopyInto(h, kb, dst) {
					c.Put(h, kb, val)
				}
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// BenchmarkConcurrentZipfian drives the sharded cache under 8-goroutine
// Zipfian load and reports the timed phase's hit rate beside its cost, so
// an admission or eviction change shows in both.
func BenchmarkConcurrentZipfian(b *testing.B) {
	const workers = 8
	keys := zipfKeys(1<<16, 16384, 3)
	c := NewSharded(1024, 0)
	zipfOpsSharded(c, keys, workers, 2048) // warm
	warm := c.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	elapsed := zipfOpsSharded(c, keys, workers, b.N)
	st := c.Stats()
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N*workers), "ns/op-per-worker")
	b.ReportMetric(Stats{Hits: st.Hits - warm.Hits, Misses: st.Misses - warm.Misses}.HitRate(), "hit-rate")
}

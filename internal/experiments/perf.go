package experiments

// This file implements the allocation/latency regression workload behind
// `willump-bench -exp perf` and its -json mode: the pooled executor's
// predict paths (point and batch, compiled and cascaded) measured with
// testing.Benchmark for ns/op and allocs/op, plus a manual timing loop for
// latency quantiles, so the performance trajectory is tracked across PRs in
// BENCH_<rev>.json files.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"willump/internal/benchfmt"
	"willump/internal/cache"
	"willump/internal/core"
	"willump/internal/fixture"
	"willump/internal/value"
)

// PerfRow is one workload's measurement, serialized into BENCH_<rev>.json.
// It is the shared benchfmt row, so perf workloads and loadgen scenarios
// land in one trajectory file format.
type PerfRow = benchfmt.Row

// perfQuantileIters bounds the manual latency-quantile loop.
const perfQuantileIters = 2000

// Perf measures the predict-path workloads on the standard two-generator
// fixture pipeline (lookup features into a GBDT, the cascade topology).
func Perf(w io.Writer, s Setup) ([]PerfRow, error) {
	header(w, "Perf: pooled executor predict paths (ns/op, allocs/op, latency quantiles)")
	n := s.N
	if n <= 0 || n > 4000 {
		n = 2000
	}
	fx, err := fixture.NewClassification(s.Seed, n, n/4, n/4, 0.7, 40)
	if err != nil {
		return nil, err
	}
	p := &core.Pipeline{Graph: fx.Prog.G, Model: fx.Model}
	train := core.Dataset{Inputs: fx.Train.Inputs, Y: fx.Train.Y}
	valid := core.Dataset{Inputs: fx.Valid.Inputs, Y: fx.Valid.Y}
	ctx := context.Background()

	compiled, _, err := core.Optimize(ctx, p, train, valid, core.Options{})
	if err != nil {
		return nil, err
	}
	cascaded, _, err := core.Optimize(ctx, p, train, valid, core.Options{Cascades: true})
	if err != nil {
		return nil, err
	}
	// The cached workloads run on a second fixture with a genuinely
	// expensive feature generator (heavier spin): section 4.5 caches the
	// computations profiling identifies as costly, and a cache over
	// trivially cheap generators would only measure its own overhead. The
	// uncached *-heavy rows are the apples-to-apples baselines.
	fxHeavy, err := fixture.NewClassification(s.Seed+1, n, n/4, n/4, 0.7, 2000)
	if err != nil {
		return nil, err
	}
	pHeavy := &core.Pipeline{Graph: fxHeavy.Prog.G, Model: fxHeavy.Model}
	trainHeavy := core.Dataset{Inputs: fxHeavy.Train.Inputs, Y: fxHeavy.Train.Y}
	validHeavy := core.Dataset{Inputs: fxHeavy.Valid.Inputs, Y: fxHeavy.Valid.Y}
	heavy, _, err := core.Optimize(ctx, pHeavy, trainHeavy, validHeavy, core.Options{})
	if err != nil {
		return nil, err
	}
	cached, _, err := core.Optimize(ctx, pHeavy, trainHeavy, validHeavy,
		core.Options{FeatureCache: true, FeatureCacheBudget: 1024})
	if err != nil {
		return nil, err
	}

	point := map[string]value.Value{
		"cheap_id": value.NewInts([]int64{17}),
		"heavy_id": value.NewInts([]int64{23}),
	}
	batch := fx.Test.Inputs

	// Zipfian key streams over the fixture's 4096-key tables: the skewed
	// serving traffic the feature cache targets. The point workload mutates
	// a reused single-row input; the batch workload rotates prebuilt
	// batches so every iteration mixes hits and misses the way a serving
	// window would.
	zrng := rand.New(rand.NewSource(s.Seed + 100))
	zipf := rand.NewZipf(zrng, 1.1, 1, 4095)
	const zipfStream = 8192
	zipfCheap := make([]int64, zipfStream)
	zipfHeavy := make([]int64, zipfStream)
	for i := 0; i < zipfStream; i++ {
		zipfCheap[i] = int64(zipf.Uint64())
		zipfHeavy[i] = int64(zipf.Uint64())
	}
	pcCheap, pcHeavy := []int64{0}, []int64{0}
	pointCached := map[string]value.Value{
		"cheap_id": value.NewInts(pcCheap),
		"heavy_id": value.NewInts(pcHeavy),
	}
	var zi int
	const cachedBatches, cachedBatchRows = 8, 512
	batches := make([]map[string]value.Value, cachedBatches)
	for b := range batches {
		cheap := make([]int64, cachedBatchRows)
		heavy := make([]int64, cachedBatchRows)
		for r := range cheap {
			cheap[r] = int64(zipf.Uint64())
			heavy[r] = int64(zipf.Uint64())
		}
		batches[b] = map[string]value.Value{
			"cheap_id": value.NewInts(cheap),
			"heavy_id": value.NewInts(heavy),
		}
	}
	var bi int

	workloads := []struct {
		name string
		fn   func() error
	}{
		{"point-compiled", func() error { _, err := compiled.PredictPoint(ctx, point); return err }},
		{"point-cascade", func() error { _, err := cascaded.PredictPoint(ctx, point); return err }},
		{"point-heavy", func() error {
			zi++
			pcCheap[0] = zipfCheap[zi%zipfStream]
			pcHeavy[0] = zipfHeavy[zi%zipfStream]
			_, err := heavy.PredictPoint(ctx, pointCached)
			return err
		}},
		{"point-cached", func() error {
			zi++
			pcCheap[0] = zipfCheap[zi%zipfStream]
			pcHeavy[0] = zipfHeavy[zi%zipfStream]
			_, err := cached.PredictPoint(ctx, pointCached)
			return err
		}},
		{"batch-compiled", func() error { _, err := compiled.PredictBatch(ctx, batch); return err }},
		{"batch-cascade", func() error { _, err := cascaded.PredictBatch(ctx, batch); return err }},
		{"batch-heavy", func() error {
			bi++
			_, err := heavy.PredictBatch(ctx, batches[bi%cachedBatches])
			return err
		}},
		{"batch-cached", func() error {
			bi++
			_, err := cached.PredictBatch(ctx, batches[bi%cachedBatches])
			return err
		}},
	}

	fmt.Fprintf(w, "%-16s %12s %10s %10s %12s %12s %12s\n", "workload", "ns/op", "allocs/op", "B/op", "p50", "p99", "p999")
	out := make([]PerfRow, 0, len(workloads))
	for _, wl := range workloads {
		// Warm the program pools and scratch buffers before measuring.
		for i := 0; i < 10; i++ {
			if err := wl.fn(); err != nil {
				return nil, fmt.Errorf("perf %s: %w", wl.name, err)
			}
		}
		var benchErr error
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := wl.fn(); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		})
		if benchErr != nil {
			return nil, fmt.Errorf("perf %s: %w", wl.name, benchErr)
		}
		p50, p99, p999, err := latencyQuantiles(wl.fn, perfQuantileIters)
		if err != nil {
			return nil, fmt.Errorf("perf %s: %w", wl.name, err)
		}
		row := PerfRow{
			Workload:    wl.name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			P50Ns:       p50.Nanoseconds(),
			P99Ns:       p99.Nanoseconds(),
			P999Ns:      p999.Nanoseconds(),
		}
		out = append(out, row)
		fmt.Fprintf(w, "%-16s %12.0f %10d %10d %12s %12s %12s\n",
			row.Workload, row.NsPerOp, row.AllocsPerOp, row.BytesPerOp, p50, p99, p999)
	}
	for _, row := range cachePerfRows(s) {
		out = append(out, row)
		fmt.Fprintf(w, "%-16s %12.0f %10d %10d %12s %12s\n",
			row.Workload, row.NsPerOp, row.AllocsPerOp, row.BytesPerOp,
			time.Duration(row.P50Ns), time.Duration(row.P99Ns))
	}
	return out, nil
}

// cacheZipfWorkers and cacheZipfOps shape the raw-cache workload: 8
// goroutines of Zipfian lookup-or-insert traffic. BENCH_pr5.json keeps the
// last cache-zipf-mutexlru row, measured on the single-mutex LRU the sharded
// cache replaced.
const (
	cacheZipfWorkers = 8
	cacheZipfOps     = 60000
)

// cachePerfRows measures the sharded cache itself under concurrent Zipfian
// load. ns/op is aggregate throughput (wall time over total operations
// completed by all workers); quantiles are per-1000-op chunks on a single
// worker divided down, since a single cache op is below timer resolution.
func cachePerfRows(s Setup) []PerfRow {
	rng := rand.New(rand.NewSource(s.Seed + 200))
	zipf := rand.NewZipf(rng, 1.1, 1, 16383)
	keys := make([]int64, 1<<16)
	for i := range keys {
		keys[i] = int64(zipf.Uint64())
	}
	c := cache.NewSharded(1024, 0)

	run := func(workers, ops int) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				ids := []int64{0}
				cols := []value.Value{value.NewInts(ids)}
				kb := make([]byte, 0, 16)
				dst := make([]float64, 2)
				val := []float64{1, 2}
				for i := 0; i < ops; i++ {
					ids[0] = keys[(w*ops+i)%len(keys)]
					kb = cache.AppendRowKey(kb[:0], cols, 0)
					h := cache.Hash64(kb)
					if !c.CopyInto(h, kb, dst) {
						c.Put(h, kb, val)
					}
				}
			}(w)
		}
		wg.Wait()
		return time.Since(start)
	}

	run(cacheZipfWorkers, 4096) // warm
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 3; rep++ {
		if d := run(cacheZipfWorkers, cacheZipfOps); d < best {
			best = d
		}
	}
	const chunk = 1000
	lats := make([]time.Duration, 64)
	for i := range lats {
		start := time.Now()
		run(1, chunk)
		lats[i] = time.Since(start) / chunk
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	return []PerfRow{{
		Workload: "cache-zipf-sharded",
		NsPerOp:  float64(best.Nanoseconds()) / float64(cacheZipfWorkers*cacheZipfOps),
		P50Ns:    lats[len(lats)/2].Nanoseconds(),
		P99Ns:    lats[len(lats)*99/100].Nanoseconds(),
	}}
}

// latencyQuantiles times iters calls of fn individually and returns the
// p50, p99, and p999 latencies. With the standard 2000 iterations the p999
// is the 2nd-worst observation — noisy, but the tail is exactly what the
// observability work cares about.
func latencyQuantiles(fn func() error, iters int) (p50, p99, p999 time.Duration, err error) {
	lat := make([]time.Duration, iters)
	for i := range lat {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, 0, 0, err
		}
		lat[i] = time.Since(start)
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	return lat[iters/2], lat[iters*99/100], lat[iters*999/1000], nil
}

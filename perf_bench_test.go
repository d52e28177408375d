package willump_test

import (
	"context"
	"math/rand"
	"syscall"
	"testing"
	"time"

	"willump/internal/core"
	"willump/internal/fixture"
	"willump/internal/pipeline"
	"willump/internal/value"
)

// perfFixture builds one fitted classification pipeline shared by the
// predict-path benchmarks: two lookup feature generators feeding a GBDT,
// the canonical cascade topology. spin sets the heavy generator's cost.
func perfFixture(b *testing.B, spin int, opts core.Options) (*core.Optimized, *fixture.Classification) {
	b.Helper()
	fx, err := fixture.NewClassification(7, 2000, 500, 500, 0.7, spin)
	if err != nil {
		b.Fatal(err)
	}
	p := &core.Pipeline{Graph: fx.Prog.G, Model: fx.Model}
	train := core.Dataset{Inputs: fx.Train.Inputs, Y: fx.Train.Y}
	valid := core.Dataset{Inputs: fx.Valid.Inputs, Y: fx.Valid.Y}
	o, _, err := core.Optimize(context.Background(), p, train, valid, opts)
	if err != nil {
		b.Fatal(err)
	}
	return o, fx
}

// pointInputs returns a reusable single-row input map.
func pointInputs(fx *fixture.Classification) map[string]value.Value {
	return map[string]value.Value{
		"cheap_id": value.NewInts([]int64{17}),
		"heavy_id": value.NewInts([]int64{23}),
	}
}

func BenchmarkPredictPointCompiled(b *testing.B) {
	o, fx := perfFixture(b, 40, core.Options{})
	in := pointInputs(fx)
	ctx := context.Background()
	if _, err := o.PredictPoint(ctx, in); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.PredictPoint(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictPointCascade(b *testing.B) {
	o, fx := perfFixture(b, 40, core.Options{Cascades: true})
	in := pointInputs(fx)
	ctx := context.Background()
	if _, err := o.PredictPoint(ctx, in); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.PredictPoint(ctx, in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictBatchCompiled(b *testing.B) {
	o, fx := perfFixture(b, 40, core.Options{})
	ctx := context.Background()
	if _, err := o.PredictBatch(ctx, fx.Test.Inputs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.PredictBatch(ctx, fx.Test.Inputs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictBatchCascade(b *testing.B) {
	o, fx := perfFixture(b, 40, core.Options{Cascades: true})
	ctx := context.Background()
	if _, err := o.PredictBatch(ctx, fx.Test.Inputs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.PredictBatch(ctx, fx.Test.Inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictFeatureCache is section 4.5's feature cache against its
// apples-to-apples baseline: the same pipeline with a genuinely expensive
// generator (spin 2000 — a cache over cheap generators only measures its own
// overhead), uncached ("heavy") and with a 1024-entry cache budget
// ("cached"), under one Zipf(1.1) key stream over the fixture's 4096-key
// tables: 8192 point queries, then eight 512-row batches in rotation, so
// every iteration mixes hits and misses the way a serving window would.
// README "Performance" cites these rows.
func BenchmarkPredictFeatureCache(b *testing.B) {
	ctx := context.Background()
	const points, batchRows = 8192, 512
	zipf := rand.NewZipf(rand.New(rand.NewSource(107)), 1.1, 1, 4095)
	cheap, heavy := make([]int64, points+8*batchRows), make([]int64, points+8*batchRows)
	for i := range cheap {
		cheap[i], heavy[i] = int64(zipf.Uint64()), int64(zipf.Uint64())
	}
	for _, mode := range []struct {
		name string
		opts core.Options
	}{
		{"heavy", core.Options{}},
		{"cached", core.Options{FeatureCache: true, FeatureCacheBudget: 1024}},
	} {
		b.Run("point-"+mode.name, func(b *testing.B) {
			o, _ := perfFixture(b, 2000, mode.opts)
			c, h := []int64{0}, []int64{0}
			in := map[string]value.Value{"cheap_id": value.NewInts(c), "heavy_id": value.NewInts(h)}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				c[0], h[0] = cheap[i%points], heavy[i%points]
				if _, err := o.PredictPoint(ctx, in); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("batch-"+mode.name, func(b *testing.B) {
			o, _ := perfFixture(b, 2000, mode.opts)
			batches := make([]map[string]value.Value, (len(cheap)-points)/batchRows)
			for k := range batches {
				lo := points + k*batchRows
				batches[k] = map[string]value.Value{
					"cheap_id": value.NewInts(cheap[lo : lo+batchRows]),
					"heavy_id": value.NewInts(heavy[lo : lo+batchRows]),
				}
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if _, err := o.PredictBatch(ctx, batches[i%len(batches)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// textFixture builds one of the paper's text pipelines at the size the
// repository benchmark uses (8000 rows; the test split holds 2400) and
// optimizes it.
func textFixture(tb testing.TB, name string, opts core.Options) (*core.Optimized, *pipeline.Benchmark) {
	tb.Helper()
	bm, err := pipeline.ByName(name, pipeline.Config{Seed: 1, N: 8000})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { bm.Close() })
	o, _, err := core.Optimize(context.Background(), bm.Pipeline, bm.Train, bm.Valid, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return o, bm
}

// firstRows returns the first n rows of d as one batch.
func firstRows(d core.Dataset, n int) map[string]value.Value {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return d.Gather(rows).Inputs
}

// BenchmarkTextPipelines times the three text workloads of the repository
// benchmark in process: a 1024-row cascaded toxic batch, toxic point queries
// cycling over the test rows (also split into the easy and the hard ones),
// and TopK(20) over 2000 product candidates. The
// batch workloads also run at Workers: 1, so that their row shards' cost
// shows beside their gain: cpu-ns/op is the process CPU time per op, which
// on the sharded runs counts every core and the pool's polling.
func BenchmarkTextPipelines(b *testing.B) {
	ctx := context.Background()
	for _, workers := range []int{0, 1} {
		suffix := map[int]string{0: "", 1: "-workers1"}[workers]
		b.Run("toxic-batch"+suffix, func(b *testing.B) {
			o, bm := textFixture(b, "toxic", core.Options{Cascades: true, Workers: workers})
			in := firstRows(bm.Test, 1024)
			loopCPU(b, func(int) error { _, err := o.PredictBatch(ctx, in); return err })
		})
		b.Run("product-topk"+suffix, func(b *testing.B) {
			o, bm := textFixture(b, "product", core.Options{TopK: true, Workers: workers})
			in := firstRows(bm.Test, 2000)
			loopCPU(b, func(int) error { _, err := o.TopK(ctx, in, 20); return err })
		})
	}
	// The point rows: every test point, then the points the small model
	// answers alone (easy) and those the cascade sends on to the full model
	// (hard), split once by how the cascade served each.
	o, bm := textFixture(b, "toxic", core.Options{Cascades: true})
	var all, easy, hard []map[string]value.Value
	for i := range bm.Test.Len() {
		in := bm.Test.Row(i).Inputs
		_, st, err := o.PredictPointOptions(ctx, in, core.ResolvePredict())
		if err != nil {
			b.Fatal(err)
		}
		all = append(all, in)
		if st.Cascaded == 0 {
			easy = append(easy, in)
		} else {
			hard = append(hard, in)
		}
	}
	for _, row := range []struct {
		name   string
		points []map[string]value.Value
	}{{"toxic-point", all}, {"toxic-point-easy", easy}, {"toxic-point-hard", hard}} {
		b.Run(row.name, func(b *testing.B) {
			loopCPU(b, func(i int) error { _, err := o.PredictPoint(ctx, row.points[i%len(row.points)]); return err })
		})
	}
}

// loopCPU runs op, handed the iteration number, as b's timed loop and
// reports allocations and cpu-ns/op: the process's CPU time, user and system
// (getrusage), over the loop per op.
func loopCPU(b *testing.B, op func(i int) error) {
	b.ReportAllocs()
	cpu0 := processCPU(b)
	i := 0
	for b.Loop() {
		if err := op(i); err != nil {
			b.Fatal(err)
		}
		i++
	}
	b.ReportMetric(float64(processCPU(b)-cpu0)/float64(i), "cpu-ns/op")
}

// processCPU returns the CPU time the process has spent, user and system.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

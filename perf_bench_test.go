package willump_test

import (
	"context"
	"testing"

	"willump/internal/core"
	"willump/internal/fixture"
	"willump/internal/pipeline"
	"willump/internal/value"
)

// perfFixture builds one fitted classification pipeline shared by the
// predict-path benchmarks: two lookup feature generators feeding a GBDT,
// the canonical cascade topology.
func perfFixture(b *testing.B, opts core.Options) (*core.Optimized, *fixture.Classification) {
	b.Helper()
	fx, err := fixture.NewClassification(7, 2000, 500, 500, 0.7, 40)
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
	o, fx := perfFixture(b, core.Options{})
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
	o, fx := perfFixture(b, core.Options{Cascades: true})
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
	o, fx := perfFixture(b, core.Options{})
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
	o, fx := perfFixture(b, core.Options{Cascades: true})
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
// cycling over the test rows, and TopK(20) over 2000 product candidates.
func BenchmarkTextPipelines(b *testing.B) {
	ctx := context.Background()
	b.Run("toxic-batch", func(b *testing.B) {
		o, bm := textFixture(b, "toxic", core.Options{Cascades: true})
		in := firstRows(bm.Test, 1024)
		b.ReportAllocs()
		for b.Loop() {
			if _, err := o.PredictBatch(ctx, in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("toxic-point", func(b *testing.B) {
		o, bm := textFixture(b, "toxic", core.Options{Cascades: true})
		points := make([]map[string]value.Value, bm.Test.Len())
		for i := range points {
			points[i] = bm.Test.Row(i).Inputs
		}
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			if _, err := o.PredictPoint(ctx, points[i%len(points)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.Run("product-topk", func(b *testing.B) {
		o, bm := textFixture(b, "product", core.Options{TopK: true})
		in := firstRows(bm.Test, 2000)
		b.ReportAllocs()
		for b.Loop() {
			if _, err := o.TopK(ctx, in, 20); err != nil {
				b.Fatal(err)
			}
		}
	})
}

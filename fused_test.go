package willump_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"willump/internal/cascade"
	"willump/internal/core"
	"willump/internal/model"
	"willump/internal/pipeline"
	"willump/internal/topk"
	"willump/internal/value"
	"willump/internal/weld"
)

// textOptimized optimizes the toxic or product benchmark for cascades and
// top-K, and returns it with its test inputs and their one input column.
func textOptimized(t *testing.T, name string) (*core.Optimized, map[string]value.Value, string) {
	t.Helper()
	build, input := pipeline.Toxic, "comment"
	if name == "product" {
		build, input = pipeline.Product, "title"
	}
	b, err := build(pipeline.Config{Seed: 1, N: 1200})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	o, _, err := core.Optimize(context.Background(), b.Pipeline, b.Train, b.Valid, core.Options{Cascades: true, TopK: true})
	if err != nil {
		t.Fatal(err)
	}
	if o.Cascade == nil || o.Filter == nil {
		t.Fatalf("%s: no cascade or no top-K filter was built", name)
	}
	if _, ok := o.Model.(model.Linear); !ok {
		t.Fatalf("%s scores with %T, not a linear model", name, o.Model)
	}
	return o, b.Test.Inputs, input
}

// assembled scores the given rows of in (nil: all) with m over the IFVs idx
// the way every path scored before scoring moved into weld: MatrixShared's
// matrix, model.ScoreRow per row.
func assembled(t *testing.T, prog *weld.Program, in map[string]value.Value, rows, idx []int, m model.Model) []float64 {
	t.Helper()
	r, err := prog.NewRun(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if rows != nil {
		r = r.SubsetRun(rows)
		defer r.Close()
	}
	x, err := r.MatrixShared(idx)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, r.Len())
	var s model.Scratch
	for k := range out {
		out[k] = model.ScoreRow(m, x, k, &s)
	}
	return out
}

// requireBits fails unless got and want hold the same float64s bit for bit,
// NaN matching any NaN.
func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", what, len(got), len(want))
	}
	for k := range got {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) && !(math.IsNaN(got[k]) && math.IsNaN(want[k])) {
			t.Fatalf("%s: row %d scores %v, assembled %v", what, k, got[k], want[k])
		}
	}
}

// TestFusedLinearScoreMatchesAssembled: on toxic and product, whose linear
// models take their dot products inside the text kernels, every serving
// path answers what scoring the assembled matrix answers, bit for bit — the
// cascade's small and full passes batched and point by point, the
// uncascaded batch, the top-K filter, re-rank and answer — sequentially, on
// shards, and after Load(Save(·)).
func TestFusedLinearScoreMatchesAssembled(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"toxic", "product"} {
		trained, in, input := textOptimized(t, name)
		var saved bytes.Buffer
		if err := core.Save(trained, &saved); err != nil {
			t.Fatal(err)
		}
		loaded, err := core.Load(&saved, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []*core.Optimized{trained, loaded} {
			c, prog := o.Cascade, o.Prog
			all := prog.AllIFVs()
			full := assembled(t, prog, in, nil, all, o.Model)
			small := assembled(t, prog, in, nil, c.Efficient, c.Small)
			cascaded := make([]float64, len(small))
			var hard []int
			for k, p := range small {
				cascaded[k] = p
				if !(model.Confidence(p) > c.Threshold) {
					hard = append(hard, k)
				}
			}
			for k, p := range assembled(t, prog, in, hard, all, c.Full) {
				cascaded[hard[k]] = p
			}
			if len(hard) == 0 || len(hard) == len(small) {
				t.Fatalf("%s: %d of %d rows cascade; both passes need rows", name, len(hard), len(small))
			}

			filter := assembled(t, prog, in, nil, c.Efficient, o.Filter.Approx.Small)
			cands := topk.TopIndices(filter, o.Filter.SubsetSize(len(filter), 20))
			slices.Sort(cands)
			rerank := assembled(t, prog, in, cands, all, o.Filter.Full)
			var answer []int
			for _, k := range topk.TopIndices(rerank, 20) {
				answer = append(answer, cands[k])
			}

			for _, workers := range []int{1, 2, 3} {
				weld.ForceFanOut(t, prog, workers)
				what := fmt.Sprintf("%s (loaded %v) workers=%d", name, o != trained, workers)
				got, err := o.PredictBatch(ctx, in)
				if err != nil {
					t.Fatal(err)
				}
				requireBits(t, what+" cascaded batch", got, cascaded)
				if got, err = o.PredictFull(ctx, in); err != nil {
					t.Fatal(err)
				}
				requireBits(t, what+" full batch", got, full)

				run, err := prog.NewRun(ctx, in)
				if err != nil {
					t.Fatal(err)
				}
				got = make([]float64, len(cands))
				full := model.Bind(o.Filter.Full)
				if err := cascade.Score(run, cands, all, full, "", got); err != nil {
					t.Fatal(err)
				}
				run.Close()
				requireBits(t, what+" re-rank", got, rerank)
				top, err := o.TopK(ctx, in, 20)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(top, answer) {
					t.Fatalf("%s: top-K %v, assembled %v", what, top, answer)
				}
			}
			for k, doc := range in[input].Strings {
				p, err := o.PredictPoint(ctx, map[string]value.Value{input: value.NewStrings([]string{doc})})
				if err != nil {
					t.Fatal(err)
				}
				requireBits(t, fmt.Sprintf("%s point %d", name, k), []float64{p}, cascaded[k:k+1])
			}
		}
	}
}

// TestPointZeroAllocsAfterGC: a warm cascaded point query allocates
// nothing, however often the garbage collector runs — the run state a point
// query takes, with the buffers it grew to the longest row served, outlives
// a collection. The count is the process's mallocs over 10 000 queries, as
// testing.AllocsPerRun counts them but without its warm-up call, which
// would grow a fresh state first, and without its truncated mean.
func TestPointZeroAllocsAfterGC(t *testing.T) {
	skipIfRace(t)
	o, in, input := textOptimized(t, "toxic")
	ctx := context.Background()
	points := make([]map[string]value.Value, len(in[input].Strings))
	for k, doc := range in[input].Strings {
		points[k] = map[string]value.Value{input: value.NewStrings([]string{doc})}
	}
	predict := func(k int) {
		if _, err := o.PredictPoint(ctx, points[k%len(points)]); err != nil {
			t.Fatal(err)
		}
	}
	// One pass over the points grows the state's buffers to the longest
	// row. No more: the path asserts no interface per call (a plan step's
	// operator kind and a model's scoring interfaces are resolved where they
	// are bound), so there is no runtime type-assertion cache left to fill.
	for k := range points {
		predict(k)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := range 10000 {
		predict(k)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("10000 warm cascaded PredictPoint calls after two collections allocate %d objects, want 0", n)
	}
}

package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"willump/internal/cascade"
	"willump/internal/weld"
)

// TestShardedPredictMatchesSequential: every batch entry point — the
// cascade with its ServeStats, PredictFull, the small model alone and
// top-K — answers to the bit at Workers 1, 0 (GOMAXPROCS), 3 and one shard
// per row.
func TestShardedPredictMatchesSequential(t *testing.T) {
	p, train, valid, test := classificationPipeline(t)
	o, _, err := Optimize(context.Background(), p, train, valid, Options{Cascades: true, TopK: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if o.Cascade == nil {
		t.Fatal("no cascade was built")
	}
	weld.ForceFanOut(t, o.Prog, 1)
	ctx := context.Background()
	threshold := 0.9 // both models answer some rows
	po := PredictOptions{CascadeThreshold: &threshold}
	type answers struct {
		cascade, full, small []float64
		stats                cascade.ServeStats
		top                  []int
	}
	answer := func() (a answers) {
		var err error
		if a.cascade, a.stats, err = o.PredictBatchOptions(ctx, test.Inputs, po); err != nil {
			t.Fatal(err)
		}
		if a.full, err = o.PredictFull(ctx, test.Inputs); err != nil {
			t.Fatal(err)
		}
		if a.small, err = o.Approx.SmallOnlyPredict(ctx, test.Inputs); err != nil {
			t.Fatal(err)
		}
		if a.top, err = o.TopK(ctx, test.Inputs, 20); err != nil {
			t.Fatal(err)
		}
		return a
	}
	bits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	want := answer()
	if want.stats.SmallOnly == 0 || want.stats.Cascaded == 0 {
		t.Fatalf("threshold %v routes %+v, want both models used", threshold, want.stats)
	}
	for _, workers := range []int{0, 3, test.Len() + 16} {
		o.Prog.Workers = workers
		got := answer()
		if !bits(got.cascade, want.cascade) || got.stats != want.stats {
			t.Errorf("workers=%d: cascade differs (stats %+v, want %+v)", workers, got.stats, want.stats)
		}
		if !bits(got.full, want.full) || !bits(got.small, want.small) || !slices.Equal(got.top, want.top) {
			t.Errorf("workers=%d: PredictFull, SmallOnlyPredict or TopK differs from Workers 1", workers)
		}
	}
}

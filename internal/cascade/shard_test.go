package cascade

import (
	"context"
	"math"
	"slices"
	"testing"

	"willump/internal/model"
	"willump/internal/weld"
)

// sameBits reports whether a and b are equal to the bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestShardedCascadeMatchesSequential: a cascaded batch and the small model
// alone answer to the bit, with the same summed ServeStats, at Workers 1, 0
// (GOMAXPROCS), 3 and one shard per row — and equal the cascade computed the
// way it was before row shards, with Predict over one run's matrices.
func TestShardedCascadeMatchesSequential(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()
	c, err := Train(ctx, fx.Prog, fx.Model, fx.Train.Inputs, fx.TrainX, fx.Train.Y,
		fx.Valid.Inputs, fx.Valid.Y, Config{AccuracyTarget: 0.01})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	in := fx.Test.Inputs

	run, err := fx.Prog.NewRun(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	effX, err := run.MatrixShared(c.Efficient)
	if err != nil {
		t.Fatal(err)
	}
	wantSmall := c.Small.Predict(effX)
	// The median confidence routes about half the rows each way.
	conf := make([]float64, len(wantSmall))
	for i, p := range wantSmall {
		conf[i] = model.Confidence(p)
	}
	slices.Sort(conf)
	threshold := conf[len(conf)/2]
	want := slices.Clone(wantSmall)
	var hard []int
	for i, p := range wantSmall {
		if !(model.Confidence(p) > threshold) {
			hard = append(hard, i)
		}
	}
	sub := run.SubsetRun(hard)
	fullX, err := sub.MatrixShared(fx.Prog.AllIFVs())
	if err != nil {
		t.Fatal(err)
	}
	for k, p := range c.Full.Predict(fullX) {
		want[hard[k]] = p
	}
	sub.Close()
	run.Close()
	wantStats := ServeStats{Total: len(want), SmallOnly: len(want) - len(hard), Cascaded: len(hard)}
	if wantStats.SmallOnly == 0 || wantStats.Cascaded == 0 {
		t.Fatalf("reference routes %+v, want both models used", wantStats)
	}

	for _, workers := range []int{1, 0, 3, len(want) + 16} {
		weld.ForceFanOut(t, fx.Prog, workers)
		got, stats, err := c.PredictBatchThreshold(ctx, in, threshold)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) || stats != wantStats {
			t.Errorf("workers=%d: cascade differs from the sequential reference (stats %+v, want %+v)", workers, stats, wantStats)
		}
		small, err := c.SmallOnlyPredict(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(small, wantSmall) {
			t.Errorf("workers=%d: SmallOnlyPredict differs from Predict", workers)
		}
	}
}

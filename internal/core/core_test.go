package core

import (
	"context"
	"math"
	"testing"

	"willump/internal/fixture"
	"willump/internal/graph"
	"willump/internal/model"
	"willump/internal/ops"
	"willump/internal/trace"
	"willump/internal/value"
)

// rebuildPipeline reconstructs an (untrained) Pipeline from a fixture's
// graph so core.Optimize can own training.
func classificationPipeline(t *testing.T) (*Pipeline, Dataset, Dataset, Dataset) {
	t.Helper()
	fx, err := fixture.NewClassification(31, 1200, 500, 500, 0.7, 300)
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	p := &Pipeline{
		Graph: fx.Prog.G,
		Model: model.NewGBDT(model.GBDTConfig{Task: model.Classification, Trees: 30, MaxDepth: 4, Seed: 31}),
	}
	train := Dataset{Inputs: fx.Train.Inputs, Y: fx.Train.Y}
	valid := Dataset{Inputs: fx.Valid.Inputs, Y: fx.Valid.Y}
	test := Dataset{Inputs: fx.Test.Inputs, Y: fx.Test.Y}
	return p, train, valid, test
}

func TestOptimizeBaseline(t *testing.T) {
	p, train, valid, test := classificationPipeline(t)
	o, rep, err := Optimize(context.Background(), p, train, valid, Options{})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if rep.NumIFVs != 2 {
		t.Errorf("NumIFVs = %d, want 2", rep.NumIFVs)
	}
	if rep.CascadeBuilt {
		t.Error("cascade built without being requested")
	}
	if rep.TrainAccuracy < 0.8 {
		t.Errorf("train accuracy = %.3f, want >= 0.8", rep.TrainAccuracy)
	}
	preds, err := o.PredictBatch(context.Background(), test.Inputs)
	if err != nil {
		t.Fatalf("PredictBatch: %v", err)
	}
	if acc := model.Accuracy(preds, test.Y); acc < 0.75 {
		t.Errorf("test accuracy = %.3f, want >= 0.75", acc)
	}
}

func TestOptimizeWithCascades(t *testing.T) {
	p, train, valid, test := classificationPipeline(t)
	o, rep, err := Optimize(context.Background(), p, train, valid, Options{Cascades: true, AccuracyTarget: 0.01})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !rep.CascadeBuilt {
		t.Fatal("cascade not built")
	}
	if len(rep.EfficientIFVs) == 0 {
		t.Error("no efficient IFVs reported")
	}
	cascPreds, err := o.PredictBatch(context.Background(), test.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	fullPreds, err := o.PredictFull(context.Background(), test.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	cascAcc := model.Accuracy(cascPreds, test.Y)
	fullAcc := model.Accuracy(fullPreds, test.Y)
	if cascAcc < fullAcc-0.05 {
		t.Errorf("cascade accuracy %.3f far below full %.3f", cascAcc, fullAcc)
	}
}

func TestOptimizeInterpretedMatchesCompiled(t *testing.T) {
	p, train, valid, test := classificationPipeline(t)
	o, _, err := Optimize(context.Background(), p, train, valid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := o.PredictFull(context.Background(), test.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.PredictInterpreted(context.Background(), test.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("row %d: compiled %v != interpreted %v", i, a[i], b[i])
		}
	}
}

func TestOptimizePointQueries(t *testing.T) {
	p, train, valid, test := classificationPipeline(t)
	o, _, err := Optimize(context.Background(), p, train, valid, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := o.PredictFull(context.Background(), test.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		got, err := o.PredictPoint(context.Background(), test.Row(i).Inputs)
		if err != nil {
			t.Fatalf("PredictPoint(%d): %v", i, err)
		}
		if math.Abs(got-batch[i]) > 1e-9 {
			t.Fatalf("point %d = %v, batch = %v", i, got, batch[i])
		}
	}
}

// TestBatchTraceCarriesModelScore: a sampled uncascaded batch records the
// model:score span whether its features were computed sequentially or on row
// shards (Workers > 1) — both go through the one compiled predict shape.
func TestBatchTraceCarriesModelScore(t *testing.T) {
	p, train, valid, test := classificationPipeline(t)
	for _, workers := range []int{0, 2} {
		o, _, err := Optimize(context.Background(), p, train, valid, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		o.EnableTracing(1, 8)
		if _, err := o.PredictBatch(context.Background(), test.Inputs); err != nil {
			t.Fatal(err)
		}
		stages := make(map[string]bool)
		for _, tr := range o.Tracer().Traces() {
			for _, sp := range tr.Spans {
				stages[sp.Stage] = true
			}
		}
		if !stages[trace.StageModelScore] {
			t.Errorf("workers=%d: sampled batch carries no %q span (saw %v)", workers, trace.StageModelScore, stages)
		}
	}
}

func TestOptimizeTopK(t *testing.T) {
	p, train, valid, test := classificationPipeline(t)
	o, _, err := Optimize(context.Background(), p, train, valid, Options{TopK: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := o.TopK(context.Background(), test.Inputs, 20)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if len(got) != 20 {
		t.Fatalf("TopK returned %d rows, want 20", len(got))
	}
	exact, _, err := o.TopKExact(context.Background(), test.Inputs, 20)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	set := make(map[int]bool)
	for _, e := range exact {
		set[e] = true
	}
	for _, g := range got {
		if set[g] {
			hits++
		}
	}
	if hits == 0 {
		t.Error("filtered top-K shares nothing with exact top-K")
	}
}

func TestOptimizeTopKWithoutOption(t *testing.T) {
	p, train, valid, test := classificationPipeline(t)
	o, _, err := Optimize(context.Background(), p, train, valid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.TopK(context.Background(), test.Inputs, 5); err == nil {
		t.Error("want error using TopK without Options.TopK")
	}
}

func TestOptimizeFeatureCache(t *testing.T) {
	p, train, valid, test := classificationPipeline(t)
	o, _, err := Optimize(context.Background(), p, train, valid, Options{FeatureCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.PredictBatch(context.Background(), test.Inputs); err != nil {
		t.Fatal(err)
	}
	if _, err := o.PredictBatch(context.Background(), test.Inputs); err != nil {
		t.Fatal(err)
	}
	if o.Prog.FeatureCacheStats().Hits == 0 {
		t.Error("feature cache recorded no hits over a repeated batch")
	}
}

func TestOptimizeValidation(t *testing.T) {
	if _, _, err := Optimize(context.Background(), nil, Dataset{}, Dataset{}, Options{}); err == nil {
		t.Error("want error for nil pipeline")
	}
	p, train, _, _ := classificationPipeline(t)
	if _, _, err := Optimize(context.Background(), p, Dataset{}, Dataset{}, Options{}); err == nil {
		t.Error("want error for empty training set")
	}
	// Cascades without a validation set must fail loudly.
	p2, train2, _, _ := classificationPipeline(t)
	if _, _, err := Optimize(context.Background(), p2, train2, Dataset{}, Options{Cascades: true}); err == nil {
		t.Error("want error for cascades without validation data")
	}
	_ = train
}

func TestOptimizeRegressionSkipsCascades(t *testing.T) {
	fx, err := fixture.NewRegression(41, 800, 300, 300, 200)
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	p := &Pipeline{
		Graph: fx.Prog.G,
		Model: model.NewGBDT(model.GBDTConfig{Task: model.Regression, Trees: 30, MaxDepth: 4, Seed: 41}),
	}
	train := Dataset{Inputs: fx.Train.Inputs, Y: fx.Train.Y}
	valid := Dataset{Inputs: fx.Valid.Inputs, Y: fx.Valid.Y}
	o, rep, err := Optimize(context.Background(), p, train, valid, Options{Cascades: true, TopK: true})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if rep.CascadeBuilt {
		t.Error("cascades must not deploy for regression (paper section 6.3)")
	}
	if o.Filter == nil {
		t.Error("top-K filters should still deploy for regression")
	}
}

func TestDatasetHelpers(t *testing.T) {
	d := Dataset{
		Inputs: map[string]value.Value{"x": value.NewInts([]int64{1, 2, 3})},
		Y:      []float64{0.1, 0.2, 0.3},
	}
	if d.Len() != 3 {
		t.Errorf("Len = %d", d.Len())
	}
	g := d.Gather([]int{2, 0})
	if g.Inputs["x"].Ints[0] != 3 || g.Y[1] != 0.1 {
		t.Error("Gather wrong")
	}
	r := d.Row(1)
	if r.Len() != 1 || r.Y[0] != 0.2 {
		t.Error("Row wrong")
	}
	if (Dataset{}).Len() != 0 {
		t.Error("empty dataset Len should be 0")
	}
}

func TestOptimizeSingleIFVGraphNoApprox(t *testing.T) {
	// A single-generator pipeline cannot cascade: Optimize should succeed
	// without cascades rather than fail.
	b := graph.NewBuilder()
	x := b.Input("x")
	ns := b.Add("stats", ops.NewNumericStats(), x)
	cat := b.Add("concat", ops.NewConcat(), ns)
	b.SetOutput(cat)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 300)
	ys := make([]float64, 300)
	for i := range xs {
		xs[i] = float64(i%10) - 5
		if xs[i] > 0 {
			ys[i] = 1
		}
	}
	train := Dataset{Inputs: map[string]value.Value{"x": value.NewFloats(xs)}, Y: ys}
	p := &Pipeline{Graph: g, Model: model.NewLogistic(model.LinearConfig{Seed: 5})}
	o, rep, err := Optimize(context.Background(), p, train, train, Options{Cascades: true})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if rep.CascadeBuilt {
		t.Error("cascade built on a single-IFV graph")
	}
	preds, err := o.PredictBatch(context.Background(), train.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	if acc := model.Accuracy(preds, ys); acc < 0.9 {
		t.Errorf("accuracy = %.3f", acc)
	}
}

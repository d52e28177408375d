package core

import (
	"context"
	"testing"
)

func TestPredictOptionsBatchableZero(t *testing.T) {
	if !(PredictOptions{}).BatchableZero() {
		t.Fatal("zero options not BatchableZero")
	}
	// Criticality alone never changes execution, so it stays batchable.
	po := ResolvePredict(WithCriticality("high"))
	if po.IsZero() {
		t.Fatal("criticality-only options report IsZero")
	}
	if !po.BatchableZero() {
		t.Fatal("criticality-only options not BatchableZero")
	}
	for _, opt := range []PredictOption{
		WithSmallOnly(), WithPointQuery(), WithTopKBudget(8), WithCascadeThreshold(0.9),
	} {
		if ResolvePredict(opt, WithCriticality("low")).BatchableZero() {
			t.Fatal("options with a real override report BatchableZero")
		}
	}
}

func TestPredictOptionsValidateCriticality(t *testing.T) {
	for _, ok := range []string{"", "low", "normal", "high"} {
		if err := (PredictOptions{Criticality: ok}).Validate(); err != nil {
			t.Fatalf("Validate(%q): %v", ok, err)
		}
	}
	if err := (PredictOptions{Criticality: "urgent"}).Validate(); err == nil {
		t.Fatal("Validate accepted unknown criticality")
	}
}

// TestSmallOnlyNeverRunsFullModel pins the brownout degrade primitive: with
// SmallOnly set, the cascade's small model answers every row and the full
// model contributes nothing.
func TestSmallOnlyNeverRunsFullModel(t *testing.T) {
	p, train, valid, test := classificationPipeline(t)
	o, rep, err := Optimize(context.Background(), p, train, valid, Options{Cascades: true, AccuracyTarget: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CascadeBuilt {
		t.Fatal("cascade not built")
	}
	preds, stats, err := o.PredictBatchOptions(context.Background(), test.Inputs, PredictOptions{SmallOnly: true})
	if err != nil {
		t.Fatalf("PredictBatchOptions small-only: %v", err)
	}
	if len(preds) != len(test.Y) {
		t.Fatalf("got %d predictions, want %d", len(preds), len(test.Y))
	}
	if stats.Cascaded != 0 || stats.SmallOnly != stats.Total || stats.Total == 0 {
		t.Fatalf("small-only stats = %+v, want everything small, nothing cascaded", stats)
	}

	// Point path: same contract, and still a valid prediction.
	pt, pstats, err := o.PredictPointOptions(context.Background(), test.Row(0).Inputs, PredictOptions{SmallOnly: true, Point: true})
	if err != nil {
		t.Fatalf("PredictPointOptions small-only: %v", err)
	}
	if pstats.Total != 1 || pstats.SmallOnly != 1 || pstats.Cascaded != 0 {
		t.Fatalf("small-only point stats = %+v, want one row answered by the small model", pstats)
	}
	if pt != pt || pt < 0 || pt > 1 {
		t.Fatalf("small-only point prediction = %v, want a score in [0, 1]", pt)
	}
}

// TestSmallOnlyWithoutCascadeIsNoop pins that a degrade directive never
// turns into an error on pipelines with no cascade to degrade to.
func TestSmallOnlyWithoutCascadeIsNoop(t *testing.T) {
	p, train, valid, test := classificationPipeline(t)
	o, _, err := Optimize(context.Background(), p, train, valid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := o.PredictBatch(context.Background(), test.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := o.PredictBatchOptions(context.Background(), test.Inputs, PredictOptions{SmallOnly: true})
	if err != nil {
		t.Fatalf("small-only without cascade errored: %v", err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("row %d: small-only %v != plain %v without a cascade", i, got[i], want[i])
		}
	}
}

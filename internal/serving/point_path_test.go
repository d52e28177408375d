package serving

import (
	"context"
	"math"
	"testing"
	"time"

	"willump/internal/core"
	"willump/internal/fixture"
	"willump/internal/pipeline"
)

// TestHTTPPointReplyBitEqualToBatch pins the single-row route: a one-row,
// zero-option request is answered by the compiled point path, and its reply
// over HTTP must carry exactly the bits in-process PredictBatch computes for
// that row — for every row of the credit test split (the benchmark's
// serve-http-point model) and of a cascaded fixture, where the cascade's
// serve counters must also come out as the batch path counts them, and go
// on counting when the row arrives with options on the direct path.
func TestHTTPPointReplyBitEqualToBatch(t *testing.T) {
	ctx := context.Background()
	credit, err := pipeline.ByName("credit", pipeline.Config{Seed: 3, N: 1200})
	if err != nil {
		t.Fatal(err)
	}
	defer credit.Close()
	creditOpt, _, err := core.Optimize(ctx, credit.Pipeline, credit.Train, credit.Valid, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fx, err := fixture.NewClassification(4, 600, 200, 300, 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	cascaded, _, err := core.Optimize(ctx,
		&core.Pipeline{Graph: fx.Prog.G, Model: fx.Model},
		core.Dataset{Inputs: fx.Train.Inputs, Y: fx.Train.Y},
		core.Dataset{Inputs: fx.Valid.Inputs, Y: fx.Valid.Y},
		core.Options{Cascades: true})
	if err != nil {
		t.Fatal(err)
	}
	if cascaded.Cascade == nil {
		t.Fatal("fixture deployed no cascade")
	}
	// Fixed rather than selected (selection weighs profiled costs), so that
	// both arms of the cascade answer some of the rows on every run.
	cascaded.Cascade.Threshold = 0.7

	reg, cli := startRegistryServer(t, Options{})
	for _, tc := range []struct {
		name string
		o    *core.Optimized
		test core.Dataset
	}{
		{"credit", creditOpt, credit.Test},
		{"cascaded", cascaded, core.Dataset{Inputs: fx.Test.Inputs, Y: fx.Test.Y}},
	} {
		if err := reg.Deploy(tc.name, "v1", tc.o); err != nil {
			t.Fatal(err)
		}
		want, wantStats, err := tc.o.PredictBatchOptions(ctx, tc.test.Inputs, core.PredictOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			got, err := cli.PredictModel(ctx, tc.name, tc.test.Row(i).Inputs)
			if err != nil {
				t.Fatalf("%s row %d: %v", tc.name, i, err)
			}
			if len(got) != 1 || math.Float64bits(got[0]) != math.Float64bits(want[i]) {
				t.Fatalf("%s row %d: HTTP point reply %v, in-process batch %v", tc.name, i, got, want[i])
			}
		}
		h, err := reg.lookup(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		v := h.active.Load()
		if got := v.batching.inline.Load(); got != int64(len(want)) {
			t.Errorf("%s: %d of %d sequential requests executed inline", tc.name, got, len(want))
		}
		st, err := reg.Stats(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if st.CascadeTotal != int64(wantStats.Total) || st.CascadeSmallOnly != int64(wantStats.SmallOnly) {
			t.Errorf("%s: served cascade counters total=%d small=%d, batch path counts %+v", tc.name, st.CascadeTotal, st.CascadeSmallOnly, wantStats)
		}
		if g := v.guardSnapshot(); g.CascadeTotal != int64(wantStats.Total) || g.CascadeSmall != int64(wantStats.SmallOnly) {
			t.Errorf("%s: guard cascade counters %d/%d, batch path counts %+v", tc.name, g.CascadeSmall, g.CascadeTotal, wantStats)
		}
		// The direct path counts a cascaded row whichever modality its
		// options select: as a point query and as a one-row direct batch.
		if tc.o.Cascade != nil {
			for _, opt := range []core.PredictOption{core.WithPointQuery(), core.WithPredictDeadline(time.Minute)} {
				if _, err := cli.PredictModel(ctx, tc.name, tc.test.Row(0).Inputs, opt); err != nil {
					t.Fatalf("%s direct request: %v", tc.name, err)
				}
				wantStats.Total++
				if st, _ := reg.Stats(tc.name); st.CascadeTotal != int64(wantStats.Total) {
					t.Errorf("%s: cascade rows %d after a direct request, want %d", tc.name, st.CascadeTotal, wantStats.Total)
				}
			}
		}
	}
	if st, _ := reg.Stats("cascaded"); st.CascadeSmallOnly == 0 || st.CascadeSmallOnly == st.CascadeTotal {
		t.Errorf("cascaded fixture exercised one arm only: %d of %d rows small-only", st.CascadeSmallOnly, st.CascadeTotal)
	}
}

// TestPointPathConsultsPredictionCacheFirst: with the end-to-end prediction
// cache on, a repeated single-row request is answered from the cache and the
// pipeline's point path does not run again.
func TestPointPathConsultsPredictionCacheFirst(t *testing.T) {
	ctx := context.Background()
	fx, err := fixture.NewClassification(7, 600, 200, 50, 0.7, 10)
	if err != nil {
		t.Fatal(err)
	}
	o, _, err := core.Optimize(ctx,
		&core.Pipeline{Graph: fx.Prog.G, Model: fx.Model},
		core.Dataset{Inputs: fx.Train.Inputs, Y: fx.Train.Y},
		core.Dataset{Inputs: fx.Valid.Inputs, Y: fx.Valid.Y},
		core.Options{Cascades: true})
	if err != nil {
		t.Fatal(err)
	}
	reg, cli := startRegistryServer(t, Options{CacheCapacity: -1})
	if err := reg.Deploy("m", "v1", o); err != nil {
		t.Fatal(err)
	}
	row := fixtureRow()
	first, err := cli.PredictModel(ctx, "m", row)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := reg.Stats("m")
	if st.CascadeTotal != 1 {
		t.Fatalf("first request served %d cascade rows, want 1", st.CascadeTotal)
	}
	again, err := cli.PredictModel(ctx, "m", row)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(again[0]) != math.Float64bits(first[0]) {
		t.Errorf("cached reply %v differs from computed %v", again, first)
	}
	if st, _ := reg.Stats("m"); st.CascadeTotal != 1 {
		t.Errorf("repeat request ran the pipeline again (cascade rows %d, want 1)", st.CascadeTotal)
	}
	h, _ := reg.lookup("m")
	if hits, _ := h.active.Load().cache.Stats(); hits != 1 {
		t.Errorf("prediction cache hits = %d, want 1", hits)
	}
}

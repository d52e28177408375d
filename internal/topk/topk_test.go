package topk

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"willump/internal/cascade"
	"willump/internal/fixture"
	"willump/internal/value"
)

func newFilter(t *testing.T, cfg Config) (*Filter, fixture.Data) {
	t.Helper()
	_, f, test := newFilterFixture(t, cfg)
	return f, test
}

// newFilterFixture is newFilter, also returning the fixture, whose lookup
// tables count the rows each IFV is computed for.
func newFilterFixture(t *testing.T, cfg Config) (*fixture.Regression, *Filter, fixture.Data) {
	t.Helper()
	fx, err := fixture.NewRegression(21, 1500, 500, 1200, 300)
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	approx, err := cascade.BuildApprox(context.Background(), fx.Prog, fx.Model, fx.Train.Inputs, fx.TrainX, fx.Train.Y, cascade.Config{})
	if err != nil {
		t.Fatalf("BuildApprox: %v", err)
	}
	return fx, NewFilter(approx, fx.Model, cfg), fx.Test
}

func TestTopIndices(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.9, 0.2}
	got := TopIndices(scores, 3)
	want := []int{1, 3, 2} // ties broken by ascending index
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopIndices = %v, want %v", got, want)
		}
	}
	if len(TopIndices(scores, 10)) != 5 {
		t.Error("k > n should cap at n")
	}
}

// TestTopIndicesMatchesFullSort checks the bounded-heap selection against
// sorting every index under the same order (score descending, index
// ascending on ties), on random scores drawn from few distinct values so
// ties straddle the cut, for every k from 0 past n.
func TestTopIndicesMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		scores := make([]float64, n)
		levels := 1 + rng.Intn(8)
		for i := range scores {
			scores[i] = float64(rng.Intn(levels)) / 4
		}
		full := make([]int, n)
		for i := range full {
			full[i] = i
		}
		sort.SliceStable(full, func(a, b int) bool { return scores[full[a]] > scores[full[b]] })
		for k := 0; k <= n+2; k++ {
			got := TopIndices(scores, k)
			if want := full[:min(k, n)]; !slices.Equal(got, want) {
				t.Fatalf("n=%d k=%d scores=%v: TopIndices = %v, want %v", n, k, scores, got, want)
			}
		}
	}
	if got := TopIndices(nil, 3); len(got) != 0 {
		t.Errorf("TopIndices(nil, 3) = %v, want empty", got)
	}
	if got := TopIndices([]float64{1, 2}, -1); len(got) != 0 {
		t.Errorf("TopIndices(_, -1) = %v, want empty", got)
	}
}

// TestTopIndicesNaNRanksLast pins the order's treatment of NaN scores: below
// every number, -Inf included, and among themselves by ascending index.
func TestTopIndicesNaNRanksLast(t *testing.T) {
	nan := math.NaN()
	scores := []float64{nan, 0.5, math.Inf(-1), nan, 0.9, 0.5}
	want := []int{4, 1, 5, 2, 0, 3}
	for k := 0; k <= len(scores); k++ {
		if got := TopIndices(scores, k); !slices.Equal(got, want[:k]) {
			t.Errorf("k=%d: TopIndices = %v, want %v", k, got, want[:k])
		}
	}
}

func TestSubsetSize(t *testing.T) {
	f := &Filter{cfg: Config{CK: 10, MinSubsetFrac: 0.05}}
	if got := f.SubsetSize(10000, 10); got != 500 {
		t.Errorf("SubsetSize = %d, want 500 (5%% floor beats ck*K=100)", got)
	}
	if got := f.SubsetSize(1000, 20); got != 200 {
		t.Errorf("SubsetSize = %d, want 200 (ck*K)", got)
	}
	if got := f.SubsetSize(50, 20); got != 50 {
		t.Errorf("SubsetSize = %d, want capped at n", got)
	}
}

func TestTopKWholeBatchSubsetIsExact(t *testing.T) {
	f, test := newFilter(t, Config{})
	n := test.Inputs["cheap_id"].Len()
	exact, _, err := f.ExactTopK(context.Background(), test.Inputs, 50)
	if err != nil {
		t.Fatalf("ExactTopK: %v", err)
	}
	got, err := f.TopKSubset(context.Background(), test.Inputs, 50, n)
	if err != nil {
		t.Fatalf("TopKSubset: %v", err)
	}
	for i := range exact {
		if got[i] != exact[i] {
			t.Fatalf("subset=n ranking differs at %d: %d vs %d", i, got[i], exact[i])
		}
	}
}

func TestTopKHighPrecisionAtDefaults(t *testing.T) {
	f, test := newFilter(t, Config{})
	const k = 50
	exact, scores, err := f.ExactTopK(context.Background(), test.Inputs, k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.TopK(context.Background(), test.Inputs, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != k {
		t.Fatalf("TopK returned %d, want %d", len(got), k)
	}
	prec := Precision(got, exact)
	if prec < 0.5 {
		t.Errorf("precision = %.2f, want >= 0.5 with default subset", prec)
	}
	// Average value must be close to the true top-K average value.
	avTrue := AverageValue(exact, scores)
	avGot := AverageValue(got, scores)
	if avTrue-avGot > 0.25*math.Abs(avTrue) {
		t.Errorf("average value %v far below true %v", avGot, avTrue)
	}
}

func TestTopKShrinkingSubsetDegradesAccuracy(t *testing.T) {
	f, test := newFilter(t, Config{})
	const k = 50
	exact, _, err := f.ExactTopK(context.Background(), test.Inputs, k)
	if err != nil {
		t.Fatal(err)
	}
	n := test.Inputs["cheap_id"].Len()
	large, err := f.TopKSubset(context.Background(), test.Inputs, k, n/2)
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := f.TopKSubset(context.Background(), test.Inputs, k, k)
	if err != nil {
		t.Fatal(err)
	}
	if Precision(large, exact) < Precision(tiny, exact) {
		t.Errorf("precision should not improve as the subset shrinks: large %.2f < tiny %.2f",
			Precision(large, exact), Precision(tiny, exact))
	}
}

func TestTopKValidation(t *testing.T) {
	f, test := newFilter(t, Config{})
	if _, err := f.TopK(context.Background(), test.Inputs, 0); err == nil {
		t.Error("want error for k=0")
	}
	if _, err := f.TopK(context.Background(), test.Inputs, 1<<30); err == nil {
		t.Error("want error for k > n")
	}
	if _, err := f.SampledTopK(context.Background(), test.Inputs, 10, 0.5, 1); err == nil {
		t.Error("want error for ratio < 1")
	}
}

func TestSampledTopKWorseThanFilter(t *testing.T) {
	f, test := newFilter(t, Config{})
	const k = 50
	exact, _, err := f.ExactTopK(context.Background(), test.Inputs, k)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := f.TopK(context.Background(), test.Inputs, k)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := f.SampledTopK(context.Background(), test.Inputs, k, 4.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	pf, ps := Precision(filtered, exact), Precision(sampled, exact)
	// Sampling at ratio 4 keeps ~25% of rows, so its expected precision is
	// ~0.25; the filter model should beat it clearly (Table 5's claim).
	if pf <= ps {
		t.Errorf("filter precision %.2f not better than sampling %.2f", pf, ps)
	}
}

func TestPrecisionMetric(t *testing.T) {
	if p := Precision([]int{1, 2, 3}, []int{2, 3, 4}); math.Abs(p-2.0/3) > 1e-12 {
		t.Errorf("Precision = %v, want 2/3", p)
	}
	if p := Precision(nil, []int{1}); p != 0 {
		t.Errorf("Precision(nil) = %v, want 0", p)
	}
	if p := Precision([]int{1}, []int{1}); p != 1 {
		t.Errorf("Precision = %v, want 1", p)
	}
}

func TestMeanAveragePrecisionMetric(t *testing.T) {
	// Perfect ranking: mAP = 1.
	if m := MeanAveragePrecision([]int{5, 7}, []int{5, 7}); math.Abs(m-1) > 1e-12 {
		t.Errorf("mAP = %v, want 1", m)
	}
	// One relevant item at rank 2 out of truth {9}: AP = (1/2)/1 = 0.5.
	if m := MeanAveragePrecision([]int{3, 9}, []int{9}); math.Abs(m-0.5) > 1e-12 {
		t.Errorf("mAP = %v, want 0.5", m)
	}
	if m := MeanAveragePrecision(nil, []int{1}); m != 0 {
		t.Errorf("mAP(nil) = %v, want 0", m)
	}
}

func TestAverageValueMetric(t *testing.T) {
	scores := []float64{10, 20, 30}
	if av := AverageValue([]int{0, 2}, scores); av != 20 {
		t.Errorf("AverageValue = %v, want 20", av)
	}
	if av := AverageValue(nil, scores); av != 0 {
		t.Errorf("AverageValue(nil) = %v, want 0", av)
	}
}

func TestTopKResultsSortedByFullScore(t *testing.T) {
	f, test := newFilter(t, Config{})
	const k = 30
	got, err := f.TopK(context.Background(), test.Inputs, k)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute full scores for the returned rows and check descending order.
	rows := append([]int(nil), got...)
	sorted := append([]int(nil), rows...)
	sort.Ints(sorted)
	sub := make(map[string]value.Value)
	for key, v := range test.Inputs {
		sub[key] = v.Gather(rows)
	}
	x, err := f.Approx.Prog.RunBatch(context.Background(), sub)
	if err != nil {
		t.Fatal(err)
	}
	scores := f.Full.Predict(x)
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[i-1]+1e-12 {
			t.Fatalf("results not in descending score order at %d: %v > %v", i, scores[i], scores[i-1])
		}
	}
}

package topk

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"willump/internal/feature"
	"willump/internal/graph"
	"willump/internal/model"
	"willump/internal/parallel"
	"willump/internal/weld"
)

// TestShardedTopKMatchesSequential: both passes of a top-K query — the
// filter over every candidate and the re-rank over the kept ones — give the
// same ranking at Workers 1, 0 (GOMAXPROCS), 3 and one shard per row, for
// the default subset, a small one and the whole batch.
func TestShardedTopKMatchesSequential(t *testing.T) {
	f, test := newFilter(t, Config{})
	prog := f.Approx.Prog
	weld.ForceFanOut(t, prog, 1)
	ctx := context.Background()
	n := test.Inputs["cheap_id"].Len()
	for _, subset := range []int{-1, 25, n} {
		prog.Workers = 1
		want, err := f.TopKSubset(ctx, test.Inputs, 20, subset)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 3, n + 16} {
			prog.Workers = workers
			got, err := f.TopKSubset(ctx, test.Inputs, 20, subset)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("subset %d, workers=%d: top-K %v, sequential %v", subset, workers, got, want)
			}
		}
	}
}

// TestShardCandidatesMatchTopIndices: the candidates merged from the
// shards' own selections are, as a set, exactly TopIndices(scores, subset),
// in ascending row order, over random scores drawn from few levels (ties
// straddle every cut) with NaNs among them, at 1, 2, 3 and n+16 shards.
func TestShardCandidatesMatchTopIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(120)
		scores := make([]float64, n)
		levels := 1 + rng.Intn(6)
		for i := range scores {
			if scores[i] = float64(rng.Intn(levels)); rng.Intn(8) == 0 {
				scores[i] = math.NaN()
			}
		}
		subset := 1 + rng.Intn(n)
		want := TopIndices(scores, subset)
		slices.Sort(want)
		for _, shards := range []int{1, 2, 3, n + 16} {
			j := filterJob{subset: subset, scores: scores, picks: make([]int, n), ends: make([]int, n)}
			parts := min(shards, n)
			for k := range parts {
				j.pick(parallel.Shard(n, parts, k))
			}
			if got := j.candidates(); !slices.Equal(got, want) {
				t.Fatalf("n=%d subset=%d shards=%d scores=%v: candidates %v, want %v", n, subset, shards, scores, got, want)
			}
		}
	}
}

// tieModel is a full model whose scores tie often: the wrapped model's,
// rounded to halves.
type tieModel struct{ model.Model }

func (m tieModel) PredictRow(x feature.Matrix, r int) float64 {
	return math.Round(2*m.Model.PredictRow(x, r)) / 2
}

func (m tieModel) Predict(x feature.Matrix) []float64 {
	out := make([]float64, x.Rows())
	for r := range out {
		out[r] = m.PredictRow(x, r)
	}
	return out
}

// TestShardedTopKTiesByRow: full-model ties rank by row index, as ExactTopK
// and the benchmark's order check rank them, not by filter rank: with the
// whole batch as the subset, TopKSubset equals ExactTopK exactly, at
// Workers 1 and on shards.
func TestShardedTopKTiesByRow(t *testing.T) {
	f, test := newFilter(t, Config{})
	f.Full = tieModel{f.Full}
	prog := f.Approx.Prog
	ctx := context.Background()
	n := test.Inputs["cheap_id"].Len()
	const k = 60
	want, scores, err := f.ExactTopK(ctx, test.Inputs, k)
	if err != nil {
		t.Fatal(err)
	}
	ties := 0
	for i := 1; i < k; i++ {
		if scores[want[i]] == scores[want[i-1]] {
			ties++
		}
	}
	if ties < k/2 {
		t.Fatalf("only %d of the top %d full scores tie with their predecessor", ties, k)
	}
	for _, workers := range []int{1, 2, 3, n + 16} {
		weld.ForceFanOut(t, prog, workers)
		got, err := f.TopKSubset(ctx, test.Inputs, k, n)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("workers=%d: subset=n top-K %v, ExactTopK %v", workers, got, want)
		}
	}
}

// countingModel counts the rows it scores.
type countingModel struct {
	model.Model
	rows *atomic.Int64
}

func (m countingModel) PredictRow(x feature.Matrix, r int) float64 {
	m.rows.Add(1)
	return m.Model.PredictRow(x, r)
}

// TestShardedTopKFilterOnce: per query the filter IFV is evaluated on
// exactly the n rows of the batch — the re-rank gathers the filter's roots
// instead of computing them again for the candidates — and the rest of the
// features and the full model on exactly the subset, at every width.
func TestShardedTopKFilterOnce(t *testing.T) {
	fx, f, test := newFilterFixture(t, Config{})
	scored := new(atomic.Int64)
	f.Full = countingModel{f.Full, scored}
	cheap := slices.IndexFunc(f.Approx.Prog.A.IFVs, func(ifv graph.IFV) bool {
		return f.Approx.Prog.G.Node(ifv.Root).Label == "cheap_features"
	})
	if !slices.Equal(f.Approx.Efficient, []int{cheap}) {
		t.Fatalf("efficient IFVs %v, want the cheap lookup (%d) alone", f.Approx.Efficient, cheap)
	}
	ctx := context.Background()
	n := test.Inputs["cheap_id"].Len()
	for _, workers := range []int{1, 2, 3, n + 16} {
		weld.ForceFanOut(t, f.Approx.Prog, workers)
		for _, subset := range []int{-1, 25, n} {
			cheap0, heavy0 := fx.CheapTable.Requests(), fx.HeavyTable.Requests()
			scored.Store(0)
			if _, err := f.TopKSubset(ctx, test.Inputs, 20, subset); err != nil {
				t.Fatal(err)
			}
			want := subset
			if subset < 0 {
				want = f.SubsetSize(n, 20)
			}
			if got := fx.CheapTable.Requests() - cheap0; got != int64(n) {
				t.Errorf("workers=%d subset=%d: the filter IFV was evaluated on %d rows, want %d", workers, subset, got, n)
			}
			if got := fx.HeavyTable.Requests() - heavy0; got != int64(want) {
				t.Errorf("workers=%d subset=%d: the rest IFV was evaluated on %d rows, want %d", workers, subset, got, want)
			}
			if got := scored.Load(); got != int64(want) {
				t.Errorf("workers=%d subset=%d: the full model scored %d rows, want %d", workers, subset, got, want)
			}
		}
	}
}

// Package topk implements Willump's automatic top-K filter models (paper
// section 4.3). A top-K query asks for the relative ranking of the K
// top-scoring elements of a batch. The filter model — built exactly like a
// cascade's small model — scores every element cheaply, a subset of the
// top-scoring elements (c_k * K, with a minimum of 5% of the batch) is kept,
// and only that subset is re-ranked by the full model. The package also
// provides the random-sampling baseline and the ranking-accuracy metrics
// (precision@K, mean average precision, average value) of Tables 4, 5 and 7.
package topk

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"willump/internal/cascade"
	"willump/internal/model"
	"willump/internal/value"
)

// Config controls filter-model serving.
type Config struct {
	// CK is the subset-size multiplier: the filter keeps CK*K candidates.
	// Paper default: 10.
	CK int
	// MinSubsetFrac is the minimum subset size as a fraction of the batch.
	// Paper default: 0.05 (5%).
	MinSubsetFrac float64
}

func (c Config) withDefaults() Config {
	if c.CK <= 0 {
		c.CK = 10
	}
	if c.MinSubsetFrac <= 0 {
		c.MinSubsetFrac = 0.05
	}
	return c
}

// Filter serves top-K queries through an approximate filter model plus
// full-model re-ranking.
type Filter struct {
	// Approx supplies the filter (small) model and efficient IFV set.
	Approx *cascade.Approx
	// Full is the trained full model used to re-rank the filtered subset.
	Full model.Model
	cfg  Config
}

// NewFilter builds a top-K filter from an approximate model. Unlike
// cascades, filters work for both classification and regression: only
// relative scores matter.
func NewFilter(approx *cascade.Approx, full model.Model, cfg Config) *Filter {
	return &Filter{Approx: approx, Full: full, cfg: cfg.withDefaults()}
}

// Config returns the filter's resolved serving configuration (defaults
// applied). Artifact serialization persists it so a reloaded filter keeps
// the same subset-size policy.
func (f *Filter) Config() Config { return f.cfg }

// SubsetSize returns the number of candidates the filter keeps for a batch
// of n rows and a top-K query: max(CK*K, MinSubsetFrac*n), capped at n.
func (f *Filter) SubsetSize(n, k int) int {
	size := f.cfg.CK * k
	if minSize := int(f.cfg.MinSubsetFrac * float64(n)); size < minSize {
		size = minSize
	}
	if size > n {
		size = n
	}
	return size
}

// TopK returns the indices of the predicted K top-scoring rows of the batch,
// in descending predicted-score order.
func (f *Filter) TopK(ctx context.Context, inputs map[string]value.Value, k int) ([]int, error) {
	return f.TopKSubset(ctx, inputs, k, -1)
}

// TopKSubset is TopK with an explicit subset size — the Table 7 sweep, and
// the serving layer's per-request budget override (PredictOptions.Budget);
// subsetSize < 0 selects the configured default policy. Explicit sizes are
// clamped to [k, n].
func (f *Filter) TopKSubset(ctx context.Context, inputs map[string]value.Value, k int, subsetSize int) ([]int, error) {
	prog := f.Approx.Prog
	run, err := prog.NewRun(ctx, inputs)
	if err != nil {
		return nil, err
	}
	defer run.Close()
	effX, err := run.MatrixShared(f.Approx.Efficient)
	if err != nil {
		return nil, err
	}
	n := effX.Rows()
	if k <= 0 || k > n {
		return nil, fmt.Errorf("topk: k=%d out of range for batch of %d", k, n)
	}
	approxScores := f.Approx.Small.Predict(effX)
	if subsetSize < 0 {
		subsetSize = f.SubsetSize(n, k)
	}
	if subsetSize < k {
		subsetSize = k
	}
	if subsetSize > n {
		subsetSize = n
	}
	candidates := TopIndices(approxScores, subsetSize)

	sub := run.SubsetRun(candidates)
	defer sub.Close()
	fullX, err := sub.MatrixShared(prog.AllIFVs())
	if err != nil {
		return nil, err
	}
	fullScores := f.Full.Predict(fullX)
	order := TopIndices(fullScores, k)
	out := make([]int, k)
	for i, o := range order {
		out[i] = candidates[o]
	}
	return out, nil
}

// ExactTopK computes the ground-truth top K using the full pipeline and full
// model over the whole batch (the unoptimized query the paper measures
// accuracy against). It returns the indices in descending score order along
// with every row's full-model score.
func (f *Filter) ExactTopK(ctx context.Context, inputs map[string]value.Value, k int) ([]int, []float64, error) {
	prog := f.Approx.Prog
	x, err := prog.RunBatch(ctx, inputs)
	if err != nil {
		return nil, nil, err
	}
	scores := f.Full.Predict(x)
	if k <= 0 || k > len(scores) {
		return nil, nil, fmt.Errorf("topk: k=%d out of range for batch of %d", k, len(scores))
	}
	return TopIndices(scores, k), scores, nil
}

// SampledTopK is the random-sampling baseline of Table 5: sample n/ratio
// rows uniformly, run the full pipeline on the sample, and return its top K.
func (f *Filter) SampledTopK(ctx context.Context, inputs map[string]value.Value, k int, ratio float64, seed int64) ([]int, error) {
	prog := f.Approx.Prog
	var n int
	for _, v := range inputs {
		n = v.Len()
		break
	}
	if ratio < 1 {
		return nil, fmt.Errorf("topk: sampling ratio %v must be >= 1", ratio)
	}
	sampleSize := int(float64(n) / ratio)
	if sampleSize < k {
		sampleSize = k
	}
	if sampleSize > n {
		sampleSize = n
	}
	rng := rand.New(rand.NewSource(seed))
	rows := rng.Perm(n)[:sampleSize]
	sort.Ints(rows)
	sampled := make(map[string]value.Value, len(inputs))
	for key, v := range inputs {
		sampled[key] = v.Gather(rows)
	}
	x, err := prog.RunBatch(ctx, sampled)
	if err != nil {
		return nil, err
	}
	scores := f.Full.Predict(x)
	order := TopIndices(scores, k)
	out := make([]int, k)
	for i, o := range order {
		out[i] = rows[o]
	}
	return out, nil
}

// TopIndices returns the indices of the k largest scores in descending score
// order, breaking ties by ascending index for determinism. A NaN score ranks
// below every number (NaNs among themselves by ascending index), so NaNs
// fill the tail only when fewer than k rows have a real score. k is clamped
// to [0, len(scores)].
//
// It selects with a bounded heap — the k best seen so far, worst on top —
// and sorts only those: most of the other rows cost one comparison against
// the heap's top, and the result slice is the only allocation.
func TopIndices(scores []float64, k int) []int {
	n := len(scores)
	k = max(0, min(k, n))
	top := make([]int, k)
	for i := range top {
		top[i] = i
	}
	if 0 < k && k < n {
		for i := k/2 - 1; i >= 0; i-- {
			siftDown(scores, top, i)
		}
		for i := k; i < n; i++ {
			if rankBefore(scores, i, top[0]) {
				top[0] = i
				siftDown(scores, top, 0)
			}
		}
	}
	slices.SortFunc(top, func(a, b int) int {
		switch {
		case rankBefore(scores, a, b):
			return -1
		case rankBefore(scores, b, a):
			return 1
		}
		return 0
	})
	return top
}

// rankBefore is TopIndices' total order: whether row a ranks before row b.
func rankBefore(scores []float64, a, b int) bool {
	sa, sb := scores[a], scores[b]
	if sa > sb {
		return true
	}
	if sa < sb {
		return false
	}
	// Equal, or a NaN is involved (every comparison above was false).
	if aNaN, bNaN := sa != sa, sb != sb; aNaN != bNaN {
		return bNaN
	}
	return a < b
}

// siftDown moves heap[i] down until the heap order that keeps the
// worst-ranked row on top holds below position i again.
func siftDown(scores []float64, heap []int, i int) {
	for {
		worst := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(heap); c++ {
			if rankBefore(scores, heap[worst], heap[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		heap[i], heap[worst] = heap[worst], heap[i]
		i = worst
	}
}

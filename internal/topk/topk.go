// Package topk implements Willump's automatic top-K filter models (paper
// section 4.3). A top-K query asks for the relative ranking of the K
// top-scoring elements of a batch. The filter model — built exactly like a
// cascade's small model — scores every element cheaply, a subset of the
// top-scoring elements (c_k * K, with a minimum of 5% of the batch) is kept,
// and only that subset is re-ranked by the full model. The query pays for
// the filter pass once: the filter's features are computed for every
// element on row shards, which also pick the subset among their own rows,
// and the re-rank reuses those features for the kept elements. Rankings,
// filter and final alike, break score ties by row index. The package also
// provides the random-sampling baseline and the ranking-accuracy metrics
// (precision@K, mean average precision, average value) of Tables 4, 5 and 7.
package topk

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"willump/internal/cascade"
	"willump/internal/model"
	"willump/internal/value"
	"willump/internal/weld"
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
//
// Both passes run on row shards. Each filter shard scores its rows with the
// filter model and selects its own subsetSize best (filterJob); the shards
// leave the efficient IFVs in the run (weld.ShardsKeep). The caller merges
// the shards' picks into the candidates — exactly the subsetSize best filter
// scores, ties by row index, NaN last, as TopIndices ranks them — and the
// re-rank (cascade.Score) gathers the efficient IFVs for them instead of
// computing them again. The candidates are re-ranked in ascending row order,
// so the answer ranks by full-model score, then by row index, like
// ExactTopK. Runs, scores and candidates are pooled, so a warm query
// allocates its result and what its operators allocate per call.
func (f *Filter) TopKSubset(ctx context.Context, inputs map[string]value.Value, k int, subsetSize int) ([]int, error) {
	prog := f.Approx.Prog
	run, err := prog.NewRun(ctx, inputs)
	if err != nil {
		return nil, err
	}
	defer run.Close()
	n := run.Len()
	if k <= 0 || k > n {
		return nil, fmt.Errorf("topk: k=%d out of range for batch of %d", k, n)
	}
	if subsetSize < 0 {
		subsetSize = f.SubsetSize(n, k)
	}
	q := queries.Get().(*query)
	defer func() {
		q.f = nil
		queries.Put(q)
	}()
	q.f, q.subset = f, min(max(subsetSize, k), n)
	q.scores = growTo(q.scores, n)
	q.picks = growTo(q.picks, n)
	q.ends = growTo(q.ends, n)
	if err := run.ShardsKeep(f.Approx.Efficient, &q.filterJob); err != nil {
		return nil, err
	}
	cands := q.candidates()
	q.full = growTo(q.full, len(cands))
	if err := cascade.Score(run, cands, prog.AllIFVs(), f.Full, "", q.full); err != nil {
		return nil, err
	}
	q.order = growTo(q.order, len(cands))
	for i := range q.order {
		q.order[i] = i
	}
	top := rankTop(q.full, q.order, k)
	out := make([]int, len(top))
	for i, c := range top {
		out[i] = cands[c]
	}
	return out, nil
}

// filterJob is a top-K query's filter pass over row shards: each shard
// scores its rows [lo, hi) with the filter model into scores, selects its
// subset best rows into the head of picks[lo:hi] and records hi at ends[lo].
type filterJob struct {
	f      *Filter
	subset int
	scores []float64
	picks  []int
	ends   []int
}

func (j *filterJob) RunShard(sub *weld.BatchRun, lo, hi int) error {
	scores, err := sub.Score(j.f.Approx.Efficient, j.f.Approx.Small)
	if err != nil {
		return err
	}
	copy(j.scores[lo:hi], scores)
	j.pick(lo, hi)
	return nil
}

// pick selects the shard [lo, hi)'s subset best rows once it has scored them.
func (j *filterJob) pick(lo, hi int) {
	picks := j.picks[lo:hi]
	for k := range picks {
		picks[k] = lo + k
	}
	selectTop(j.scores, picks, j.subset)
	j.ends[lo] = hi
}

// candidates merges the shards' picks into the subset best rows of the
// filter pass, in ascending row order. A row among the subset best of the
// batch is among the subset best of its shard, so the merge selects over
// shards × subset entries, not over every row.
func (j *filterJob) candidates() []int {
	m := 0
	for lo := 0; lo < len(j.scores); lo = j.ends[lo] {
		m += copy(j.picks[m:], j.picks[lo:lo+min(j.subset, j.ends[lo]-lo)])
	}
	cands := j.picks[:m]
	selectTop(j.scores, cands, j.subset)
	cands = cands[:j.subset]
	slices.Sort(cands)
	return cands
}

// query is a top-K query's state, pooled across queries: its filter pass,
// the re-rank scores of the candidates and their ranking.
type query struct {
	filterJob
	full  []float64
	order []int
}

var queries = sync.Pool{New: func() any { return new(query) }}

// growTo returns a slice of length n reusing s's backing array when it can.
// Contents are unspecified.
func growTo[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

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
func TopIndices(scores []float64, k int) []int {
	rows := make([]int, len(scores))
	for i := range rows {
		rows[i] = i
	}
	return slices.Clip(rankTop(scores, rows, k))
}

// rankTop reorders rows so that its first k entries — k clamped to [0,
// len(rows)] — are its k best under rankBefore, in rank order, and returns
// them: a selection over every row, then a sort of the k selected alone.
func rankTop(scores []float64, rows []int, k int) []int {
	k = max(0, min(k, len(rows)))
	selectTop(scores, rows, k)
	top := rows[:k]
	sortByRank(scores, top)
	return top
}

// sortByRank sorts rows into rankBefore's order.
func sortByRank(scores []float64, rows []int) {
	slices.SortFunc(rows, func(a, b int) int {
		switch {
		case rankBefore(scores, a, b):
			return -1
		case rankBefore(scores, b, a):
			return 1
		}
		return 0
	})
}

// selectTop reorders rows so that its first k entries are its k best under
// rankBefore, in no particular order. It is quickselect, expected O(n): each
// round partitions the range holding the k-th position around the median
// of its first, middle and last rows, and narrows to the side that position
// falls on. rankBefore is a total order, so the k selected are the same
// whatever the partitions; a range that fails to shrink within 2·log₂ n
// rounds is sorted instead, which bounds the worst case at O(n log n).
func selectTop(scores []float64, rows []int, k int) {
	lo, hi := 0, len(rows)
	if k <= 0 || k >= hi {
		return
	}
	// Invariant: lo < k < hi, every row before lo ranks before every row
	// from lo on, and every row before hi before every row from hi on.
	for rounds := 2 * bits.Len(uint(hi)); ; rounds-- {
		if rounds == 0 {
			sortByRank(scores, rows[lo:hi])
			return
		}
		p := lo + partition(scores, rows[lo:hi])
		switch {
		case p == k || p == k-1:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p
		}
	}
}

// partition reorders rows (at least two) around a pivot, the median under
// rankBefore of the first, middle and last rows: the rows ranking before it,
// then the pivot, then the rest. It returns the pivot's position.
func partition(scores []float64, rows []int) int {
	last, mid := len(rows)-1, len(rows)/2
	order := func(i, j int) {
		if rankBefore(scores, rows[j], rows[i]) {
			rows[i], rows[j] = rows[j], rows[i]
		}
	}
	order(0, mid)
	order(0, last)
	order(mid, last)
	rows[mid], rows[last] = rows[last], rows[mid]
	pivot, p := rows[last], 0
	for i := range rows[:last] {
		if rankBefore(scores, rows[i], pivot) {
			rows[p], rows[i] = rows[i], rows[p]
			p++
		}
	}
	rows[p], rows[last] = rows[last], rows[p]
	return p
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

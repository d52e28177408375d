package weld

import (
	"context"
	"fmt"
	"sync"
	"time"

	"willump/internal/cache"
	"willump/internal/feature"
	"willump/internal/graph"
	"willump/internal/ops"
	"willump/internal/parallel"
	"willump/internal/trace"
	"willump/internal/value"
)

// BatchRun is one compiled execution over a batch of inputs. IFVs compute
// lazily and incrementally: cascades first compute the efficient IFVs, then
// resume the same run (or a row subset of it) to compute the rest, reusing
// everything already materialized.
//
// A run carries the context it was started with; execution checks it between
// plan steps (the graph blocks of section 5.2), so cancelling the context
// aborts a long batch promptly instead of at the end.
//
// Runs are pooled per Program: NewRun acquires a state whose buffers were
// preallocated from the plan shape, and Close recycles it (see state.go for
// the reuse and ownership contract). Callers that let derived matrices
// escape must not Close.
type BatchRun struct {
	p   *Program
	ctx context.Context
	n   int

	// tr is the request's trace, extracted once from ctx at acquisition.
	// nil for unsampled requests: every hook below is guarded on it, so
	// the unsampled fast path stays allocation-free.
	tr *trace.Trace

	vals  []value.Value // per-node computed values; sources prefilled
	owned []bool        // slot buffers allocated (and exclusively held) by this state
	have  []bool

	preDone bool
	ifvDone []bool

	// Per-step reusable execution state.
	stepIns [][]value.Value
	scratch []any

	// Point-query output: the concatenated feature vector and its 1-row
	// dense wrapper.
	vec  []float64
	mat1 *feature.Dense

	// MatrixShared output buffers.
	hsDense   *feature.Dense
	hsCSR     *feature.CSR
	hsBuilder feature.CSRBuilder
	ordered   []int

	// cacheScr[i] is IFV i's cached-execution scratch. Indexed per IFV so
	// ComputeIFVsParallel workers (which own disjoint IFV sets) never share
	// a buffer.
	cacheScr []ifvCacheScratch

	// pending[j] is the outstanding async store prefetch for the program's
	// prefetch spec j, started by NewRun and joined (or canceled) exactly
	// once. Empty for plans without async remote lookups. Indexed per spec
	// — each spec's step lives in one IFV, so parallel IFV workers touch
	// disjoint entries.
	pending []ops.PendingLookup
}

// ifvCacheScratch holds one IFV's reusable cached-path state: source-column
// views, encoded key bytes with per-row offsets and hashes, the gathered
// miss rows, a row-extraction buffer, and the pooled dense output the cache
// copies hits into. After warm-up an all-hit batch (and every warm point
// hit) allocates nothing.
type ifvCacheScratch struct {
	srcVals  []value.Value
	keyBuf   []byte
	offs     []int
	hashes   []uint64
	missRows []int
	rowBuf   []float64
	dense    *feature.Dense
}

// NewRun starts a compiled run over the given inputs. ctx governs the whole
// run: every subsequent ComputeIFVs/Matrix call on the run observes it.
func (p *Program) NewRun(ctx context.Context, inputs map[string]value.Value) (*BatchRun, error) {
	if !p.fitted {
		return nil, fmt.Errorf("weld: run before Fit")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := p.getRun(ctx)
	if err := r.resolveInto(inputs); err != nil {
		r.Close()
		return nil, err
	}
	if len(p.prefetch) > 0 {
		r.startPrefetch()
	}
	return r, nil
}

// startPrefetch kicks off the plan's async remote lookups before any local
// compute runs, so the store round trips overlap CPU work. IFVs with a
// feature cache are skipped: the cached path fetches only its misses, and
// prefetching every key would defeat the cache.
func (r *BatchRun) startPrefetch() {
	for j := range r.p.prefetch {
		sp := &r.p.prefetch[j]
		if r.p.caches != nil && r.p.caches[sp.ifv] != nil {
			continue
		}
		if v := r.vals[sp.src]; v.Kind == value.Ints {
			r.pending[j] = sp.at.StartLookup(r.ctx, v.Ints)
		}
	}
}

// hasPending reports whether any prefetch is still outstanding.
func (r *BatchRun) hasPending() bool {
	for _, pd := range r.pending {
		if pd != nil {
			return true
		}
	}
	return false
}

// ifvPending reports whether IFV i is waiting on an outstanding prefetch.
func (r *BatchRun) ifvPending(i int) bool {
	for j := range r.p.prefetch {
		if r.p.prefetch[j].ifv == i && r.pending[j] != nil {
			return true
		}
	}
	return false
}

// Len returns the batch size.
func (r *BatchRun) Len() int { return r.n }

// runStep executes plan step si, reading and writing r.vals. The run's
// context is checked first, so cancellation lands on a block boundary.
// Operators implementing graph.IntoApplier execute through the reuse path,
// recycling the slot's previous output buffers and the step's scratch cell.
func (r *BatchRun) runStep(si int) error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	if r.tr == nil {
		return r.execStep(si)
	}
	// Traced execution: record a span per fused step, and feed the shadow
	// profile (when enabled) with the step's per-node share — the live cost
	// measurements AdoptLiveProfile later folds into the cost model.
	st := &r.p.Steps[si]
	t0 := time.Now()
	err := r.execStep(si)
	r.tr.Record(st.label, t0)
	if lp := r.p.live; lp != nil && err == nil {
		sec := time.Since(t0).Seconds()
		for _, id := range st.nodes {
			lp.addNode(id, r.n, sec/float64(len(st.nodes)))
		}
	}
	return err
}

// execStep is runStep's body: it executes plan step si without tracing.
func (r *BatchRun) execStep(si int) error {
	st := &r.p.Steps[si]
	ins := r.stepIns[si]
	for i, in := range st.ins {
		if !r.have[in] {
			return fmt.Errorf("weld: step %d input %d not computed", st.out, in)
		}
		ins[i] = r.vals[in]
	}
	if !st.op.Compilable() {
		return r.runPythonStep(si, ins)
	}
	if lk, ok := st.op.(*ops.Lookup); ok {
		// Join an outstanding async prefetch here — where the lookup's
		// output is first consumed — bounded by the run's (request) context.
		if r.p.prefetchOf != nil {
			if pi := r.p.prefetchOf[si]; pi >= 0 && r.pending[pi] != nil {
				pd := r.pending[pi]
				r.pending[pi] = nil
				rows, err := pd.Wait(r.ctx)
				if err != nil {
					return fmt.Errorf("weld: step %s: %w", st.op.Name(), err)
				}
				out, err := lk.Materialize(rows, r.n)
				if err != nil {
					return fmt.Errorf("weld: step %s: %w", st.op.Name(), err)
				}
				r.vals[st.out] = out
				r.owned[st.out] = true
				r.have[st.out] = true
				return nil
			}
		}
		// Synchronous remote lookups still get deadline/cancellation
		// propagation when the table honors contexts; local tables keep the
		// allocation-free ApplyInto path below.
		if _, isCtx := lk.Table().(ops.CtxTable); isCtx {
			out, err := lk.ApplyCtx(r.ctx, ins)
			if err != nil {
				return fmt.Errorf("weld: step %s: %w", st.op.Name(), err)
			}
			r.vals[st.out] = out
			r.owned[st.out] = true
			r.have[st.out] = true
			return nil
		}
	}
	if ia, ok := st.op.(graph.IntoApplier); ok {
		if !r.owned[st.out] {
			r.vals[st.out] = value.Value{}
		}
		if err := ia.ApplyInto(ins, &r.vals[st.out], &r.scratch[si]); err != nil {
			return fmt.Errorf("weld: step %s: %w", st.op.Name(), err)
		}
	} else {
		out, err := st.op.Apply(ins)
		if err != nil {
			return fmt.Errorf("weld: step %s: %w", st.op.Name(), err)
		}
		r.vals[st.out] = out
	}
	r.owned[st.out] = true
	r.have[st.out] = true
	return nil
}

// pyScratch is the per-step driver buffer pair for interpreted-boundary
// crossings. It lives in the step's scratch cell, not on the run: parallel
// IFV workers execute disjoint steps, so per-step buffers stay race-free
// where run-level ones would not.
type pyScratch struct {
	boxed, outs []any
}

// runPythonStep crosses into the interpreted runtime: it unboxes the
// columnar inputs row by row, applies the operator's boxed path, and reboxes
// the results into a column. The marshaling time on both sides is the
// "driver" overhead of section 5.2. The out-driver reuses the step's boxed
// buffers across runs (operators do not retain their argument slice),
// mirroring the O(1)-conversion drivers the paper built.
func (r *BatchRun) runPythonStep(si int, ins []value.Value) error {
	st := &r.p.Steps[si]
	n := r.n
	ps, _ := r.scratch[si].(*pyScratch)
	if ps == nil {
		ps = &pyScratch{}
		r.scratch[si] = ps
	}
	// Driver out: columnar -> boxed argument rows.
	start := time.Now()
	ps.boxed = growScratch(ps.boxed, len(ins)*n)
	boxed := ps.boxed
	for row := 0; row < n; row++ {
		for i := range ins {
			boxed[row*len(ins)+i] = ins[i].Box(row)
		}
	}
	r.p.Prof.addDriver(time.Since(start).Seconds())

	// Interpreted execution. Operators with a ctx-aware boxed path (remote
	// lookups) see the run's request context, so deadlines reach the wire
	// even across the interpreted boundary.
	opStart := time.Now()
	ps.outs = growScratch(ps.outs, n)
	outs := ps.outs
	ca, hasCtx := st.op.(graph.CtxBoxedApplier)
	for row := 0; row < n; row++ {
		var out any
		var err error
		if hasCtx {
			out, err = ca.ApplyBoxedCtx(r.ctx, boxed[row*len(ins):(row+1)*len(ins)])
		} else {
			out, err = st.op.ApplyBoxed(boxed[row*len(ins) : (row+1)*len(ins)])
		}
		if err != nil {
			return fmt.Errorf("weld: python step %s: %w", st.op.Name(), err)
		}
		outs[row] = out
	}
	opSec := time.Since(opStart).Seconds()
	for _, id := range st.nodes {
		r.p.Prof.addNode(id, n, opSec/float64(len(st.nodes)))
	}

	// Driver in: boxed -> columnar, reusing the slot's previous column when
	// the state owns it.
	start = time.Now()
	if !r.owned[st.out] {
		r.vals[st.out] = value.Value{}
	}
	err := value.FromBoxedInto(outs[:n], &r.vals[st.out])
	// Drop the boxed references either way: they point into caller input
	// columns, and a pooled state must not extend their lifetime.
	clear(boxed)
	clear(outs)
	if err != nil {
		return fmt.Errorf("weld: python step %s: %w", st.op.Name(), err)
	}
	r.p.Prof.addDriver(time.Since(start).Seconds())

	r.owned[st.out] = true
	r.have[st.out] = true
	return nil
}

// computePreprocessing runs all preprocessing steps once per run.
func (r *BatchRun) computePreprocessing() error {
	if r.preDone {
		return nil
	}
	for si := range r.p.Steps {
		st := &r.p.Steps[si]
		if st.ifv == -1 && !st.spine {
			if r.have[st.out] {
				continue
			}
			if err := r.runStep(si); err != nil {
				return err
			}
		}
	}
	r.preDone = true
	return nil
}

// ComputeIFVs materializes the selected IFVs (by index), going through the
// per-IFV feature cache when one is attached. While async prefetches are
// outstanding, IFVs that do not wait on one compute first: their local CPU
// work overlaps the store round trips, and the prefetched IFVs join last,
// right where their output is consumed.
func (r *BatchRun) ComputeIFVs(idx []int) error {
	if err := r.computePreprocessing(); err != nil {
		return err
	}
	if r.hasPending() {
		for _, i := range idx {
			if !r.ifvPending(i) {
				if err := r.computeIFV(i); err != nil {
					return err
				}
			}
		}
		for _, i := range idx {
			if r.ifvPending(i) {
				if err := r.computeIFV(i); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for _, i := range idx {
		if err := r.computeIFV(i); err != nil {
			return err
		}
	}
	return nil
}

// computeIFV materializes one IFV (cached or direct), once.
func (r *BatchRun) computeIFV(i int) error {
	if r.ifvDone[i] {
		return nil
	}
	var t0 time.Time
	if r.tr != nil {
		t0 = time.Now()
	}
	var c *cache.Sharded
	if r.p.caches != nil {
		c = r.p.caches[i]
	}
	if c != nil {
		if err := r.computeIFVCached(i, c); err != nil {
			return err
		}
	} else {
		if err := r.computeIFVDirect(i); err != nil {
			return err
		}
	}
	if r.tr != nil {
		r.tr.Record(r.p.ifvLabels[i], t0)
	}
	r.ifvDone[i] = true
	return nil
}

// computeIFVDirect executes the IFV's generator steps over the whole batch.
func (r *BatchRun) computeIFVDirect(i int) error {
	for si := range r.p.Steps {
		st := &r.p.Steps[si]
		if st.ifv != i || r.have[st.out] {
			continue
		}
		if err := r.runStep(si); err != nil {
			return err
		}
	}
	return nil
}

// computeIFVCached serves rows from the IFV's sharded feature cache and
// computes only the misses. Cached entries hold the IFV's dense
// feature-vector rows, keyed by the length-prefixed encoding of the
// generator's raw sources (section 4.5). All per-call state lives in the
// run's per-IFV scratch, so a warm all-hit batch — and every warm point hit
// — performs zero heap allocations.
func (r *BatchRun) computeIFVCached(i int, c *cache.Sharded) error {
	ifv := r.p.A.IFVs[i]
	width := r.p.Widths[ifv.Root]
	cs := &r.cacheScr[i]
	cs.srcVals = growScratch(cs.srcVals, len(ifv.Sources))
	for j, s := range ifv.Sources {
		cs.srcVals[j] = r.vals[s]
	}
	if r.n == 1 {
		return r.computePointCached(i, c, width, cs)
	}

	out := feature.GrowDense(cs.dense, r.n, width)
	cs.dense = out
	cs.offs = growScratch(cs.offs, r.n+1)
	cs.hashes = growScratch(cs.hashes, r.n)
	cs.missRows = cs.missRows[:0]
	cs.keyBuf = cs.keyBuf[:0]
	cs.offs[0] = 0
	var t0 time.Time
	if r.tr != nil {
		t0 = time.Now()
	}
	for row := 0; row < r.n; row++ {
		cs.keyBuf = cache.AppendRowKey(cs.keyBuf, cs.srcVals, row)
		cs.offs[row+1] = len(cs.keyBuf)
		key := cs.keyBuf[cs.offs[row]:cs.offs[row+1]]
		cs.hashes[row] = cache.Hash64(key)
		if !c.CopyInto(cs.hashes[row], key, out.Row(row)) {
			cs.missRows = append(cs.missRows, row)
		}
	}
	if r.tr != nil {
		r.tr.Record(trace.StageCacheLookup, t0)
	}
	if len(cs.missRows) > 0 {
		var t1 time.Time
		if r.tr != nil {
			t1 = time.Now()
		}
		// Deduplicate misses within the batch: one computation per distinct
		// key, scattered to every row sharing it. This is where feature-level
		// caching beats end-to-end caching — repeated sub-keys recur across
		// data inputs even when full inputs never repeat (section 4.5).
		rowsByKey := make(map[string][]int, len(cs.missRows))
		var reprRows []int
		for _, row := range cs.missRows {
			key := cs.keyBuf[cs.offs[row]:cs.offs[row+1]]
			if _, seen := rowsByKey[string(key)]; !seen {
				reprRows = append(reprRows, row)
			}
			rowsByKey[string(key)] = append(rowsByKey[string(key)], row)
		}
		sub, err := r.gatherForIFV(i, reprRows)
		if err != nil {
			return err
		}
		if err := sub.computeIFVDirect(i); err != nil {
			return err
		}
		for k, repr := range reprRows {
			vec, err := appendRowVec(cs.rowBuf[:0], sub.vals[ifv.Root], k)
			if err != nil {
				return fmt.Errorf("weld: IFV %d output: %w", i, err)
			}
			cs.rowBuf = vec
			key := cs.keyBuf[cs.offs[repr]:cs.offs[repr+1]]
			for _, row := range rowsByKey[string(key)] {
				copy(out.Row(row), vec)
			}
			c.Put(cs.hashes[repr], key, vec)
		}
		sub.Close()
		if r.tr != nil {
			r.tr.Record(trace.StageCacheFill, t1)
		}
	}
	r.vals[ifv.Root] = value.NewMat(out)
	r.owned[ifv.Root] = true
	r.have[ifv.Root] = true
	return nil
}

// computePointCached is the compiled point fast path through the feature
// cache: encode the key into the run's reused buffer, hash it inline, and on
// a hit copy the cached row straight into the run's pooled output dense —
// zero heap allocations once warm. Misses are coalesced: concurrent point
// queries for the same hot key compute the feature vector once (critical for
// Zipfian traffic against remote/lookup features), with everyone else
// waiting and then reading the published entry.
func (r *BatchRun) computePointCached(i int, c *cache.Sharded, width int, cs *ifvCacheScratch) error {
	root := r.p.A.IFVs[i].Root
	cs.keyBuf = cache.AppendRowKey(cs.keyBuf[:0], cs.srcVals, 0)
	key := cs.keyBuf
	h := cache.Hash64(key)
	out := feature.GrowDense(cs.dense, 1, width)
	cs.dense = out
	var t0 time.Time
	if r.tr != nil {
		t0 = time.Now()
	}
	hit := c.CopyInto(h, key, out.Row(0))
	if r.tr != nil {
		r.tr.Record(trace.StageCacheLookup, t0)
	}
	if hit {
		r.vals[root] = value.NewMat(out)
		r.owned[root] = true
		r.have[root] = true
		return nil
	}
	var t1 time.Time
	if r.tr != nil {
		t1 = time.Now()
	}
	err := r.pointCacheFill(i, c, cs, out, key, h, root)
	if r.tr != nil {
		r.tr.Record(trace.StageCacheFill, t1)
	}
	return err
}

// pointCacheFill is the point-query miss path: coalesce with concurrent
// misses on the same key, compute as the leader or re-read the published
// entry as a waiter, falling back to direct computation when either fails.
func (r *BatchRun) pointCacheFill(i int, c *cache.Sharded, cs *ifvCacheScratch, out *feature.Dense, key []byte, h uint64, root graph.NodeID) error {
	leader, err := c.Coalesce(r.ctx, key, func() error {
		// The leader computes the generator directly on this run (the output
		// lands in the root slot, exactly like the uncached path) and
		// publishes the materialized row.
		if err := r.computeIFVDirect(i); err != nil {
			return err
		}
		vec, err := appendRowVec(cs.rowBuf[:0], r.vals[root], 0)
		if err != nil {
			return fmt.Errorf("weld: IFV %d output: %w", i, err)
		}
		cs.rowBuf = vec
		c.Put(h, key, vec)
		return nil
	})
	if err != nil {
		if leader {
			return err
		}
		// The leader failed, or this waiter's own context died while waiting
		// — neither may silently corrupt this request. Compute locally: a
		// dead context fails fast on the first plan-step check.
		return r.computeIFVDirect(i)
	}
	if leader {
		return nil // the root slot already holds the computed value
	}
	// PeekInto, not CopyInto: this lookup already counted its miss above,
	// and the coalesced re-read must not also count a hit.
	if c.PeekInto(h, key, out.Row(0)) {
		r.vals[root] = value.NewMat(out)
		r.owned[root] = true
		r.have[root] = true
		return nil
	}
	// The published entry was evicted before we could read it (tiny cache
	// under hostile churn): compute locally, without re-coalescing.
	return r.computeIFVDirect(i)
}

// appendRowVec materializes one row of an IFV root's value into dst
// (appending, buffer reused by the caller). Scalar columns widen to their
// 1-element vector form, matching Value.AsMatrix.
func appendRowVec(dst []float64, v value.Value, row int) ([]float64, error) {
	switch v.Kind {
	case value.Mat:
		return feature.RowDense(v.Mat, row, dst), nil
	case value.Floats:
		return append(dst, v.Floats[row]), nil
	case value.Ints:
		return append(dst, float64(v.Ints[row])), nil
	default:
		return dst, fmt.Errorf("cannot view %s as matrix", v.Kind)
	}
}

// gatherForIFV builds a sub-run over the given rows containing everything
// the IFV's generator reads: raw sources and preprocessing outputs.
func (r *BatchRun) gatherForIFV(i int, rows []int) (*BatchRun, error) {
	sub := r.p.getRun(r.ctx)
	sub.n = len(rows)
	sub.preDone = true
	for id, ok := range r.have {
		if ok {
			sub.setOwnedValue(id, r.vals[id], rows)
			sub.have[id] = true
		}
	}
	// The IFV's own root must be recomputed even if a previous pass stored a
	// value for it.
	root := r.p.A.IFVs[i].Root
	sub.have[root] = false
	return sub, nil
}

// SubsetRun returns a new run restricted to the given rows, carrying over
// every value already computed (gathered to the subset). Cascades use it to
// run the full model only on low-confidence rows; top-K uses it to re-rank
// the filtered subset. The sub-run is pooled like any other: Close it when
// nothing derived from it escapes.
func (r *BatchRun) SubsetRun(rows []int) *BatchRun {
	sub := r.p.getRun(r.ctx)
	sub.n = len(rows)
	sub.preDone = r.preDone
	copy(sub.ifvDone, r.ifvDone)
	for id, ok := range r.have {
		if ok {
			sub.setOwnedValue(id, r.vals[id], rows)
			sub.have[id] = true
		}
	}
	return sub
}

// Matrix computes and horizontally concatenates the selected IFVs in leaf
// order, applying elementwise spine operators per IFV (valid because they
// commute with concatenation). Selecting every IFV reproduces the full
// feature vector of the original pipeline.
//
// Matrix allocates its result; runs whose Matrix output escapes must not be
// Closed. Predict paths that consume the features in place use MatrixShared
// instead.
func (r *BatchRun) Matrix(idx []int) (feature.Matrix, error) {
	if err := r.ComputeIFVs(idx); err != nil {
		return nil, err
	}
	ordered := append([]int(nil), idx...)
	sortInts(ordered)
	mats := make([]feature.Matrix, len(ordered))
	for j, i := range ordered {
		m, err := r.vals[r.p.A.IFVs[i].Root].AsMatrix()
		if err != nil {
			return nil, fmt.Errorf("weld: IFV %d output: %w", i, err)
		}
		mats[j] = m
	}
	// Apply elementwise (non-concat) spine ops to the IFVs beneath them.
	for j, i := range ordered {
		for _, op := range r.p.ifvSpine[i] {
			v, err := op.Apply([]value.Value{value.NewMat(mats[j])})
			if err != nil {
				return nil, fmt.Errorf("weld: spine op %s: %w", op.Name(), err)
			}
			m, err := v.AsMatrix()
			if err != nil {
				return nil, err
			}
			mats[j] = m
		}
	}
	return feature.HStack(mats...), nil
}

// MatrixShared computes the same matrix as Matrix into run-owned pooled
// buffers: after warm-up it performs no heap allocation. The result is valid
// only until the next MatrixShared/PointMatrix call on this run or Close;
// it must be consumed (model prediction, row extraction) before either.
func (r *BatchRun) MatrixShared(idx []int) (feature.Matrix, error) {
	if r.p.spineFallback {
		// A non-elementwise spine operator is present; only the generic
		// Apply-based path can evaluate it.
		return r.Matrix(idx)
	}
	if err := r.ComputeIFVs(idx); err != nil {
		return nil, err
	}
	r.ordered = append(r.ordered[:0], idx...)
	ordered := r.ordered
	sortInts(ordered)

	total, allDense := 0, true
	for _, i := range ordered {
		root := r.p.A.IFVs[i].Root
		v := r.vals[root]
		switch v.Kind {
		case value.Floats, value.Ints:
			total++
		case value.Mat:
			total += v.Mat.Cols()
			if _, ok := v.Mat.(*feature.Dense); !ok {
				allDense = false
			}
		default:
			return nil, fmt.Errorf("weld: IFV %d output: cannot view %s as matrix", i, v.Kind)
		}
	}

	if allDense {
		dst := feature.GrowDense(r.hsDense, r.n, total)
		r.hsDense = dst
		off := 0
		for _, i := range ordered {
			root := r.p.A.IFVs[i].Root
			v := r.vals[root]
			w := 1
			if v.Kind == value.Mat {
				w = v.Mat.Cols()
			}
			for row := 0; row < r.n; row++ {
				seg := dst.Row(row)[off : off+w]
				switch v.Kind {
				case value.Floats:
					seg[0] = v.Floats[row]
				case value.Ints:
					seg[0] = float64(v.Ints[row])
				case value.Mat:
					copy(seg, v.Mat.(*feature.Dense).Row(row))
				}
				for _, op := range r.p.ifvSpine[i] {
					applyElementwise(op.(graph.Elementwise), seg)
				}
			}
			off += w
		}
		return dst, nil
	}

	// Sparse (or mixed) path: stream every row straight into a reused CSR
	// builder, applying elementwise spine ops per stored entry — their
	// sparse semantics (implicit zeros stay zero) by construction.
	b := &r.hsBuilder
	prev := r.hsCSR
	b.ResetFrom(total, prev)
	for row := 0; row < r.n; row++ {
		off := 0
		for _, i := range ordered {
			root := r.p.A.IFVs[i].Root
			v := r.vals[root]
			ew := r.p.ifvSpine[i]
			switch v.Kind {
			case value.Floats:
				b.Add(off, applySpineScalar(ew, v.Floats[row]))
				off++
			case value.Ints:
				b.Add(off, applySpineScalar(ew, float64(v.Ints[row])))
				off++
			case value.Mat:
				switch m := v.Mat.(type) {
				case *feature.Dense:
					// Skip zeros like the ForEachNZ-based HStack path did:
					// storing them would inflate nnz for mostly-zero dense
					// blocks (spine ops here are sparse-safe, f(0) == 0).
					for c, x := range m.Row(row) {
						if x != 0 {
							b.Add(off+c, applySpineScalar(ew, x))
						}
					}
				case *feature.CSR:
					cols, vals := m.RowView(row)
					for k, c := range cols {
						b.Add(off+c, applySpineScalar(ew, vals[k]))
					}
				default:
					m.ForEachNZ(row, func(c int, x float64) {
						b.Add(off+c, applySpineScalar(ew, x))
					})
				}
				off += v.Mat.Cols()
			}
		}
		b.EndRow()
	}
	if prev == nil {
		prev = b.Build()
	} else {
		b.BuildInto(prev)
	}
	r.hsCSR = prev
	return r.hsCSR, nil
}

// applySpineScalar folds a chain of elementwise spine ops over one value.
func applySpineScalar(ops []graph.Op, v float64) float64 {
	for _, op := range ops {
		v = op.(graph.Elementwise).ApplyScalar(v)
	}
	return v
}

// PointMatrix computes the selected IFVs of a single-row run and returns a
// pooled 1 x w dense matrix over the run's feature-vector buffer. After
// warm-up the call performs no heap allocation for fully compiled plans.
// The result is valid until the next PointMatrix/MatrixShared call on this
// run or Close. Calling it again with a superset of IFVs (the cascade
// resume) reuses everything already computed.
func (r *BatchRun) PointMatrix(idx []int) (feature.Matrix, error) {
	if r.n != 1 {
		return nil, fmt.Errorf("weld: point query got %d rows", r.n)
	}
	if r.p.spineFallback {
		m, err := r.Matrix(idx)
		if err != nil {
			return nil, err
		}
		return m, nil
	}
	if err := r.ComputeIFVs(idx); err != nil {
		return nil, err
	}
	r.ordered = append(r.ordered[:0], idx...)
	ordered := r.ordered
	sortInts(ordered)
	total := 0
	for _, i := range ordered {
		total += r.p.Widths[r.p.A.IFVs[i].Root]
	}
	if cap(r.vec) < total {
		r.vec = make([]float64, total)
	}
	vec := r.vec[:total]
	off := 0
	for _, i := range ordered {
		root := r.p.A.IFVs[i].Root
		w := r.p.Widths[root]
		seg := vec[off : off+w]
		v := r.vals[root]
		switch v.Kind {
		case value.Floats:
			seg[0] = v.Floats[0]
		case value.Ints:
			seg[0] = float64(v.Ints[0])
		case value.Mat:
			switch m := v.Mat.(type) {
			case *feature.Dense:
				copy(seg, m.Row(0))
			case *feature.CSR:
				for j := range seg {
					seg[j] = 0
				}
				cols, vals := m.RowView(0)
				for k, c := range cols {
					seg[c] = vals[k]
				}
			default:
				for j := range seg {
					seg[j] = 0
				}
				m.ForEachNZ(0, func(c int, x float64) { seg[c] = x })
			}
		default:
			return nil, fmt.Errorf("weld: IFV %d output: cannot view %s as matrix", i, v.Kind)
		}
		for _, op := range r.p.ifvSpine[i] {
			applyElementwise(op.(graph.Elementwise), seg)
		}
		off += w
	}
	r.mat1.SetData(1, total, vec)
	return r.mat1, nil
}

// AllIFVs returns the index list [0, len(IFVs)). The slice is shared and
// must not be mutated.
func (p *Program) AllIFVs() []int { return p.allIFVs }

// RunBatch compiles-and-executes the whole pipeline over a batch, returning
// the full feature matrix. The context is checked between plan steps, so
// cancelling it aborts a long batch promptly. The returned matrix escapes
// the run, so the state is left to the GC instead of the pool; predict
// paths that consume features in place use NewRun + MatrixShared + Close.
func (p *Program) RunBatch(ctx context.Context, inputs map[string]value.Value) (feature.Matrix, error) {
	start := time.Now()
	r, err := p.NewRun(ctx, inputs)
	if err != nil {
		return nil, err
	}
	m, err := r.Matrix(p.AllIFVs())
	p.Prof.addTotal(time.Since(start).Seconds())
	return m, err
}

// RunBatchShared executes the whole pipeline over a batch on a pooled run,
// returning the run together with its shared feature matrix. The caller
// consumes the matrix (e.g. model prediction) and then Closes the run to
// recycle every buffer. End-to-end timing is recorded like RunBatch, so the
// profiler's driver-overhead accounting is preserved.
func (p *Program) RunBatchShared(ctx context.Context, inputs map[string]value.Value) (*BatchRun, feature.Matrix, error) {
	start := time.Now()
	r, err := p.NewRun(ctx, inputs)
	if err != nil {
		return nil, nil, err
	}
	m, err := r.MatrixShared(p.AllIFVs())
	if err != nil {
		r.Close()
		return nil, nil, err
	}
	p.Prof.addTotal(time.Since(start).Seconds())
	return r, m, nil
}

// RunBatchSharded executes the pipeline data-parallel across workers, each
// handling a contiguous row shard (the paper's batch parallelization mode:
// different inputs end-to-end on different threads). Each shard runs on its
// own pooled state; the shard matrices are merged into a fresh result and
// the states recycled.
func (p *Program) RunBatchSharded(ctx context.Context, inputs map[string]value.Value, workers int) (feature.Matrix, error) {
	if !p.fitted {
		return nil, fmt.Errorf("weld: run before Fit")
	}
	// Validate presence and equal lengths up front: a mismatch must be an
	// error here, not an out-of-range panic inside a shard goroutine.
	_, n, err := p.resolveInputs(inputs)
	if err != nil {
		return nil, err
	}
	shards := parallel.Shard(n, workers)
	if len(shards) <= 1 {
		return p.RunBatch(ctx, inputs)
	}
	start := time.Now()
	runs := make([]*BatchRun, len(shards))
	mats := make([]feature.Matrix, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for w, sh := range shards {
		wg.Add(1)
		go func(w int, sh [2]int) {
			defer wg.Done()
			rows := make([]int, 0, sh[1]-sh[0])
			for i := sh[0]; i < sh[1]; i++ {
				rows = append(rows, i)
			}
			sub := make(map[string]value.Value, len(inputs))
			for k, v := range inputs {
				sub[k] = v.Gather(rows)
			}
			r, err := p.NewRun(ctx, sub)
			if err != nil {
				errs[w] = err
				return
			}
			runs[w] = r
			mats[w], errs[w] = r.MatrixShared(p.AllIFVs())
		}(w, sh)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	// VStack copies the shard matrices into the merged result, so the shard
	// states can be recycled immediately after.
	out := feature.VStack(mats...)
	for _, r := range runs {
		r.Close()
	}
	p.Prof.addTotal(time.Since(start).Seconds())
	return out, nil
}

// ComputeIFVsParallel computes the given IFVs with their generators
// distributed across workers by LPT over profiled costs (section 4.4:
// feature generators are computationally independent, so they run
// concurrently; static assignment avoids scheduling overhead). Feature
// generators are disjoint subgraphs, so each worker writes only its own
// generators' node slots and the shared state stays race-free.
func (r *BatchRun) ComputeIFVsParallel(idx []int, workers int) error {
	if workers <= 1 || len(idx) <= 1 {
		return r.ComputeIFVs(idx)
	}
	if err := r.computePreprocessing(); err != nil {
		return err
	}
	costs := make([]float64, len(idx))
	for j, i := range idx {
		costs[j] = r.p.Prof.IFVCost(r.p.A, i)
	}
	groups := parallel.Assign(costs, workers)
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for w, g := range groups {
		if len(g) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int, g []int) {
			defer wg.Done()
			ifvs := make([]int, len(g))
			for j, gi := range g {
				ifvs[j] = idx[gi]
			}
			errs[w] = r.ComputeIFVs(ifvs)
		}(w, g)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

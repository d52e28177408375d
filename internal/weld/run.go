package weld

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"willump/internal/cache"
	"willump/internal/feature"
	"willump/internal/graph"
	"willump/internal/model"
	"willump/internal/ops"
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
	// point says the state was acquired for a point run (see state.go).
	point bool

	// tr is the request's trace, extracted once from ctx at acquisition.
	// nil for unsampled requests: every hook below is guarded on it, so
	// the unsampled fast path stays allocation-free.
	tr *trace.Trace

	vals []value.Value // per-node computed values; sources prefilled
	have []bool

	ifvDone []bool
	// late[i] marks IFV i as waiting on a prefetch this run started: such
	// IFVs compute last, so local CPU work overlaps the store round trips.
	late []bool

	// Per-step reusable execution state.
	stepIns [][]value.Value
	scratch []any

	// Assembler output buffers (dense when every selected root is dense,
	// CSR otherwise, whatever the row count) and its per-call scratch.
	outDense   *feature.Dense
	outCSR     *feature.CSR
	outBuilder feature.CSRBuilder
	ordered    []int
	roots      []*value.Value

	// Score's output, the IFVs it reads in place on its fused path, the
	// weights the dot step it is running folds its rows into scores with
	// (see execStep), and the model scratch of its assembled path.
	scores  []float64
	inPlace []int
	dot     []float64
	mscr    model.Scratch

	// cacheScr[i] is IFV i's cached-execution scratch. Indexed per IFV so
	// ComputeIFVsParallel's parts (which own disjoint IFV sets) never share
	// a buffer.
	cacheScr []ifvCacheScratch

	// pending[j] is the outstanding async store prefetch for the program's
	// prefetch spec j, started by NewRun and joined (or canceled) exactly
	// once. Empty for plans without async remote lookups. Indexed per spec
	// — each spec's step lives in one IFV, so parallel IFV workers touch
	// disjoint entries.
	pending []ops.PendingLookup

	// misses and fills are a point run's remote-miss fan-out state (see
	// fillRemoteMisses), pooled with the run so that a fan-out allocates
	// only its goroutines.
	misses []remoteMiss
	fills  sync.WaitGroup

	// gathered[id] is the buffer a sub-run's copy of a slot it may not write
	// in place (a caller's column, an Apply-only operator's output) is
	// gathered into, kept across acquisitions so a warm SubsetRun allocates
	// nothing; gatheredSome says this acquisition wrote one, so Close has
	// caller strings to drop from them.
	gathered     []value.Value
	gatheredSome bool

	// fan is the run's fan-out state (shard.go); iota is the identity row
	// index its contiguous shards are cut from, and rowScr the buffer
	// RowScratch hands out. All three are pooled with the run.
	fan    fan
	iota   []int
	rowScr []int

	// kept[i] is the run's own buffer for IFV i's root, which ShardsKeep
	// writes the shards' rows into and then places in the root's slot. It
	// only ever holds that root, so it stays with the run across
	// acquisitions like any state-owned buffer.
	kept []value.Value
}

// remoteMiss is one remote IFV whose point cache probe missed: probed at t0
// (the start of its ifv:<i> span), filled with the outcome err.
type remoteMiss struct {
	ifv int
	t0  time.Time
	err error
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
// run: every subsequent call on the run observes it.
func (p *Program) NewRun(ctx context.Context, inputs map[string]value.Value) (*BatchRun, error) {
	if !p.fitted {
		return nil, fmt.Errorf("weld: run before Fit")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// One pass over the sources resolves them and decides the run's kind:
	// the first column's row count picks the idle states it is taken from,
	// and a one-row run over more than maxPointBytes of text moves to a
	// pooled state.
	var r *BatchRun
	size := 0
	n, err := p.resolve(inputs, func(sid graph.NodeID, v value.Value) {
		if r == nil {
			r = p.getRun(ctx, v.Len() == 1)
		}
		r.vals[sid], r.have[sid] = v, true
		size += textBytes(&v)
	})
	if err != nil {
		r.Close()
		return nil, err
	}
	if r.point && size > maxPointBytes {
		b := p.getRun(ctx, false)
		for _, sid := range p.G.Sources() {
			b.vals[sid], b.have[sid] = r.vals[sid], true
		}
		r.Close()
		r = b
	}
	r.n = n
	// Kick off the plan's async remote lookups before any local compute
	// runs, so the store round trips overlap CPU work. IFVs with a feature
	// cache are skipped: the cached path fetches only its misses, and
	// prefetching every key would defeat the cache.
	for j := range p.prefetch {
		sp := &p.prefetch[j]
		if p.caches != nil && p.caches[sp.ifv] != nil {
			continue
		}
		if v := r.vals[sp.src]; v.Kind == value.Ints {
			r.pending[j] = sp.at.StartLookup(ctx, v.Ints)
			r.late[sp.ifv] = true
		}
	}
	return r, nil
}

// Len returns the batch size.
func (r *BatchRun) Len() int { return r.n }

// Trace returns the request trace the run records into, nil when the
// request is not sampled.
func (r *BatchRun) Trace() *trace.Trace { return r.tr }

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

// execStep is runStep's body: it executes plan step si without tracing,
// through the operator kind Fuse resolved for it, writing the step's value
// through its slot's destination (see dest), or, while Score's fused path
// sets r.dot, folding a dot step's rows into r.scores (Program.dotSteps).
func (r *BatchRun) execStep(si int) error {
	st := &r.p.Steps[si]
	ins := r.stepIns[si]
	// The views may be caller columns: the idle state must not keep them.
	defer clear(ins)
	for i, in := range st.ins {
		if !r.have[in] {
			return fmt.Errorf("weld: step %d input %d not computed", st.out, in)
		}
		ins[i] = r.vals[in]
	}
	if !st.compiled {
		return r.runPythonStep(si, ins)
	}
	if r.dot != nil {
		return st.wrap(st.op.(*ops.FusedText).DotInto(ins, r.dot, r.scores, &r.scratch[si]))
	}
	out := r.dest(st.out)
	if lk := st.lookup; lk != nil {
		// Join an outstanding async prefetch here — where the lookup's
		// output is first consumed — bounded by the run's (request) context.
		if pi := st.pre; pi >= 0 && r.pending[pi] != nil {
			pd := r.pending[pi]
			r.pending[pi] = nil
			rows, err := pd.Wait(r.ctx)
			if err == nil {
				*out, err = lk.Materialize(rows, r.n)
			}
			return st.wrap(err)
		}
		// Synchronous remote lookups still get deadline/cancellation
		// propagation when the table honors contexts; local tables keep the
		// allocation-free ApplyInto path below.
		if st.ctxTable {
			var err error
			*out, err = lk.ApplyCtx(r.ctx, ins)
			return st.wrap(err)
		}
	}
	if st.into != nil {
		return st.wrap(st.into.ApplyInto(ins, out, &r.scratch[si]))
	}
	var err error
	*out, err = st.op.Apply(ins)
	return st.wrap(err)
}

// wrap names the step in an operator's error.
func (st *step) wrap(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("weld: step %s: %w", st.op.Name(), err)
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

	// Driver in: boxed -> columnar, reusing the slot's previous column.
	start = time.Now()
	err := value.FromBoxedInto(outs[:n], r.dest(st.out))
	// Drop the boxed references either way: they point into caller input
	// columns, and a pooled state must not extend their lifetime.
	clear(boxed)
	clear(outs)
	if err != nil {
		return fmt.Errorf("weld: python step %s: %w", st.op.Name(), err)
	}
	r.p.Prof.addDriver(time.Since(start).Seconds())
	return nil
}

// runIFVSteps executes IFV i's step list (laid out at Fuse, see
// layoutSteps), skipping every step whose output the run already holds: a
// preprocessing step another IFV ran first, or one the parent of this
// sub-run had computed. sharedOnly stops short of the generator's own steps.
func (r *BatchRun) runIFVSteps(i int, sharedOnly bool) error {
	for _, si := range r.p.ifvSteps[i] {
		st := &r.p.Steps[si]
		if r.have[st.out] || (sharedOnly && st.ifv >= 0) {
			continue
		}
		if err := r.runStep(si); err != nil {
			return err
		}
	}
	return nil
}

// computeIFVs materializes the selected IFVs (by index), each preceded by
// whatever preprocessing it needs and the run does not hold yet, going
// through the per-IFV feature cache when one is attached. A point run first
// fetches its remote IFVs' cache misses together (fillRemoteMisses). IFVs
// waiting on a prefetch this run started compute last: the others' local
// CPU work overlaps the store round trips, and the prefetched ones join
// right where their output is consumed.
func (r *BatchRun) computeIFVs(idx []int) error {
	if err := r.fillRemoteMisses(idx); err != nil {
		return err
	}
	return r.computeEach(idx)
}

// computeEach is computeIFVs without the remote-miss phase: what
// ComputeIFVsParallel's parts run concurrently on one run, each over its own
// IFVs.
func (r *BatchRun) computeEach(idx []int) error {
	deferred := false
	for _, i := range idx {
		if r.late[i] {
			deferred = true
		} else if err := r.computeIFV(i); err != nil {
			return err
		}
	}
	if deferred {
		for _, i := range idx {
			if err := r.computeIFV(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// clock reads the time for a span of a traced run; unsampled runs skip the
// clock read, and Record on their nil trace is a no-op.
func (r *BatchRun) clock() (t time.Time) {
	if r.tr != nil {
		t = time.Now()
	}
	return t
}

// computeIFV materializes one IFV (cached or direct), once. A cached point
// IFV is probed, then filled on a miss.
func (r *BatchRun) computeIFV(i int) error {
	if r.ifvDone[i] {
		return nil
	}
	t0 := r.clock()
	var c *cache.Sharded
	if r.p.caches != nil {
		c = r.p.caches[i]
	}
	var err error
	switch {
	case c == nil:
		err = r.runIFVSteps(i, false)
	case r.n == 1:
		if !r.probePoint(i, c) {
			err = r.pointCacheFill(i, c)
		}
	default:
		err = r.computeIFVCached(i, c)
	}
	if err != nil {
		return err
	}
	r.finishIFV(i, t0)
	return nil
}

// finishIFV marks IFV i done, closing its ifv:<i> span begun at t0.
func (r *BatchRun) finishIFV(i int, t0 time.Time) {
	r.tr.Record(r.p.ifvLabels[i], t0)
	r.ifvDone[i] = true
}

// fillRemoteMisses is a point run's first phase: it probes the cache of
// every requested remote IFV (Program.remote) not yet done and fetches the
// misses together, so their store round trips overlap instead of queuing one
// behind another. Two or more misses first run their shared preprocessing,
// once, then fill one per goroutine, the first on this one; every fill is
// joined before it returns, on every path, so a recycled run or trace never
// sees a late fill. This is safe for the reason ComputeIFVsParallel's point
// mode is: generators write disjoint node slots, per-IFV cache scratch and
// per-step scratch, and trace.Trace.Record is safe for concurrent use. The
// fills wait on the store rather than compute, so they take goroutines of
// their own, not the fan-out pool's GOMAXPROCS−1 workers: a fill would hold a
// worker for a round trip, and fills no worker took would queue behind each
// other.
func (r *BatchRun) fillRemoteMisses(idx []int) error {
	if r.n != 1 || r.p.caches == nil || len(r.p.prefetch) == 0 {
		return nil
	}
	r.misses = r.misses[:0]
	for _, i := range idx {
		c := r.p.caches[i]
		if c == nil || !r.p.remote[i] || r.ifvDone[i] {
			continue
		}
		t0 := r.clock()
		if r.probePoint(i, c) {
			r.finishIFV(i, t0)
		} else {
			r.misses = append(r.misses, remoteMiss{ifv: i, t0: t0})
		}
	}
	if len(r.misses) == 0 {
		return nil
	}
	if len(r.misses) > 1 {
		for _, m := range r.misses {
			if err := r.runIFVSteps(m.ifv, true); err != nil {
				return err
			}
		}
		for k := 1; k < len(r.misses); k++ {
			r.fills.Add(1)
			go func(k int) {
				defer r.fills.Done()
				r.fillMiss(k)
			}(k)
		}
	}
	r.fillMiss(0)
	r.fills.Wait()
	for _, m := range r.misses {
		if m.err != nil {
			return m.err
		}
	}
	return nil
}

// fillMiss fills remote miss k through the cache and, on success, marks its
// IFV done.
func (r *BatchRun) fillMiss(k int) {
	m := &r.misses[k]
	if m.err = r.pointCacheFill(m.ifv, r.p.caches[m.ifv]); m.err == nil {
		r.finishIFV(m.ifv, m.t0)
	}
}

// cacheScratch returns IFV i's cache scratch with its source-column views
// pointed at this run's columns, which the caller clears once it has
// encoded its keys.
func (r *BatchRun) cacheScratch(i int) *ifvCacheScratch {
	cs := &r.cacheScr[i]
	srcs := r.p.A.IFVs[i].Sources
	cs.srcVals = growScratch(cs.srcVals, len(srcs))
	for j, s := range srcs {
		cs.srcVals[j] = r.vals[s]
	}
	return cs
}

// computeIFVCached serves rows from the IFV's sharded feature cache and
// computes only the misses. Cached entries hold the IFV's dense
// feature-vector rows, keyed by the length-prefixed encoding of the
// generator's raw sources (section 4.5). All per-call state lives in the
// run's per-IFV scratch, so a warm all-hit batch performs zero heap
// allocations. Point runs take probePoint and pointCacheFill instead.
func (r *BatchRun) computeIFVCached(i int, c *cache.Sharded) error {
	ifv := r.p.A.IFVs[i]
	cs := r.cacheScratch(i)
	out := feature.GrowDense(cs.dense, r.n, r.p.Widths[ifv.Root])
	cs.dense = out
	cs.offs = growScratch(cs.offs, r.n+1)
	cs.hashes = growScratch(cs.hashes, r.n)
	cs.missRows = cs.missRows[:0]
	cs.keyBuf = cs.keyBuf[:0]
	cs.offs[0] = 0
	t0 := r.clock()
	for row := 0; row < r.n; row++ {
		cs.keyBuf = cache.AppendRowKey(cs.keyBuf, cs.srcVals, row)
		cs.offs[row+1] = len(cs.keyBuf)
		key := cs.keyBuf[cs.offs[row]:cs.offs[row+1]]
		cs.hashes[row] = cache.Hash64(key)
		if !c.CopyInto(cs.hashes[row], key, out.Row(row)) {
			cs.missRows = append(cs.missRows, row)
		}
	}
	clear(cs.srcVals)
	r.tr.Record(trace.StageCacheLookup, t0)
	if len(cs.missRows) > 0 {
		t1 := r.clock()
		if err := r.fillMisses(i, c, cs, out); err != nil {
			return err
		}
		r.tr.Record(trace.StageCacheFill, t1)
	}
	*r.dest(ifv.Root) = value.NewMat(out)
	return nil
}

// fillMisses computes IFV i for the batch rows the cache missed, on a
// sub-run over one representative row per distinct key — which also runs,
// on those rows alone, whatever preprocessing of the IFV's this run does not
// hold — scatters each vector to every row sharing the key, and publishes
// it. Deduplicating within the batch is where feature-level caching beats
// end-to-end caching — repeated sub-keys recur across data inputs even when
// full inputs never repeat (section 4.5).
func (r *BatchRun) fillMisses(i int, c *cache.Sharded, cs *ifvCacheScratch, out *feature.Dense) error {
	rowsByKey := make(map[string][]int, len(cs.missRows))
	var reprRows []int
	for _, row := range cs.missRows {
		key := cs.keyBuf[cs.offs[row]:cs.offs[row+1]]
		if _, seen := rowsByKey[string(key)]; !seen {
			reprRows = append(reprRows, row)
		}
		rowsByKey[string(key)] = append(rowsByKey[string(key)], row)
	}
	sub := r.SubsetRun(reprRows)
	defer sub.Close()
	if err := sub.runIFVSteps(i, false); err != nil {
		return err
	}
	for k, repr := range reprRows {
		vec, err := appendRowVec(cs.rowBuf[:0], sub.vals[r.p.A.IFVs[i].Root], k)
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
	return nil
}

// probePoint is the compiled point fast path through the feature cache:
// encode IFV i's key into the run's reused buffer, hash it inline, and on a
// hit copy the cached row straight into the run's pooled output dense and
// the IFV's root slot — zero heap allocations once warm. A miss leaves the
// key and its hash in the IFV's scratch for pointCacheFill.
func (r *BatchRun) probePoint(i int, c *cache.Sharded) bool {
	root := r.p.A.IFVs[i].Root
	cs := r.cacheScratch(i)
	cs.keyBuf = cache.AppendRowKey(cs.keyBuf[:0], cs.srcVals, 0)
	clear(cs.srcVals)
	cs.hashes = append(cs.hashes[:0], cache.Hash64(cs.keyBuf))
	cs.dense = feature.GrowDense(cs.dense, 1, r.p.Widths[root])
	t0 := r.clock()
	hit := c.CopyInto(cs.hashes[0], cs.keyBuf, cs.dense.Row(0))
	r.tr.Record(trace.StageCacheLookup, t0)
	if hit {
		*r.dest(root) = value.NewMat(cs.dense)
	}
	return hit
}

// pointCacheFill is the point-query miss path after probePoint: coalesce
// with concurrent misses on the same key — concurrent point queries for the
// same hot key compute the feature vector once (critical for Zipfian traffic
// against remote/lookup features) — compute as the leader or take the
// leader's vector as a waiter, falling back to direct computation when
// either fails.
func (r *BatchRun) pointCacheFill(i int, c *cache.Sharded) error {
	defer r.tr.Record(trace.StageCacheFill, r.clock())
	cs := &r.cacheScr[i]
	out, root := cs.dense, r.p.A.IFVs[i].Root
	leader, err := c.Coalesce(r.ctx, cs.hashes[0], cs.keyBuf, out.Row(0), func() ([]float64, error) {
		// The leader computes the generator directly on this run (the output
		// lands in the root slot, exactly like the uncached path) and hands
		// back the materialized row for the cache and the waiters.
		if err := r.runIFVSteps(i, false); err != nil {
			return nil, err
		}
		vec, err := appendRowVec(cs.rowBuf[:0], r.vals[root], 0)
		if err != nil {
			return nil, fmt.Errorf("weld: IFV %d output: %w", i, err)
		}
		cs.rowBuf = vec
		return vec, nil
	})
	if err != nil {
		if leader {
			return err
		}
		// The leader failed, or this waiter's own context died while waiting
		// — neither may silently corrupt this request. Compute locally: a
		// dead context fails fast on the first plan-step check.
		return r.runIFVSteps(i, false)
	}
	if !leader {
		*r.dest(root) = value.NewMat(out)
	}
	return nil // a leader's root slot already holds the computed value
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

// SubsetRun returns a new run restricted to the given rows, carrying over
// every value already computed (gathered to the subset). Cascades use it to
// run the full model only on low-confidence rows, top-K to re-rank the
// filtered subset, the feature cache to compute its misses and Shards to cut
// its shards; it is the one way a run over part of another run's rows is
// made. The sub-run is pooled like any other: Close it when nothing derived
// from it escapes.
func (r *BatchRun) SubsetRun(rows []int) *BatchRun { return r.subRun(rows, false) }

// subRun is SubsetRun. A slot the sub-run may never write in place — a
// caller's column, an Apply-only operator's output (see state.go) — is
// gathered into the sub-run's own gathered buffer, or, when contiguous says
// rows are consecutive and its kind has one, viewed (value.Slice); either
// way Close drops the slot unwritten.
func (r *BatchRun) subRun(rows []int, contiguous bool) *BatchRun {
	sub := r.p.getRun(r.ctx, r.point)
	sub.n = len(rows)
	copy(sub.ifvDone, r.ifvDone)
	for id, ok := range r.have {
		switch {
		case !ok:
		case r.p.reusable[id]:
			value.GatherInto(sub.dest(graph.NodeID(id)), r.vals[id], rows)
		default:
			v, view := value.Value{}, false
			if contiguous && len(rows) > 0 {
				v, view = r.vals[id].Slice(rows[0], rows[0]+len(rows))
			}
			if !view {
				value.GatherInto(&sub.gathered[id], r.vals[id], rows)
				v, sub.gatheredSome = sub.gathered[id], true
			}
			sub.vals[id], sub.have[id] = v, true
		}
	}
	return sub
}

// RowScratch returns a run-owned index buffer of length n, valid until
// Close, for building a row subset of the run (a cascade shard's hard rows)
// without allocating.
func (r *BatchRun) RowScratch(n int) []int {
	r.rowScr = growScratch(r.rowScr, n)
	return r.rowScr
}

// PointMatrix is MatrixShared for a point query: it insists on a single-row
// run, whose 1 x w matrix takes the batch layout, so a row with sparse roots
// is CSR and the model scores only its stored entries.
func (r *BatchRun) PointMatrix(idx []int) (feature.Matrix, error) {
	if r.n != 1 {
		return nil, fmt.Errorf("weld: point query got %d rows", r.n)
	}
	return r.MatrixShared(idx)
}

// MatrixShared is the one assembler: it computes the selected IFVs and
// horizontally concatenates them in leaf order into run-owned pooled
// buffers, applying elementwise spine operators per IFV (valid because they
// commute with concatenation). Selecting every IFV reproduces the full
// feature vector of the original pipeline; calling it again with a superset
// of IFVs (the cascade resume) reuses everything already computed. The
// output is dense iff every selected root is dense, for any row count;
// otherwise rows stream into a reused CSR builder. After warm-up it performs
// no heap allocation. The result is valid only until the next MatrixShared
// or PointMatrix call on this run or Close; it must be consumed (model
// prediction, row extraction) before either.
func (r *BatchRun) MatrixShared(idx []int) (feature.Matrix, error) {
	if err := r.computeIFVs(idx); err != nil {
		return nil, err
	}
	r.ordered = append(r.ordered[:0], idx...)
	ordered := r.ordered
	slices.Sort(ordered)

	total, allDense := 0, true
	r.roots = r.roots[:0]
	for _, i := range ordered {
		v := &r.vals[r.p.A.IFVs[i].Root]
		if r.p.spineFallback && len(r.p.ifvSpine[i]) > 0 {
			// A spine operator that is not elementwise, or whose in-place
			// sparse application would diverge from Apply: evaluate the
			// IFV's spine through Apply here, and emit the result as is.
			out := *v
			for _, op := range r.p.ifvSpine[i] {
				m, err := out.AsMatrix()
				if err != nil {
					return nil, fmt.Errorf("weld: IFV %d output: %w", i, err)
				}
				if out, err = op.Apply([]value.Value{value.NewMat(m)}); err != nil {
					return nil, fmt.Errorf("weld: spine op %s: %w", op.Name(), err)
				}
			}
			v = &out
		}
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
		r.roots = append(r.roots, v)
	}

	var dst *feature.Dense
	b := &r.outBuilder
	if allDense {
		dst = feature.GrowDense(r.outDense, r.n, total)
		r.outDense = dst
	} else {
		b.ResetFrom(total, r.outCSR)
	}
	for row := 0; row < r.n; row++ {
		off := 0
		for j, i := range ordered {
			var spine []graph.Op
			if !r.p.spineFallback {
				spine = r.p.ifvSpine[i]
			}
			if dst != nil {
				off += writeDense(dst.Row(row)[off:], r.roots[j], row, spine)
			} else {
				off += writeSparse(b, off, r.roots[j], row, spine)
			}
		}
		if dst == nil {
			b.EndRow()
		}
	}
	if dst != nil {
		return dst, nil
	}
	if r.outCSR == nil {
		r.outCSR = b.Build()
	} else {
		b.BuildInto(r.outCSR)
	}
	return r.outCSR, nil
}

// writeDense writes row of root value v (a scalar column or a dense
// matrix), with the elementwise spine folded over it, into the head of seg
// and returns its width.
func writeDense(seg []float64, v *value.Value, row int, spine []graph.Op) int {
	switch v.Kind {
	case value.Floats:
		seg = seg[:1]
		seg[0] = v.Floats[row]
	case value.Ints:
		seg = seg[:1]
		seg[0] = float64(v.Ints[row])
	case value.Mat:
		seg = seg[:v.Mat.Cols()]
		copy(seg, v.Mat.(*feature.Dense).Row(row))
	}
	for _, op := range spine {
		ew := op.(graph.Elementwise)
		for k, x := range seg {
			seg[k] = ew.ApplyScalar(x)
		}
	}
	return len(seg)
}

// writeSparse streams row of root value v into the CSR builder at column
// offset off and returns its width. A CSR row with no spine to apply moves
// as one block (CSRBuilder.AppendRow); otherwise entries go one at a time,
// and spine ops apply per stored entry — their sparse semantics (implicit
// zeros stay zero) by construction.
func writeSparse(b *feature.CSRBuilder, off int, v *value.Value, row int, spine []graph.Op) int {
	switch v.Kind {
	case value.Floats:
		b.Add(off, applySpineScalar(spine, v.Floats[row]))
	case value.Ints:
		b.Add(off, applySpineScalar(spine, float64(v.Ints[row])))
	case value.Mat:
		switch m := v.Mat.(type) {
		case *feature.Dense:
			// Skip zeros: storing them would inflate nnz for mostly-zero
			// dense blocks (spine ops here are sparse-safe, f(0) == 0).
			for c, x := range m.Row(row) {
				if x != 0 {
					b.Add(off+c, applySpineScalar(spine, x))
				}
			}
		case *feature.CSR:
			cols, vals := m.RowView(row)
			if len(spine) == 0 {
				b.AppendRow(off, cols, vals)
				break
			}
			for k, c := range cols {
				b.Add(off+c, applySpineScalar(spine, vals[k]))
			}
		}
		return v.Mat.Cols()
	}
	return 1
}

// applySpineScalar folds a chain of elementwise spine ops over one value.
func applySpineScalar(ops []graph.Op, v float64) float64 {
	for _, op := range ops {
		v = op.(graph.Elementwise).ApplyScalar(v)
	}
	return v
}

// Score returns m's score of every row of the run over the IFVs idx: what
// model.ScoreRow gives each row of MatrixShared(idx), to the bit. The slice
// is the run's, valid until the next Score or Close, which also invalidate
// MatrixShared's result.
//
// A linear model (model.Linear) takes its dot product where the features
// are made when some IFV of idx has a dot step (Program.dotSteps) the run
// has not computed and no feature cache: the step adds each row's entries
// times their weights to the row's running sum instead of emitting the row,
// the other IFVs add the entries MatrixShared stores for them, IFV by IFV
// in MatrixShared's column order, and the fused IFVs stay uncomputed.
// Other models, and plans whose spine needs Apply, score MatrixShared(idx).
func (r *BatchRun) Score(idx []int, m model.Scorer) ([]float64, error) {
	r.scores = growScratch(r.scores, r.n)
	if m.Linear != nil && !r.p.spineFallback {
		for _, i := range idx {
			if r.dotStep(i) >= 0 {
				return r.scores, r.scoreFused(idx, m.Linear)
			}
		}
	}
	x, err := r.MatrixShared(idx)
	if err != nil {
		return nil, err
	}
	for k := range r.scores {
		r.scores[k] = m.ScoreRow(x, k, &r.mscr)
	}
	return r.scores, nil
}

// dotStep returns IFV i's dot step when Score would take its dot product
// through it on this run, else -1.
func (r *BatchRun) dotStep(i int) int {
	if r.ifvDone[i] || (r.p.caches != nil && r.p.caches[i] != nil) {
		return -1
	}
	return r.p.dotSteps[i]
}

// scoreFused is Score's fused path for lin, whose weights cover the columns
// (Load checks a model's width against its plan's).
func (r *BatchRun) scoreFused(idx []int, lin model.Linear) error {
	r.ordered = append(r.ordered[:0], idx...)
	slices.Sort(r.ordered)
	r.inPlace = r.inPlace[:0]
	for _, i := range r.ordered {
		if r.dotStep(i) < 0 {
			r.inPlace = append(r.inPlace, i)
		}
	}
	if err := r.computeIFVs(r.inPlace); err != nil {
		return err
	}
	if r.outCSR == nil {
		r.outCSR = new(feature.CSR)
	}
	clear(r.scores)
	w, off := lin.Weights(), 0
	for _, i := range r.ordered {
		root := r.p.A.IFVs[i].Root
		n := r.p.Widths[root]
		if si := r.dotStep(i); si >= 0 {
			t0 := r.clock()
			if err := r.runIFVSteps(i, true); err != nil {
				return err
			}
			r.dot = w[off : off+n]
			err := r.runStep(si)
			if r.dot = nil; err != nil {
				return err
			}
			r.tr.Record(r.p.ifvLabels[i], t0)
		} else {
			// The rows MatrixShared stores for the IFV, through its writer.
			b := &r.outBuilder
			b.ResetFrom(n, r.outCSR)
			for row := range r.scores {
				writeSparse(b, 0, &r.vals[root], row, r.p.ifvSpine[i])
				b.EndRow()
			}
			b.BuildInto(r.outCSR)
			for row := range r.scores {
				cols, vals := r.outCSR.RowView(row)
				for k, c := range cols {
					r.scores[row] += vals[k] * w[off+c]
				}
			}
		}
		off += n
	}
	b := lin.Bias()
	for k, z := range r.scores {
		r.scores[k] = lin.Link(z + b)
	}
	return nil
}

// AllIFVs returns the index list [0, len(IFVs)). The slice is shared and
// must not be mutated.
func (p *Program) AllIFVs() []int { return p.allIFVs }

// RunBatch compiles-and-executes the whole pipeline over a batch, returning
// the full feature matrix as a copy the caller owns. The context is checked
// between plan steps, so cancelling it aborts a long batch promptly. This is
// the one place end-to-end time is recorded for the profiler's
// driver-overhead accounting. Predict paths consume features in place
// (NewRun + MatrixShared + Close) and record no end-to-end time, but a plan
// with a non-compilable step still writes the profile, and takes its lock,
// on every call: runPythonStep adds its node and driver times (the credit
// pipeline's ops.Ratio, for one). ROADMAP item 1 stage A freezes the cost
// model at Optimize and deletes those writes.
func (p *Program) RunBatch(ctx context.Context, inputs map[string]value.Value) (feature.Matrix, error) {
	start := time.Now()
	r, err := p.NewRun(ctx, inputs)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	m, err := r.MatrixShared(p.AllIFVs())
	if err != nil {
		return nil, err
	}
	rows := make([]int, r.n)
	for i := range rows {
		rows[i] = i
	}
	out := m.Gather(rows)
	p.Prof.addTotal(time.Since(start).Seconds())
	return out, nil
}

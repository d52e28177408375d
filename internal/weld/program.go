// Package weld implements the compilation and execution substrate that plays
// the role of the Weld IR and runtime in the paper (sections 3 and 5.2). A
// transformation graph compiles into a Program: nodes are block-sorted to
// minimize language transitions, compilable single-consumer chains are fused
// through parameterized templates, and two executors evaluate the result:
//
//   - the compiled executor: typed columnar batches, fused operators, zero
//     per-row boxing — the optimized pipeline;
//   - the interpreted executor: row-at-a-time evaluation over boxed values
//     with per-node dynamic dispatch — the stand-in for the original Python
//     pipeline, whose costs (boxing, per-row allocation, no fusion) mirror
//     CPython's.
//
// The Program also hosts the per-node profiler whose measurements become the
// computational-cost side of the cascades cost model, the per-IFV feature
// caches, and the subset/resume execution used by cascades and top-K
// serving.
package weld

import (
	"fmt"
	"slices"
	"strconv"

	"willump/internal/cache"
	"willump/internal/graph"
	"willump/internal/ops"
	"willump/internal/value"
)

// step is one unit of compiled execution: a single operator or a fused chain
// standing in for several original nodes.
type step struct {
	op    graph.Op
	out   graph.NodeID   // node id whose value this step produces
	ins   []graph.NodeID // input node ids
	nodes []graph.NodeID // original nodes this step covers (len > 1 if fused)
	ifv   int            // index of the IFV whose generator contains this step; -1 for preprocessing
	spine bool           // true for spine (concat / elementwise) steps
	label string         // precomputed trace span label ("step:<op>"), so recording allocates nothing
	pre   int            // index into Program.prefetch when the step's lookup can prefetch, else -1; set by Fuse

	// The operator's kind, resolved at Fuse so that a run asserts nothing;
	// the interfaces and the lookup are nil when the op is not one.
	compiled bool
	into     graph.IntoApplier
	lookup   *ops.Lookup
	ctxTable bool
}

// Program is a compiled ML inference pipeline: the optimized executable the
// paper's compilation stage returns.
type Program struct {
	G *graph.Graph
	A *graph.Analysis

	// Order is the block-sorted node order used by unfused (profiling)
	// execution.
	Order []graph.NodeID
	// Steps is the fused compiled plan in execution order. ifvSteps[i]
	// indexes into it: everything IFV i needs, in execution order — the
	// preprocessing steps its generator descends from (step.ifv < 0, shared
	// with the other IFVs descending from them), then the generator's own
	// steps. Preprocessing is demand-driven: no step runs ahead of the first
	// IFV that needs it, a run skips steps whose output it already holds,
	// and so a shared step runs once per run, on that run's rows only.
	// reusable[id] says whether node slot id's previous buffer may be
	// written over (the ownership rule of state.go). Both are laid out by
	// Fuse.
	Steps    []step
	ifvSteps [][]int
	reusable []bool
	// borrowed lists the node slots that hold values the run does not own:
	// the sources and the outputs of steps that are not reusable. Close
	// drops them. Laid out by Fuse.
	borrowed []graph.NodeID

	// Widths maps IFV roots to output widths; set by Fit.
	Widths map[graph.NodeID]int
	// Spans are per-IFV column spans in the full feature vector; set by Fit.
	Spans []graph.Span

	// Prof accumulates node timings during Fit (the cascades cost model)
	// and driver marshaling time during interpreted-boundary crossings.
	Prof *Profile
	// ifvCost[i] is IFV i's profiled per-row cost in seconds, read from Prof
	// at Fuse so a fan-out sizes itself without taking the profile's lock.
	ifvCost []float64

	// Workers caps the threads one query's fan-out uses (shard.go): 0 means
	// GOMAXPROCS, 1 runs every query sequentially, n at most n. Set it
	// before the program serves.
	Workers int
	// fanOutForced lifts the fan-out's work gate (ForceFanOut).
	fanOutForced bool

	// live, when non-nil, is the shadow profile: traced (head-sampled)
	// production requests accumulate per-node timings here, so the cost
	// model can be re-fit from live traffic instead of training-time
	// microbenchmarks. Enabled by EnableLiveProfile; nil costs nothing.
	live *Profile

	// ifvLabels[i] is IFV i's precomputed trace span label ("ifv:<i>").
	ifvLabels []string

	// caches[i], when non-nil, is the sharded feature-level cache for IFV i.
	// cacheSpecs records the plan the caches were built from, so artifacts
	// can persist and replay it without re-deriving it from training data.
	caches     []*cache.Sharded
	cacheSpecs []CacheSpec

	// runs recycles run states shaped for the fused plan (see state.go).
	// Installed by Fuse; nil before the program is fitted.
	runs *runList

	// ifvSpine[i] lists the non-concat spine operators applicable to IFV i,
	// in spine order; precomputed so the assembler needs no per-call
	// ancestor analysis. spineFallback is true when any of them does not
	// implement graph.Elementwise, forcing the generic Apply-based branch.
	ifvSpine      [][]graph.Op
	spineFallback bool

	// allIFVs is the cached [0, len(IFVs)) index list (shared, read-only).
	allIFVs []int

	// dotSteps[i] is IFV i's one generator step when it is an
	// ops.FusedText whose rows fold into a dot product (Dots) and no spine
	// operator applies to the IFV, else -1 (see BatchRun.Score).
	dotSteps []int

	// prefetch lists the plan's async remote-lookup steps: single-node
	// Lookup steps keyed directly by a source column whose table supports
	// ops.AsyncTable. A run kicks these fetches off before local feature
	// compute begins, so the store round trip overlaps CPU work.
	// Laid out by Fuse (each such step's pre field indexes it); nil before.
	prefetch []prefetchSpec
	// remote[i] says IFV i owns a prefetch spec. A cached remote IFV does
	// not prefetch; a point run fetches its cache misses together instead
	// (BatchRun.fillRemoteMisses). storeBound[i] says IFV i's generator looks
	// up a remote table at all (one taking a context or able to prefetch):
	// row shards would split its one multi-get per batch into one per shard
	// (see Shards). Both laid out by Fuse.
	remote     []bool
	storeBound []bool

	fitted bool
}

// prefetchSpec is one async-prefetchable lookup step.
type prefetchSpec struct {
	ifv int            // IFV whose generator contains the step
	src graph.NodeID   // the source node carrying the key column
	at  ops.AsyncTable // the step's table, asserted once at fuse time
}

// Compile builds a Program from a transformation graph: analysis and block
// sorting. The plan's steps fuse fitted operators, so Compile leaves them to
// Fuse, which Fit (and Restore) calls.
func Compile(g *graph.Graph) (*Program, error) {
	a, err := graph.Analyze(g)
	if err != nil {
		return nil, fmt.Errorf("weld: %w", err)
	}
	p := &Program{
		G:     g,
		A:     a,
		Order: graph.BlockSort(g),
		Prof:  NewProfile(),
	}
	p.allIFVs = make([]int, len(a.IFVs))
	p.ifvLabels = make([]string, len(a.IFVs))
	for i := range p.allIFVs {
		p.allIFVs[i] = i
		p.ifvLabels[i] = "ifv:" + strconv.Itoa(i)
	}
	p.buildSpineIndex()
	return p, nil
}

// buildSpineIndex precomputes, per IFV, the chain of non-concat spine
// operators that apply to it (the elementwise transforms the assembler folds
// over each IFV's output before concatenation).
func (p *Program) buildSpineIndex() {
	p.ifvSpine = make([][]graph.Op, len(p.A.IFVs))
	p.spineFallback = false
	for _, sid := range p.A.Spine {
		op := p.G.Node(sid).Op
		if _, isConcat := op.(*ops.Concat); isConcat {
			continue
		}
		if _, ok := op.(graph.Elementwise); !ok {
			p.spineFallback = true
		} else if ss, ok := op.(interface{ SparseSafe() bool }); ok && !ss.SparseSafe() {
			// The op's in-place sparse application would diverge from its
			// Apply semantics (e.g. a clip whose bounds exclude zero); keep
			// such plans on the generic path.
			p.spineFallback = true
		}
		anc := p.G.AncestorsOf(sid)
		for i, ifv := range p.A.IFVs {
			if anc[ifv.Root] {
				p.ifvSpine[i] = append(p.ifvSpine[i], op)
			}
		}
	}
}

// buildSteps constructs the execution plan, fusing compilable
// single-consumer chains.
func (p *Program) buildSteps() {
	g, a := p.G, p.A
	spine := make(map[graph.NodeID]bool)
	for _, id := range a.Spine {
		spine[id] = true
	}
	consumed := make(map[graph.NodeID]bool) // nodes folded into a fused step

	var steps []step
	order := p.Order
	for idx := 0; idx < len(order); idx++ {
		id := order[idx]
		n := g.Node(id)
		if n.IsSource() || consumed[id] {
			continue
		}
		st := step{op: n.Op, out: id, ins: n.Inputs, nodes: []graph.NodeID{id}, ifv: a.IFVOf(id), spine: spine[id]}
		if !spine[id] {
			chainNodes, chainOps := p.maximalChain(id)
			if len(chainNodes) > 1 {
				if fused, ok := ops.FuseTextChain(chainOps); ok {
					last := chainNodes[len(chainNodes)-1]
					st = step{
						op:    fused,
						out:   last,
						ins:   n.Inputs,
						nodes: chainNodes,
						ifv:   a.IFVOf(last),
						spine: false,
					}
					for _, cn := range chainNodes[1:] {
						consumed[cn] = true
					}
				}
			}
		}
		st.label = "step:" + st.op.Name()
		steps = append(steps, st)
	}
	// Fused steps may produce their output before other plan entries expect
	// it; re-sort steps topologically by produced node availability.
	p.Steps = topoSortSteps(steps, g)
}

// maximalChain extends a linear chain downstream from id while each node has
// exactly one consumer, the consumer's sole input is the chain, and both
// nodes stay within the same IFV/preprocessing region.
func (p *Program) maximalChain(id graph.NodeID) ([]graph.NodeID, []graph.Op) {
	g, a := p.G, p.A
	nodes := []graph.NodeID{id}
	ops_ := []graph.Op{g.Node(id).Op}
	cur := id
	for {
		consumers := g.Consumers(cur)
		if len(consumers) != 1 {
			break
		}
		next := consumers[0]
		n := g.Node(next)
		if len(n.Inputs) != 1 || n.Inputs[0] != cur {
			break
		}
		if n.Op.Commutative() {
			break // never fuse into the spine
		}
		if a.IFVOf(next) != a.IFVOf(cur) && a.IFVOf(cur) != -1 {
			break
		}
		nodes = append(nodes, next)
		ops_ = append(ops_, n.Op)
		cur = next
	}
	return nodes, ops_
}

// topoSortSteps orders steps so every step's inputs are produced first
// (inputs are either sources or other steps' outputs).
func topoSortSteps(steps []step, g *graph.Graph) []step {
	produced := make(map[graph.NodeID]int, len(steps)) // node -> step index
	for i, st := range steps {
		produced[st.out] = i
	}
	var order []step
	done := make(map[graph.NodeID]bool)
	var visit func(i int)
	visiting := make(map[int]bool)
	visit = func(i int) {
		if visiting[i] {
			return // cycle cannot happen in a DAG; defensive
		}
		visiting[i] = true
		for _, in := range steps[i].ins {
			if g.Node(in).IsSource() || done[in] {
				continue
			}
			if j, ok := produced[in]; ok {
				visit(j)
			}
		}
		if !done[steps[i].out] {
			done[steps[i].out] = true
			order = append(order, steps[i])
		}
		visiting[i] = false
	}
	for i := range steps {
		visit(i)
	}
	return order
}

// Fuse builds the plan, fusing chains. It requires fitted operators and is
// called automatically at the end of Fit (and Restore).
// Fusing also installs the run-state free list for the final plan shape and
// reads the profiled IFV costs the fan-out gate uses.
func (p *Program) Fuse() {
	p.buildSteps()
	p.layoutSteps()
	p.initPool()
	p.ifvCost = make([]float64, len(p.A.IFVs))
	for i := range p.ifvCost {
		p.ifvCost[i] = p.Prof.IFVCost(p.A, i)
	}
}

// layoutSteps decides, once per fused plan, everything a run would otherwise
// rediscover per call: which steps each IFV needs (graph.ExecutionOrder's
// answer for that IFV alone, mapped to the steps producing those nodes),
// which node slots hold state-owned buffers (a step that writes through
// ApplyInto or the interpreted driver; see state.go), which IFVs' generators
// fold into a linear model's dot product (dotSteps), which IFVs look up a
// remote table, and which lookup steps can prefetch — a Lookup whose only
// input is a raw source (its key column is available the moment a run
// starts) and whose table can begin a fetch without blocking. Plans without
// such steps get an empty prefetch index and pay nothing at run time.
func (p *Program) layoutSteps() {
	p.ifvSteps = make([][]int, len(p.A.IFVs))
	p.reusable = make([]bool, p.G.NumNodes())
	p.prefetch = nil
	p.remote = make([]bool, len(p.A.IFVs))
	p.storeBound = make([]bool, len(p.A.IFVs))
	producer := make(map[graph.NodeID]int, len(p.Steps))
	for si := range p.Steps {
		producer[p.Steps[si].out] = si
	}
	for i := range p.ifvSteps {
		// A fused step stands for its whole chain: only its last node has a
		// producer, and the nodes order topologically, so the list executes
		// in order.
		for _, id := range p.A.ExecutionOrder(p.G, []int{i}) {
			if si, ok := producer[id]; ok {
				p.ifvSteps[i] = append(p.ifvSteps[i], si)
			}
		}
	}
	p.dotSteps = make([]int, len(p.A.IFVs))
	for i, steps := range p.ifvSteps {
		p.dotSteps[i] = -1
		if len(steps) == 0 || len(p.ifvSpine[i]) > 0 {
			continue
		}
		last := steps[len(steps)-1]
		f, ok := p.Steps[last].op.(*ops.FusedText)
		if ok && f.Dots() && !slices.ContainsFunc(steps[:len(steps)-1], func(si int) bool { return p.Steps[si].ifv >= 0 }) {
			p.dotSteps[i] = last
		}
	}
	p.borrowed = append([]graph.NodeID(nil), p.G.Sources()...)
	for si := range p.Steps {
		st := &p.Steps[si]
		st.compiled = st.op.Compilable()
		st.into, _ = st.op.(graph.IntoApplier)
		if p.reusable[st.out] = st.into != nil || !st.compiled; !p.reusable[st.out] {
			p.borrowed = append(p.borrowed, st.out)
		}

		st.pre = -1
		st.lookup, _ = st.op.(*ops.Lookup)
		if st.lookup == nil {
			continue
		}
		_, st.ctxTable = st.lookup.Table().(ops.CtxTable)
		at, isAsync := st.lookup.Table().(ops.AsyncTable)
		if st.ifv < 0 {
			continue
		}
		if st.ctxTable || isAsync {
			p.storeBound[st.ifv] = true
		}
		if isAsync && len(st.ins) == 1 && p.G.Node(st.ins[0]).IsSource() {
			st.pre = len(p.prefetch)
			p.prefetch = append(p.prefetch, prefetchSpec{ifv: st.ifv, src: st.ins[0], at: at})
			p.remote[st.ifv] = true
		}
	}
}

// CacheSpec assigns one IFV a feature-level cache of the given entry
// capacity (<= 0 for unbounded). The statistically-aware cache planner in
// internal/core produces these from profiled generator costs and
// training-set key reuse; artifacts persist them so deployments replay the
// same plan.
type CacheSpec struct {
	IFV      int
	Capacity int
}

// EnableFeatureCachingSpecs attaches a sharded feature-level cache per spec,
// replacing any previous caching configuration. Specs naming out-of-range
// IFVs are ignored.
func (p *Program) EnableFeatureCachingSpecs(specs []CacheSpec) {
	p.caches = make([]*cache.Sharded, len(p.A.IFVs))
	p.cacheSpecs = p.cacheSpecs[:0]
	for _, sp := range specs {
		if sp.IFV < 0 || sp.IFV >= len(p.A.IFVs) {
			continue
		}
		p.caches[sp.IFV] = cache.NewSharded(sp.Capacity, 0)
		p.cacheSpecs = append(p.cacheSpecs, sp)
	}
}

// DisableFeatureCaching removes all feature-level caches.
func (p *Program) DisableFeatureCaching() {
	p.caches = nil
	p.cacheSpecs = nil
}

// CacheSpecs returns the active caching plan (nil when caching is off). The
// slice is shared; callers must not mutate it.
func (p *Program) CacheSpecs() []CacheSpec { return p.cacheSpecs }

// FeatureCacheStats sums counters over all feature-level caches.
func (p *Program) FeatureCacheStats() cache.Stats {
	var out cache.Stats
	for _, c := range p.caches {
		if c != nil {
			s := c.Stats()
			out.Hits += s.Hits
			out.Misses += s.Misses
			out.Evictions += s.Evictions
			out.Coalesced += s.Coalesced
			out.Rejected += s.Rejected
		}
	}
	return out
}

// IFVCacheStats returns IFV i's cache counters and whether it has a cache.
func (p *Program) IFVCacheStats(i int) (cache.Stats, bool) {
	if p.caches == nil || i < 0 || i >= len(p.caches) || p.caches[i] == nil {
		return cache.Stats{}, false
	}
	return p.caches[i].Stats(), true
}

// EnableLiveProfile turns on shadow profiling: traced requests accumulate
// per-node timings into a live profile, queryable with LiveProfile and
// folded into the cost model with AdoptLiveProfile. Idempotent.
func (p *Program) EnableLiveProfile() {
	if p.live == nil {
		p.live = NewProfile()
	}
}

// LiveProfile returns a snapshot of the shadow profile accumulated from
// traced production traffic, or nil when shadow profiling is disabled.
func (p *Program) LiveProfile() *Profile {
	if p.live == nil {
		return nil
	}
	return p.live.Clone()
}

// AdoptLiveProfile drains the shadow profile into the cost model (Prof),
// re-fitting profiled per-node costs from production traffic — the
// continuous-profiling feedback loop. Draining (rather than copying) means
// repeated adoption never double-counts a measurement. Reports whether any
// live measurements were adopted.
func (p *Program) AdoptLiveProfile() bool {
	if p.live == nil {
		return false
	}
	drained := p.live.drain()
	if len(drained.nodeSeconds) == 0 {
		return false
	}
	p.Prof.Merge(drained)
	return true
}

// Fitted reports whether Fit has completed.
func (p *Program) Fitted() bool { return p.fitted }

// CloneRuntime returns a runtime clone of a fitted program for trialing an
// alternative plan (a canary candidate) beside the original. The clone
// shares everything that is read-only at inference time — graph, analysis,
// fused steps and their layout, fitted operators, spine/prefetch indexes —
// but owns its own mutable runtime state: a copied cost model, fresh feature
// caches built from the same plan (so the candidate's hit counters don't
// pollute the incumbent's), a fresh run-state free list (idle states hold
// per-program cache references), and its own live-profile accumulator when
// the original had one.
func (p *Program) CloneRuntime() *Program {
	c := *p
	c.Prof, c.live, c.fanOutForced = p.Prof.Clone(), nil, false
	c.caches, c.cacheSpecs = nil, nil
	if p.live != nil {
		c.live = NewProfile()
	}
	if len(p.cacheSpecs) > 0 {
		c.EnableFeatureCachingSpecs(p.cacheSpecs) // into fresh slices: c's are nil
	}
	if p.runs != nil {
		c.initPool()
	}
	return &c
}

// resolveInputs maps source labels to columnar values (indexed by node) and
// validates equal batch lengths.
func (p *Program) resolveInputs(inputs map[string]value.Value) ([]value.Value, int, error) {
	vals := make([]value.Value, p.G.NumNodes())
	n, err := p.resolve(inputs, func(sid graph.NodeID, v value.Value) { vals[sid] = v })
	return vals, n, err
}

// resolve looks every source's column up in inputs, checks that they agree
// on the row count, and hands each to put, in source order, without
// allocating.
func (p *Program) resolve(inputs map[string]value.Value, put func(graph.NodeID, value.Value)) (int, error) {
	n := -1
	for _, sid := range p.G.Sources() {
		label := p.G.Node(sid).Label
		v, ok := inputs[label]
		if !ok {
			return 0, fmt.Errorf("weld: missing input %q", label)
		}
		if n == -1 {
			n = v.Len()
		} else if v.Len() != n {
			return 0, fmt.Errorf("weld: input %q has %d rows, want %d", label, v.Len(), n)
		}
		put(sid, v)
	}
	if n < 0 {
		return 0, fmt.Errorf("weld: graph has no sources")
	}
	return n, nil
}

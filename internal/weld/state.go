package weld

import (
	"context"
	"sync"
	"sync/atomic"

	"willump/internal/graph"
	"willump/internal/ops"
	"willump/internal/trace"
	"willump/internal/value"
)

// The pooled execution subsystem: every fused Program keeps its idle run
// states, whose buffers are preallocated from the plan shape (node count,
// step count, per-step arity). A BatchRun acquired from them and returned
// with Close reuses, on its next acquisition:
//
//   - the per-node value and availability slices;
//   - the per-step input slices (no per-step make([]value.Value, ...));
//   - the per-step operator scratch cells driving ApplyInto buffer reuse;
//   - the interpreted-boundary driver buffers;
//   - the assembler's output buffers behind MatrixShared and PointMatrix,
//     and the scores and model scratch behind Score.
//
// A point state serves only point runs: one row of at most maxPointBytes
// of text in the graph's source columns. NewRun decides it in the one pass
// that resolves them from the inputs map: a first column of one row takes a
// point state, and a run whose sources then hold more text moves to a
// pooled state before it computes anything. Idle point states sit in
// maxIdlePoints fixed slots, taken with an atomic swap and returned with a
// compare-and-swap, which outlive garbage collections, so after warm-up a
// compiled point query executes with zero heap allocations however often
// the collector runs. Every other state waits in a sync.Pool, which a
// collection empties; a batch prediction allocates its result slices.
//
// A run leaves its state clean as it goes, so that Close and the next
// acquisition reset only what the run wrote: a step clears its input views
// when it finishes, the cached paths drop their source-column views once the
// key is encoded, and Close drops the caller's columns and what Apply-only
// operators returned (Program.borrowed).
//
// The one ownership rule: whether a node slot's previous buffer may be
// written over is a property of the plan, fixed at Fuse in
// Program.reusable. A slot is reusable when the step producing it writes
// into memory the state allocated: an operator with ApplyInto, or an
// interpreted step (reboxed by FromBoxedInto). Source slots hold the
// caller's columns, and an operator that has only Apply may return its input
// or a view of it, so neither is ever an ApplyInto, FromBoxedInto or
// GatherInto destination: dest clears them before every write and Close
// drops them. Every computed value is written through dest, so nothing else
// has to know the rule; only a sub-run places such slots itself (subRun),
// as views of its parent's or as copies in its own gathered buffers, which
// nothing but subRun writes, and a keeping fan-out places an IFV root's
// slot in the run's own kept buffer for that root (ShardsKeep), which
// nothing but the fan-out writes while the root is not computed.

// maxIdlePoints bounds the point states a Program keeps across collections:
// the most point runs found in flight at once on one Program over the
// benchmark's five workloads, 2 in music-remote-point (two closed-loop
// callers) and 1 in toxic-point and serve-http-point. Point states beyond it
// go to the pool.
const maxIdlePoints = 2

// maxPointBytes bounds the text a point run's sources hold, and so what an
// idle point state keeps of the buffers that grow with it (document bytes,
// token ids, n-gram expansions). The benchmark datasets' documents are
// under 300 bytes.
const maxPointBytes = 16 << 10

// runList is a Program's idle run states: the point states' slots and the
// pool of the others.
type runList struct {
	points  [maxIdlePoints]atomic.Pointer[BatchRun]
	batches sync.Pool
}

// initPool installs empty idle lists for the current fused plan. Called at
// the end of Fuse, so re-fusing drops states shaped for the old plan.
func (p *Program) initPool() { p.runs = new(runList) }

// newState allocates a run state shaped for the program's plan.
func (p *Program) newState() *BatchRun {
	nn := p.G.NumNodes()
	r := &BatchRun{
		p:        p,
		vals:     make([]value.Value, nn),
		have:     make([]bool, nn),
		gathered: make([]value.Value, nn),
		ifvDone:  make([]bool, len(p.A.IFVs)),
		late:     make([]bool, len(p.A.IFVs)),
		stepIns:  make([][]value.Value, len(p.Steps)),
		scratch:  make([]any, len(p.Steps)),
		cacheScr: make([]ifvCacheScratch, len(p.A.IFVs)),
		kept:     make([]value.Value, len(p.A.IFVs)),
		pending:  make([]ops.PendingLookup, len(p.prefetch)),
	}
	for i := range p.Steps {
		r.stepIns[i] = make([]value.Value, len(p.Steps[i].ins))
	}
	r.fan.r, r.fan.done = r, make(chan struct{}, 1)
	return r
}

// getRun acquires a reset run state for a point run or any other: an idle
// one from the point slots or the pool, else a new one.
func (p *Program) getRun(ctx context.Context, point bool) *BatchRun {
	var r *BatchRun
	if point {
		for i := range p.runs.points {
			if s := &p.runs.points[i]; s.Load() != nil {
				if r = s.Swap(nil); r != nil {
					break
				}
			}
		}
	} else {
		r, _ = p.runs.batches.Get().(*BatchRun)
	}
	if r == nil {
		r = p.newState()
	}
	r.point = point
	r.ctx = ctx
	r.tr = trace.FromContext(ctx)
	clear(r.have)
	clear(r.ifvDone)
	clear(r.late)
	return r
}

// dest returns slot id as the destination of the write that is about to
// produce its value, and marks the slot computed: the one place the
// ownership rule above is applied. A write that fails fails the run, so the
// mark never outlives a value that is not there.
func (r *BatchRun) dest(id graph.NodeID) *value.Value {
	if !r.p.reusable[id] {
		r.vals[id] = value.Value{}
	}
	r.have[id] = true
	return &r.vals[id]
}

// Close returns the run's state to its Program's idle states. After Close,
// the run and every matrix, vector, or value obtained from it are invalid.
// Only call Close when nothing derived from the run escaped: the predict
// paths use MatrixShared/PointMatrix (whose outputs they consume before
// closing) and RunBatch returns a copy, while callers that keep a shared
// matrix (training helpers) simply skip Close and let the GC reclaim the
// state.
func (r *BatchRun) Close() {
	if r == nil || r.p == nil || r.p.runs == nil {
		return
	}
	// Drop references to values the state does not own (caller input
	// columns, and whatever an Apply-only operator returned) so pooling does
	// not extend their lifetime; state-owned buffers are retained as the
	// reuse arena.
	for _, id := range r.p.borrowed {
		r.vals[id] = value.Value{}
	}
	if r.gatheredSome {
		// A gathered copy keeps its buffer, not the caller's strings.
		for i := range r.gathered {
			clear(r.gathered[i].Strings)
			clear(r.gathered[i].Tokens)
		}
		r.gatheredSome = false
	}
	if r.p.spineFallback {
		// Only the spine fallback's roots point outside the state.
		clear(r.roots[:cap(r.roots)])
	}
	// Abandoned prefetches (a cascade that never consumed the lookup, an
	// early error) must not keep fetching after the run is recycled; the
	// next acquisition finds every handle nil.
	for i, pd := range r.pending {
		if pd != nil {
			pd.Cancel()
			r.pending[i] = nil
		}
	}
	r.ctx = nil
	r.tr = nil
	if r.point {
		for i := range r.p.runs.points {
			if r.p.runs.points[i].CompareAndSwap(nil, r) {
				return
			}
		}
	}
	r.p.runs.batches.Put(r)
}

// textBytes is the text v holds, what a point state's buffers grow with.
func textBytes(v *value.Value) int {
	size := 0
	for _, s := range v.Strings {
		size += len(s)
	}
	for _, t := range v.Tokens {
		for _, s := range t {
			size += len(s)
		}
	}
	return size
}

// growScratch returns a slice of length n reusing s's backing array when
// possible. Contents are unspecified.
func growScratch[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

package weld

import (
	"context"
	"fmt"
	"time"

	"willump/internal/feature"
	"willump/internal/graph"
	"willump/internal/trace"
	"willump/internal/value"
)

// RunInterpreted executes the pipeline the way the original unoptimized
// Python program would: row at a time, in source order, passing boxed values
// between operators through dynamic dispatch, with a fresh allocation for
// every intermediate. This is the repository's stand-in for the paper's
// Python baseline; the compiled executor's speedups over it come from the
// same levers Weld compilation provides (typed columnar batches, fusion, no
// per-row boxing).
func (p *Program) RunInterpreted(ctx context.Context, inputs map[string]value.Value) (feature.Matrix, error) {
	vals, n, err := p.resolveInputs(inputs)
	if err != nil {
		return nil, err
	}
	if tr := trace.FromContext(ctx); tr != nil {
		// One coarse span for the whole interpreted sweep: the baseline has
		// no fused steps to attribute to, and per-row spans would swamp the
		// trace.
		defer tr.Record(trace.StageInterp, time.Now())
	}
	g := p.G
	rows := make([][]float64, n)
	boxed := make([]any, g.NumNodes())
	// Per-node argument scratch, hoisted out of the row loop: the baseline
	// models per-row boxing and dynamic dispatch, not gratuitous slice
	// churn, so the argument buffers are allocated once per run (operators
	// do not retain their argument slice).
	insBuf := make([][]any, g.NumNodes())
	for _, id := range g.Topo() {
		if node := g.Node(id); !node.IsSource() {
			insBuf[id] = make([]any, len(node.Inputs))
		}
	}
	for r := 0; r < n; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, id := range g.Topo() {
			node := g.Node(id)
			if node.IsSource() {
				boxed[id] = vals[id].Box(r)
				continue
			}
			ins := insBuf[id]
			for i, in := range node.Inputs {
				ins[i] = boxed[in]
			}
			// Prefer the ctx-aware boxed path where the operator offers one
			// (remote lookups), so per-row I/O sees the request's deadline.
			var out any
			var err error
			if ca, ok := node.Op.(graph.CtxBoxedApplier); ok {
				out, err = ca.ApplyBoxedCtx(ctx, ins)
			} else {
				out, err = node.Op.ApplyBoxed(ins)
			}
			if err != nil {
				return nil, fmt.Errorf("weld: interpreted node %d (%s): %w", id, node.Label, err)
			}
			boxed[id] = out
		}
		vec, ok := boxed[g.Output()].([]float64)
		if !ok {
			// A scalar output still forms a one-feature vector.
			switch v := boxed[g.Output()].(type) {
			case float64:
				vec = []float64{v}
			case int64:
				vec = []float64{float64(v)}
			default:
				return nil, fmt.Errorf("weld: interpreted output is %T, want []float64", boxed[g.Output()])
			}
		}
		rows[r] = vec
	}
	return feature.DenseFromRows(rows), nil
}

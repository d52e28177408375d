package core

import (
	"context"
	"fmt"
	"time"

	"willump/internal/cascade"
	"willump/internal/trace"
	"willump/internal/value"
)

// PredictOptions carries the per-request serving knobs of an individual
// prediction or top-K call. Willump's statistically-aware parameters — the
// cascade confidence threshold and the top-K filter budget — are selected
// once at Optimize time, but a production operator wants to tune them per
// request class (lower the threshold for latency-critical traffic, raise
// the budget for recall-critical ranking). The zero value applies no
// overrides: a call with zero PredictOptions is bit-identical to the
// corresponding plain entry point.
//
// PredictOptions travels over the serving wire protocol; every field must
// therefore stay representable in JSON.
type PredictOptions struct {
	// CascadeThreshold overrides the trained cascade's confidence threshold
	// t_c for this call only. Nil keeps the threshold selected at Optimize
	// time. A value above 1 routes every row to the full model; 0.5 or below
	// trusts the small model everywhere confidences reach. Ignored by
	// pipelines without a deployed cascade.
	CascadeThreshold *float64
	// K is the top-K result count for serving-layer top-K calls, where it
	// arrives on the wire rather than as a positional argument. In-process
	// TopK calls set it from their k parameter.
	K int
	// Budget overrides the top-K filter's candidate subset size (the
	// paper's c_k*K / 5%-floor policy) for this call. Zero keeps the
	// configured policy; values below K are raised to K.
	Budget int
	// Point selects the example-at-a-time modality: the request is a single
	// row and executes on the point path (query-aware parallelization,
	// no cross-request batching).
	Point bool
	// Deadline bounds the call's wall-clock time. Zero means no per-request
	// deadline; the caller's context still applies.
	Deadline time.Duration
	// SmallOnly forces cascade small-model-only scoring: every row is
	// answered by the approximate model, the full model never runs. The
	// serving tier's brownout ladder sets it to return a cheaper answer
	// instead of an error under overload; pipelines without a cascade
	// ignore it (a degrade directive must never turn into a failure).
	SmallOnly bool
	// Criticality classifies the request for the serving tier's brownout
	// ladder: "high" traffic degrades last, "low" first, ""/"normal" in
	// between. It does not change what executes — see BatchableZero.
	Criticality string
}

// IsZero reports whether the options request no overrides. Zero-option
// requests are eligible for cross-request batch merging in the serving
// layer; requests with overrides execute alone so one request's knobs never
// leak into another's results.
func (po PredictOptions) IsZero() bool { return po == PredictOptions{} }

// BatchableZero reports whether the options are zero apart from
// Criticality. Criticality orders requests for admission and brownout but
// never changes what executes, so criticality-only requests stay eligible
// for cross-request batch merging — unlike real overrides, which force a
// request to execute alone.
func (po PredictOptions) BatchableZero() bool {
	po.Criticality = ""
	return po == PredictOptions{}
}

// Validate rejects option combinations that could silently corrupt results.
func (po PredictOptions) Validate() error {
	if po.CascadeThreshold != nil && (*po.CascadeThreshold != *po.CascadeThreshold) {
		return fmt.Errorf("core: cascade threshold override is NaN")
	}
	if po.K < 0 {
		return fmt.Errorf("core: top-K k=%d is negative", po.K)
	}
	if po.Budget < 0 {
		return fmt.Errorf("core: top-K budget %d is negative", po.Budget)
	}
	if po.Deadline < 0 {
		return fmt.Errorf("core: deadline %v is negative", po.Deadline)
	}
	switch po.Criticality {
	case "", "low", "normal", "high":
	default:
		return fmt.Errorf("core: unknown criticality %q", po.Criticality)
	}
	return nil
}

// boundCtx applies the per-request deadline, when one is set.
func (po PredictOptions) boundCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if po.Deadline > 0 {
		return context.WithTimeout(ctx, po.Deadline)
	}
	return ctx, func() {}
}

// PredictOption mutates one PredictOptions field; the variadic entry points
// (PredictBatch, PredictPoint, TopK) fold a list of them over the zero
// value, so calls passing no options keep their original behavior exactly.
type PredictOption func(*PredictOptions)

// ResolvePredict folds per-request options over the zero configuration.
// The zero-option path returns before the options struct is declared:
// taking its address for the option callbacks forces it to the heap, and
// default predictions must stay allocation-free.
func ResolvePredict(opts ...PredictOption) PredictOptions {
	if len(opts) == 0 {
		return PredictOptions{}
	}
	var po PredictOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&po)
		}
	}
	return po
}

// WithCascadeThreshold overrides the cascade confidence threshold for one
// call.
func WithCascadeThreshold(t float64) PredictOption {
	return func(po *PredictOptions) { po.CascadeThreshold = &t }
}

// WithTopKBudget overrides the top-K filter's candidate subset size for one
// call (values <= 0 keep the configured policy).
func WithTopKBudget(n int) PredictOption {
	return func(po *PredictOptions) {
		if n > 0 {
			po.Budget = n
		}
	}
}

// WithPointQuery marks the call as an example-at-a-time query.
func WithPointQuery() PredictOption {
	return func(po *PredictOptions) { po.Point = true }
}

// WithPredictDeadline bounds one call's wall-clock time (values <= 0 keep
// the caller's context alone).
func WithPredictDeadline(d time.Duration) PredictOption {
	return func(po *PredictOptions) {
		if d > 0 {
			po.Deadline = d
		}
	}
}

// WithSmallOnly forces cascade small-model-only scoring for one call: the
// approximate model answers every row and the full model never runs.
// Pipelines without a cascade ignore it.
func WithSmallOnly() PredictOption {
	return func(po *PredictOptions) { po.SmallOnly = true }
}

// WithCriticality classifies one call for the serving tier's brownout
// ladder ("low", "normal", "high"): high-criticality traffic degrades and
// sheds last. Unknown values are rejected by Validate.
func WithCriticality(c string) PredictOption {
	return func(po *PredictOptions) { po.Criticality = c }
}

// threshold resolves the cascade confidence threshold one call runs at, given
// the deployed one. SmallOnly is threshold 0, which trusts the small model on
// every row (confidences are >= 0.5 by construction), so the full model never
// runs.
func (po PredictOptions) threshold(deployed float64) float64 {
	switch {
	case po.SmallOnly:
		return 0
	case po.CascadeThreshold != nil:
		return *po.CascadeThreshold
	}
	return deployed
}

// beginTrace starts an entry point's own trace unless the context is
// trace-owned — it carries a trace, or the serving handler marked it while
// leaving the request unsampled — in which case an outer owner already
// counted the request against this tracer and beginning a second time would
// double-count it. A zero start says nothing was begun. No closure over the
// entry point's body: closures capture and allocate, and this path must stay
// allocation-free when unsampled.
func (o *Optimized) beginTrace(ctx context.Context, label string) (context.Context, *trace.Trace, time.Time) {
	if o.tracer == nil || trace.Owned(ctx) {
		return ctx, nil, time.Time{}
	}
	start := time.Now()
	tr := o.tracer.Begin(label)
	if tr != nil {
		ctx = trace.NewContext(ctx, tr)
	}
	return ctx, tr, start
}

// endTrace finishes what beginTrace began.
func (o *Optimized) endTrace(tr *trace.Trace, label string, start time.Time, err error) {
	if !start.IsZero() {
		o.tracer.Finish(tr, label, start, err)
	}
}

// PredictBatchOptions is the options-resolved batch entry point: it applies
// the per-request deadline and cascade-threshold override and reports how
// the cascade served the batch (zero ServeStats when no cascade ran). The
// serving layer calls it directly; in-process callers normally use
// PredictBatch.
func (o *Optimized) PredictBatchOptions(ctx context.Context, inputs map[string]value.Value, po PredictOptions) ([]float64, cascade.ServeStats, error) {
	ctx, tr, start := o.beginTrace(ctx, "batch")
	preds, stats, err := o.predictBatchOptions(ctx, inputs, po)
	o.endTrace(tr, "batch", start, err)
	return preds, stats, err
}

func (o *Optimized) predictBatchOptions(ctx context.Context, inputs map[string]value.Value, po PredictOptions) ([]float64, cascade.ServeStats, error) {
	if err := po.Validate(); err != nil {
		return nil, cascade.ServeStats{}, err
	}
	ctx, cancel := po.boundCtx(ctx)
	defer cancel()
	if o.Cascade != nil {
		return o.Cascade.PredictBatchThreshold(ctx, inputs, po.threshold(o.Cascade.Threshold))
	}
	preds, err := o.PredictFull(ctx, inputs)
	return preds, cascade.ServeStats{}, err
}

// PredictPointOptions is the options-resolved example-at-a-time entry
// point; like PredictBatchOptions it reports how the cascade served the
// query (zero ServeStats when no cascade ran).
func (o *Optimized) PredictPointOptions(ctx context.Context, inputs map[string]value.Value, po PredictOptions) (float64, cascade.ServeStats, error) {
	ctx, tr, start := o.beginTrace(ctx, "point")
	p, stats, err := o.predictPointOptions(ctx, inputs, po)
	o.endTrace(tr, "point", start, err)
	return p, stats, err
}

func (o *Optimized) predictPointOptions(ctx context.Context, inputs map[string]value.Value, po PredictOptions) (float64, cascade.ServeStats, error) {
	if err := po.Validate(); err != nil {
		return 0, cascade.ServeStats{}, err
	}
	ctx, cancel := po.boundCtx(ctx)
	defer cancel()
	if o.Cascade != nil {
		return o.Cascade.PredictPointThreshold(ctx, inputs, po.threshold(o.Cascade.Threshold))
	}
	p, err := o.predictPointCompiled(ctx, inputs)
	return p, cascade.ServeStats{}, err
}

// BatchPredictor returns the pipeline's default batch path as a plain
// two-argument function, the exact signature serving frontends host as a
// black box (the variadic PredictBatch itself no longer converts directly).
func (o *Optimized) BatchPredictor() func(context.Context, map[string]value.Value) ([]float64, error) {
	return func(ctx context.Context, inputs map[string]value.Value) ([]float64, error) {
		return o.PredictBatch(ctx, inputs)
	}
}

// TopKOptions is the options-resolved top-K entry point: po.K rows are
// returned, and po.Budget (when positive) overrides the filter's candidate
// subset size.
func (o *Optimized) TopKOptions(ctx context.Context, inputs map[string]value.Value, po PredictOptions) ([]int, error) {
	ctx, tr, start := o.beginTrace(ctx, "topk")
	idx, err := o.topKOptions(ctx, inputs, po)
	o.endTrace(tr, "topk", start, err)
	return idx, err
}

func (o *Optimized) topKOptions(ctx context.Context, inputs map[string]value.Value, po PredictOptions) ([]int, error) {
	if o.Filter == nil {
		return nil, fmt.Errorf("core: pipeline was not optimized for top-K queries")
	}
	if err := po.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel := po.boundCtx(ctx)
	defer cancel()
	subset := -1
	if po.Budget > 0 {
		subset = po.Budget
	}
	return o.Filter.TopKSubset(ctx, inputs, po.K, subset)
}

// Package core is the internal engine behind Willump's public API: the
// statistically-aware end-to-end optimizer for ML inference pipelines (the
// paper's primary contribution). It is internal to this module; users should
// import the root willump package, whose PipelineBuilder, functional options,
// and context-aware Optimize/Predict surface are the one supported entry
// point. The root package resolves its functional options into the Options
// struct below and delegates here.
//
// A caller supplies a Pipeline — a transformation graph from raw inputs to a
// feature vector, plus a model — and training/validation data. Optimize runs
// the paper's three stages:
//
//	dataflow:     build and analyze the transformation graph (IFVs, feature
//	              generators, preprocessing);
//	optimization: automatic end-to-end cascades, top-K filter models,
//	              feature-level caching, query-aware parallelization;
//	compilation:  block sorting, operator fusion, driver generation via the
//	              weld package.
//
// The result is an Optimized pipeline with the same prediction signature as
// the original, plus query-modality-specific entry points (PredictBatch,
// PredictPoint, TopK).
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"willump/internal/cache"
	"willump/internal/cascade"
	"willump/internal/feature"
	"willump/internal/graph"
	"willump/internal/model"
	"willump/internal/ops"
	"willump/internal/topk"
	"willump/internal/trace"
	"willump/internal/value"
	"willump/internal/weld"
)

// Pipeline is an unoptimized ML inference pipeline: what the user hands to
// Willump.
type Pipeline struct {
	// Graph transforms raw inputs into the model's feature vector.
	Graph *graph.Graph
	// Model is the (untrained) model executed on the feature vector.
	Model model.Model
}

// Dataset pairs pipeline inputs with labels.
type Dataset struct {
	Inputs map[string]value.Value
	Y      []float64
}

// Len returns the number of rows (0 for an empty dataset).
func (d Dataset) Len() int {
	for _, v := range d.Inputs {
		return v.Len()
	}
	return 0
}

// Gather returns the dataset restricted to the given rows.
func (d Dataset) Gather(rows []int) Dataset {
	out := Dataset{Inputs: make(map[string]value.Value, len(d.Inputs))}
	for k, v := range d.Inputs {
		out.Inputs[k] = v.Gather(rows)
	}
	if d.Y != nil {
		out.Y = make([]float64, len(rows))
		for i, r := range rows {
			out.Y[i] = d.Y[r]
		}
	}
	return out
}

// Row returns a single-row dataset (an example-at-a-time query).
func (d Dataset) Row(i int) Dataset { return d.Gather([]int{i}) }

// Validate checks the dataset's shape: every input column must have the
// same number of rows, and labels (when present) must match. Len trusts an
// arbitrary column, so API boundaries call Validate before optimization.
func (d Dataset) Validate() error {
	cols := make([]string, 0, len(d.Inputs))
	for k := range d.Inputs {
		cols = append(cols, k)
	}
	sort.Strings(cols)
	n, ref := -1, ""
	for _, k := range cols {
		l := d.Inputs[k].Len()
		if n == -1 {
			n, ref = l, k
			continue
		}
		if l != n {
			return fmt.Errorf("dataset column %q has %d rows, but column %q has %d", k, l, ref, n)
		}
	}
	if d.Y != nil && n >= 0 && len(d.Y) != n {
		return fmt.Errorf("dataset has %d labels for %d rows", len(d.Y), n)
	}
	return nil
}

// Options selects which optimizations Optimize applies.
type Options struct {
	// Cascades enables automatic end-to-end cascades (classification only;
	// silently skipped for regression models, as in the paper).
	Cascades bool
	// AccuracyTarget is the maximum validation accuracy loss for cascades
	// (default 0.001, i.e. less than 0.1%).
	AccuracyTarget float64
	// Gamma is Algorithm 1's stopping constant (default 0.25).
	Gamma float64
	// TopK enables automatic top-K filter-model construction.
	TopK bool
	// CK is the filter subset multiplier (default 10).
	CK int
	// MinSubsetFrac is the filter's minimum subset fraction (default 0.05).
	MinSubsetFrac float64
	// FeatureCache enables feature-level caching: sharded concurrent caches
	// over the IFVs the statistical planner selects (see cacheplan.go).
	FeatureCache bool
	// FeatureCacheCapacity is the flat per-IFV entry capacity (<= 0 for
	// unbounded) used when no FeatureCacheBudget is set.
	FeatureCacheCapacity int
	// FeatureCacheBudget, when positive, is a single global entry budget the
	// planner splits across per-IFV caches proportional to profiled cost x
	// estimated hit rate, caching only IFVs worth the entries. It takes
	// precedence over FeatureCacheCapacity.
	FeatureCacheBudget int
	// Workers caps the threads of query-aware parallelization (section 4.4):
	// the row shards of every batch path — cascaded, top-K and uncascaded —
	// and the feature-generator groups of an example-at-a-time query. 0, the
	// default (and what artifacts saved without a worker count load as),
	// uses GOMAXPROCS; 1 runs sequentially; n uses at most n. A query fans
	// out only as far as its profiled work pays for the hand-off, and every
	// width gives bit-identical results.
	Workers int
	// Tracing enables per-request span tracing and shadow profiling on the
	// optimized pipeline (see EnableTracing).
	Tracing bool
	// TraceSampleEvery head-samples one request in N when tracing (<= 0 for
	// the trace package default).
	TraceSampleEvery int
	// TraceBuffer is the retained-trace ring capacity (<= 0 for the trace
	// package default).
	TraceBuffer int
}

// Report summarizes what Optimize did, including the optimization time the
// section 6.4 microbenchmark bounds.
type Report struct {
	// OptimizeTime is the wall-clock cost of Optimize (compile + fit +
	// train + cascade construction).
	OptimizeTime time.Duration
	// NumIFVs is the number of independent feature vectors found.
	NumIFVs int
	// CascadeBuilt reports whether a cascade was deployed.
	CascadeBuilt bool
	// CascadeThreshold is the selected confidence threshold (Inf when every
	// input cascades).
	CascadeThreshold float64
	// EfficientIFVs are the IFV indices of the approximate model, when one
	// was built.
	EfficientIFVs []int
	// TrainAccuracy or TrainMSE describe full-model fit quality.
	TrainAccuracy float64
	TrainMSE      float64
	// CachePlan records the feature-cache planner's per-IFV measurements and
	// decisions (empty when feature caching is off).
	CachePlan []IFVCacheStat
}

// Optimized is the optimized pipeline Optimize returns. It has the same
// logical signature as the input pipeline: raw inputs to predictions.
type Optimized struct {
	Prog  *weld.Program
	Model model.Model
	// scorer is Model bound for scoring (Optimize, Load, CloneForRefit).
	scorer model.Scorer

	Cascade *cascade.Cascade // nil unless cascades were built
	Approx  *cascade.Approx  // non-nil when cascades or top-K filters exist
	Filter  *topk.Filter     // nil unless top-K was enabled

	// tracer, when non-nil, samples and retains per-request traces for this
	// pipeline's entry points. nil keeps every fast path branch-predictable
	// and allocation-free.
	tracer *trace.Tracer

	// cachePlan records the statistical cache planner's measurements when
	// feature caching was planned at Optimize time (or re-planned online);
	// the drift detectors compare live key reuse against its estimates.
	cachePlan []IFVCacheStat

	opts Options
}

// Optimize trains and optimizes a pipeline end-to-end. The context bounds
// the whole optimization (fit, train, cascade construction); cancelling it
// aborts between graph blocks.
func Optimize(ctx context.Context, p *Pipeline, train, valid Dataset, opts Options) (*Optimized, *Report, error) {
	start := time.Now()
	if p == nil || p.Graph == nil || p.Model == nil {
		return nil, nil, fmt.Errorf("core: nil pipeline, graph, or model")
	}
	if train.Len() == 0 {
		return nil, nil, fmt.Errorf("core: empty training set")
	}
	prog, err := weld.Compile(p.Graph)
	if err != nil {
		return nil, nil, err
	}
	prog.Workers = opts.Workers
	out, err := prog.Fit(ctx, train.Inputs)
	if err != nil {
		return nil, nil, err
	}
	x, err := out.AsMatrix()
	if err != nil {
		return nil, nil, err
	}
	// Model training itself is not preemptible; check the context around it
	// so a cancelled optimization never reports success.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// Train a fresh clone, never the caller's model: optimizing the same
	// Pipeline twice (or concurrently) must not retrain shared state.
	full := p.Model.Fresh()
	if full == nil {
		return nil, nil, fmt.Errorf("core: model %T returned a nil Fresh clone", p.Model)
	}
	if err := full.Train(x, train.Y); err != nil {
		return nil, nil, fmt.Errorf("core: training full model: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	o := &Optimized{Prog: prog, Model: full, scorer: model.Bind(full), opts: opts}
	rep := &Report{NumIFVs: len(prog.A.IFVs)}
	preds := full.Predict(x)
	if full.Task() == model.Classification {
		rep.TrainAccuracy = model.Accuracy(preds, train.Y)
	} else {
		rep.TrainMSE = model.MSE(preds, train.Y)
	}

	ccfg := cascade.Config{AccuracyTarget: opts.AccuracyTarget, Gamma: opts.Gamma}
	needApprox := (opts.Cascades && full.Task() == model.Classification) || opts.TopK
	if needApprox && len(prog.A.IFVs) > 1 {
		if opts.Cascades && full.Task() == model.Classification {
			if valid.Len() == 0 {
				return nil, nil, fmt.Errorf("core: cascades require a validation set")
			}
			c, err := cascade.Train(ctx, prog, full, train.Inputs, x, train.Y,
				valid.Inputs, valid.Y, ccfg)
			if err != nil {
				return nil, nil, fmt.Errorf("core: building cascade: %w", err)
			}
			o.Cascade = c
			o.Approx = c.Approx
			rep.CascadeBuilt = true
			rep.CascadeThreshold = c.Threshold
			rep.EfficientIFVs = c.Efficient
		} else {
			a, err := cascade.BuildApprox(ctx, prog, full, train.Inputs, x, train.Y, ccfg)
			if err != nil {
				return nil, nil, fmt.Errorf("core: building filter model: %w", err)
			}
			o.Approx = a
			rep.EfficientIFVs = a.Efficient
		}
	}
	if opts.TopK {
		if o.Approx == nil {
			return nil, nil, fmt.Errorf("core: top-K filter models need at least two IFVs")
		}
		o.Filter = topk.NewFilter(o.Approx, full, topk.Config{CK: opts.CK, MinSubsetFrac: opts.MinSubsetFrac})
	}
	if opts.FeatureCache {
		specs, cstats := planFeatureCaches(prog, train, opts)
		prog.EnableFeatureCachingSpecs(specs)
		rep.CachePlan = cstats
		o.cachePlan = cstats
	}
	if opts.Tracing {
		o.EnableTracing(opts.TraceSampleEvery, opts.TraceBuffer)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	rep.OptimizeTime = time.Since(start)
	return o, rep, nil
}

// EnableTracing installs a request tracer on the pipeline (head-sampling
// one request in sampleEvery, retaining buffer traces; <= 0 picks the trace
// package defaults) and turns on shadow profiling, so traced requests feed
// live per-node costs the cost model can adopt. Tracing is a runtime
// property, not part of the optimization artifact: deployments enable it
// after Load. Returns the installed tracer.
func (o *Optimized) EnableTracing(sampleEvery, buffer int) *trace.Tracer {
	o.tracer = trace.NewTracer(trace.Config{SampleEvery: sampleEvery, Buffer: buffer})
	o.Prog.EnableLiveProfile()
	return o.tracer
}

// Tracer returns the pipeline's request tracer, or nil when tracing is
// disabled.
func (o *Optimized) Tracer() *trace.Tracer { return o.tracer }

// LiveProfile returns a snapshot of the shadow profile accumulated from
// traced production traffic, or nil when tracing was never enabled.
func (o *Optimized) LiveProfile() *weld.Profile { return o.Prog.LiveProfile() }

// AdoptLiveProfile folds the accumulated shadow profile into the pipeline's
// cost model and resets the live accumulator (repeated adoption never
// double-counts). Reports whether any live measurements were adopted.
func (o *Optimized) AdoptLiveProfile() bool { return o.Prog.AdoptLiveProfile() }

// Inputs returns the pipeline's raw input column names in declaration
// order: the request schema a serving frontend should expect.
func (o *Optimized) Inputs() []string {
	srcs := o.Prog.G.Sources()
	out := make([]string, len(srcs))
	for i, id := range srcs {
		out[i] = o.Prog.G.Node(id).Label
	}
	return out
}

// FeatureCacheStats reports the feature-level caches' cumulative counters
// and whether feature caching is enabled at all.
func (o *Optimized) FeatureCacheStats() (cache.Stats, bool) {
	if len(o.Prog.CacheSpecs()) == 0 {
		return cache.Stats{}, false
	}
	return o.Prog.FeatureCacheStats(), true
}

// FeatureStoreStats aggregates remote feature-store client health over the
// pipeline's lookup tables: every distinct table implementing
// ops.StoreStatsReporter contributes one snapshot (counters sum, quantiles
// and breaker state take the worst). Reports false when no bound table is a
// reporting store client.
func (o *Optimized) FeatureStoreStats() (ops.StoreStats, bool) {
	var snaps []ops.StoreStats
	seen := make(map[ops.StoreStatsReporter]bool)
	for _, n := range o.Prog.G.Nodes() {
		if n.IsSource() {
			continue
		}
		th, ok := n.Op.(interface{ Table() ops.Table })
		if !ok {
			continue
		}
		rep, ok := th.Table().(ops.StoreStatsReporter)
		if !ok || seen[rep] {
			continue
		}
		seen[rep] = true
		snaps = append(snaps, rep.StoreStats())
	}
	if len(snaps) == 0 {
		return ops.StoreStats{}, false
	}
	return ops.MergeStoreStats(snaps...), true
}

// Features computes the full feature matrix for a batch on the compiled
// path (no cascades).
func (o *Optimized) Features(ctx context.Context, inputs map[string]value.Value) (feature.Matrix, error) {
	return o.Prog.RunBatch(ctx, inputs)
}

// PredictBatch predicts a batch of inputs, through the cascade when one is
// deployed and through the compiled full pipeline otherwise. Per-request
// options (cascade-threshold override, deadline) apply to this call alone;
// with no options the result is bit-identical to the pipeline's defaults.
func (o *Optimized) PredictBatch(ctx context.Context, inputs map[string]value.Value, opts ...PredictOption) ([]float64, error) {
	preds, _, err := o.PredictBatchOptions(ctx, inputs, ResolvePredict(opts...))
	return preds, err
}

// PredictFull predicts a batch with the compiled full pipeline, bypassing
// any cascade (the "Willump Compilation" configuration of Figures 5 and 6,
// and PredictBatch itself when no cascade is deployed). The batch runs on
// row shards of pooled run states (cascade.Score), each scoring its rows
// into the result in place.
func (o *Optimized) PredictFull(ctx context.Context, inputs map[string]value.Value) ([]float64, error) {
	run, err := o.Prog.NewRun(ctx, inputs)
	if err != nil {
		return nil, err
	}
	defer run.Close()
	out := make([]float64, run.Len())
	if err := cascade.Score(run, nil, o.Prog.AllIFVs(), o.scorer, trace.StageModelScore, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictPoint answers one example-at-a-time query, applying query-aware
// parallelization (ComputeIFVsParallel, when the query's generators are
// costly enough) and cascades when deployed. Per-request options
// (cascade-threshold override, deadline) apply to this call alone.
func (o *Optimized) PredictPoint(ctx context.Context, inputs map[string]value.Value, opts ...PredictOption) (float64, error) {
	p, _, err := o.PredictPointOptions(ctx, inputs, ResolvePredict(opts...))
	return p, err
}

// predictPointCompiled is the compiled (no-cascade) point path: the feature
// generators spread over the fan-out when they are worth it, the feature
// vector materialized into the run state's buffer and the model scored in
// place — zero heap allocations once warm for fully compiled plans.
func (o *Optimized) predictPointCompiled(ctx context.Context, inputs map[string]value.Value) (float64, error) {
	run, err := o.Prog.NewRun(ctx, inputs)
	if err != nil {
		return 0, err
	}
	defer run.Close()
	if err := run.ComputeIFVsParallel(o.Prog.AllIFVs()); err != nil {
		return 0, err
	}
	x, err := run.PointMatrix(o.Prog.AllIFVs())
	if err != nil {
		return 0, err
	}
	s := model.GetScratch()
	defer model.PutScratch(s)
	if tr := trace.FromContext(ctx); tr != nil {
		t0 := time.Now()
		p := o.scorer.ScoreRow(x, 0, s)
		tr.Record(trace.StageModelScore, t0)
		return p, nil
	}
	return o.scorer.ScoreRow(x, 0, s), nil
}

// PredictInterpreted predicts a batch on the interpreted ("Python") path:
// the unoptimized baseline of every end-to-end experiment.
func (o *Optimized) PredictInterpreted(ctx context.Context, inputs map[string]value.Value) ([]float64, error) {
	x, err := o.Prog.RunInterpreted(ctx, inputs)
	if err != nil {
		return nil, err
	}
	return o.Model.Predict(x), nil
}

// TopK answers a top-K query with the automatically constructed filter
// model. It requires Options.TopK at Optimize time. Per-request options
// (filter budget override, deadline) apply to this call alone.
func (o *Optimized) TopK(ctx context.Context, inputs map[string]value.Value, k int, opts ...PredictOption) ([]int, error) {
	po := ResolvePredict(opts...)
	po.K = k
	return o.TopKOptions(ctx, inputs, po)
}

// TopKExact answers a top-K query with the unoptimized full pipeline
// (ground truth for filter accuracy).
func (o *Optimized) TopKExact(ctx context.Context, inputs map[string]value.Value, k int) ([]int, []float64, error) {
	if o.Filter == nil {
		return nil, nil, fmt.Errorf("core: pipeline was not optimized for top-K queries")
	}
	return o.Filter.ExactTopK(ctx, inputs, k)
}

package willump

import (
	"time"

	"willump/internal/core"
)

// Paper-default optimization constants (section 6): the cascade accuracy
// target and Algorithm 1 stopping constant, and the top-K filter's subset
// multiplier and minimum subset fraction.
const (
	DefaultAccuracyTarget = 0.001
	DefaultGamma          = 0.25
	DefaultCK             = 10
	DefaultMinSubsetFrac  = 0.05
)

// Option selects and tunes one of Willump's optimizations. Options are
// applied to the resolved configuration in order; later options win.
type Option func(*core.Options)

// resolveOptions folds functional options over the paper-default
// configuration, yielding the internal resolved config handed to core.
func resolveOptions(opts ...Option) core.Options {
	o := core.Options{
		AccuracyTarget: DefaultAccuracyTarget,
		Gamma:          DefaultGamma,
		CK:             DefaultCK,
		MinSubsetFrac:  DefaultMinSubsetFrac,
	}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithCascades enables automatic end-to-end cascades (classification models
// only; silently skipped for regression, as in the paper). accuracyTarget is
// the maximum validation accuracy loss; pass 0 for the paper default 0.001
// (< 0.1%).
func WithCascades(accuracyTarget float64) Option {
	return func(o *core.Options) {
		o.Cascades = true
		if accuracyTarget > 0 {
			o.AccuracyTarget = accuracyTarget
		}
	}
}

// WithGamma overrides Algorithm 1's stopping constant (default 0.25).
func WithGamma(gamma float64) Option {
	return func(o *core.Options) {
		if gamma > 0 {
			o.Gamma = gamma
		}
	}
}

// WithTopK enables automatic top-K filter-model construction. ck is the
// filter subset multiplier and minSubsetFrac the minimum subset size as a
// fraction of the batch; pass 0 for the paper defaults (10 and 0.05).
func WithTopK(ck int, minSubsetFrac float64) Option {
	return func(o *core.Options) {
		o.TopK = true
		if ck > 0 {
			o.CK = ck
		}
		if minSubsetFrac > 0 {
			o.MinSubsetFrac = minSubsetFrac
		}
	}
}

// WithFeatureCache enables feature-level caching with a flat per-IFV entry
// capacity (<= 0 means unbounded). The optimizer still decides which IFVs
// are cacheable, but every selected IFV gets the same capacity; use
// WithFeatureCacheBudget for the statistically-aware split.
func WithFeatureCache(capacity int) Option {
	return func(o *core.Options) {
		o.FeatureCache = true
		o.FeatureCacheCapacity = capacity
	}
}

// WithFeatureCacheBudget enables feature-level caching under a single global
// entry budget. Optimize splits the budget across per-IFV caches proportional
// to profiled generator cost x training-set key reuse (the paper's section
// 4.5 statistic), caching only the IFVs worth the entries — an expensive
// generator over a skewed key space gets nearly the whole budget, a cheap
// generator over unique keys gets none. Values <= 0 fall back to
// WithFeatureCache(0) semantics (unbounded caches on every cacheable IFV).
func WithFeatureCacheBudget(entries int) Option {
	return func(o *core.Options) {
		o.FeatureCache = true
		if entries > 0 {
			o.FeatureCacheBudget = entries
		}
	}
}

// WithTracing enables per-request tracing and shadow profiling on the
// optimized pipeline. sampleRate is the head-sampling rate: 1 traces every
// request, 0.01 one in a hundred; pass 0 for the default (one in 128).
// bufferSize is the retained-trace ring capacity (0 for the default 256).
// The sampling decision costs one atomic add, and an unsampled request runs
// the exact untraced code path — the compiled point query stays
// allocation-free. Tracing is a runtime property: it is not persisted in
// saved artifacts, so loaded pipelines re-enable it via EnableTracing.
func WithTracing(sampleRate float64, bufferSize int) Option {
	return func(o *core.Options) {
		o.Tracing = true
		switch {
		case sampleRate >= 1:
			o.TraceSampleEvery = 1
		case sampleRate > 0:
			o.TraceSampleEvery = int(1/sampleRate + 0.5)
		}
		o.TraceBuffer = bufferSize
	}
}

// WithWorkers caps the threads of query-aware parallelization: the row
// shards every batch path (cascaded, top-K and uncascaded) runs on, and the
// feature-generator groups of an example-at-a-time query. 0, the default —
// and what an artifact saved without a worker count loads as — uses
// GOMAXPROCS; 1 runs every query sequentially; n uses at most n. A query fans
// out only as far as its profiled work pays for the hand-off, and every
// width gives bit-identical results. Negative values are clamped to zero
// rather than propagated into the scheduler.
func WithWorkers(n int) Option {
	return func(o *core.Options) {
		if n < 0 {
			n = 0
		}
		o.Workers = n
	}
}

// PredictOptions carries the per-request serving knobs of one prediction or
// top-K call: the statistically-aware parameters Optimize selects (cascade
// confidence threshold, top-K filter budget) exposed at the serving
// boundary, plus query modality and a server-side deadline. The zero value
// applies no overrides — such calls are bit-identical to the plain entry
// points. PredictOptions travels on the serving wire protocol, so remote
// calls through Client behave exactly like in-process ones.
type PredictOptions = core.PredictOptions

// PredictOption sets one per-request serving knob; pass them to
// PredictBatch, PredictPoint, TopK, or the Client's model-addressed calls.
type PredictOption = core.PredictOption

// WithThreshold overrides the cascade's confidence threshold t_c for one
// call: lower values trust the small model more (faster, bounded accuracy
// cost), values above 1 route every row to the full model. No-op for
// pipelines without a cascade.
func WithThreshold(t float64) PredictOption { return core.WithCascadeThreshold(t) }

// WithBudget overrides the top-K filter's candidate subset size (the
// paper's c_k*K / 5%-floor policy) for one call; values <= 0 keep the
// configured policy.
func WithBudget(n int) PredictOption { return core.WithTopKBudget(n) }

// WithPointQuery marks the call as an example-at-a-time query: single-row,
// served on the point path (query-aware parallelization, no cross-request
// batching).
func WithPointQuery() PredictOption { return core.WithPointQuery() }

// WithDeadline bounds one call's wall-clock time server-side; values <= 0
// keep only the caller's context.
func WithDeadline(d time.Duration) PredictOption { return core.WithPredictDeadline(d) }

// WithSmallOnly forces cascade small-model-only scoring for one call: every
// row is answered by the small model, none escalate to the full model. This
// is the brownout ladder's degrade primitive, exposed to clients that would
// rather get a cheap approximate answer than wait; no-op for pipelines
// without a cascade.
func WithSmallOnly() PredictOption { return core.WithSmallOnly() }

// WithCriticality classifies one call for overload ordering: "high" traffic
// is shed and degraded last, "low" first, "normal" (or empty) in between.
// Criticality travels on the wire, so remote calls are prioritized exactly
// like in-process ones.
func WithCriticality(c string) PredictOption { return core.WithCriticality(c) }

package core

import (
	"fmt"

	"willump/internal/cascade"
	"willump/internal/topk"
	"willump/internal/weld"
)

// Online re-fitting: the entry points the adaptation controller
// (internal/adapt) uses to re-derive the statistical plan — cascade
// threshold and feature-cache budget split — from a reservoir of live
// traffic instead of the original training Dataset. Both have input-size
// floors: a tiny reservoir is noise, and a plan fit to noise is worse
// than the stale plan it would replace.

const (
	// RefitMinScorePairs is the minimum number of shadow-scored
	// (small, full) prediction pairs RefitCascadeThreshold accepts.
	RefitMinScorePairs = 64
	// ReplanMinReservoirRows is the minimum reservoir size
	// ReplanFeatureCache accepts.
	ReplanMinReservoirRows = 64
)

// RefitResult reports what a cascade-threshold re-fit chose.
type RefitResult struct {
	// Threshold is the selected confidence threshold (+Inf when no
	// candidate met the target: every input cascades to the full model).
	Threshold float64
	// Agreement is the fraction of reservoir rows on which the mixed
	// (cascade-routed) prediction agrees with the full model at the
	// chosen threshold — the label-free accuracy proxy.
	Agreement float64
	// SmallFrac is the fraction of reservoir rows the chosen threshold
	// routes to the small model alone (the serving-time guard compares
	// the canary's observed small-only rate against this).
	SmallFrac float64
}

// RefitCascadeThreshold re-selects the cascade confidence threshold from
// shadow-scored prediction pairs: small[i] and full[i] are the small and
// full model's probabilities for the same sampled live request. Live
// traffic has no labels, so agreement with the full model stands in for
// validation accuracy (the full model defines correctness for the
// cascade by construction): cascade.SelectThreshold, with the full model's
// decisions as labels and a baseline of 1.
func RefitCascadeThreshold(small, full []float64, target float64) (RefitResult, error) {
	if len(small) != len(full) {
		return RefitResult{}, fmt.Errorf("core: refit got %d small scores for %d full scores", len(small), len(full))
	}
	if len(small) < RefitMinScorePairs {
		return RefitResult{}, fmt.Errorf("core: refit needs >= %d score pairs, got %d", RefitMinScorePairs, len(small))
	}
	if target <= 0 {
		target = 0.001
	}
	fullLabels := make([]float64, len(full))
	for i, p := range full {
		if p >= 0.5 {
			fullLabels[i] = 1
		}
	}
	var res RefitResult
	res.Threshold, res.Agreement, res.SmallFrac = cascade.SelectThreshold(small, full, fullLabels, 1, target)
	return res, nil
}

// ReplanFeatureCache re-splits the feature-cache entry budget from a
// reservoir of sampled live request rows, reusing the statistical cache
// planner (cost x estimated key reuse, proportional split). Costs come
// from the pipeline's current cost model — call AdoptLiveProfile first
// so shadow-profiled production costs are folded in. budget <= 0 uses
// the budget the pipeline was optimized with. The returned specs are not
// installed; apply them to a candidate clone with ApplyCacheSpecs.
func (o *Optimized) ReplanFeatureCache(reservoir Dataset, budget int) ([]weld.CacheSpec, []IFVCacheStat, error) {
	if err := reservoir.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: replan reservoir: %w", err)
	}
	if n := reservoir.Len(); n < ReplanMinReservoirRows {
		return nil, nil, fmt.Errorf("core: replan needs >= %d reservoir rows, got %d", ReplanMinReservoirRows, n)
	}
	if budget <= 0 {
		budget = o.opts.FeatureCacheBudget
	}
	if budget <= 0 {
		return nil, nil, fmt.Errorf("core: replan needs a feature-cache budget (pipeline was optimized without one)")
	}
	opts := o.opts
	opts.FeatureCache = true
	opts.FeatureCacheBudget = budget
	specs, stats := planFeatureCaches(o.Prog, reservoir, opts)
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("core: replan produced no cacheable IFVs")
	}
	return specs, stats, nil
}

// CloneForRefit returns a candidate pipeline for canarying an alternative
// plan: it shares the fitted operators, graph, and models (read-only at
// inference time) with the incumbent but owns its own feature caches,
// run-state pool, and cascade routing state, so SetCascadeThreshold and
// ApplyCacheSpecs on the clone never touch the incumbent. The clone's
// tracer is nil — canary candidates are observed through guard metrics,
// not traces.
func (o *Optimized) CloneForRefit() *Optimized {
	prog := o.Prog.CloneRuntime()
	c := &Optimized{Prog: prog, Model: o.Model, scorer: o.scorer, opts: o.opts}
	c.cachePlan = append([]IFVCacheStat(nil), o.cachePlan...)
	if o.Approx != nil {
		ap := *o.Approx
		ap.Prog = prog
		c.Approx = &ap
	}
	if o.Cascade != nil {
		c.Cascade = cascade.Restore(c.Approx, o.Cascade.Full,
			o.Cascade.Threshold, o.Cascade.FullAccuracy, o.Cascade.CascadeAccuracy)
	}
	if o.Filter != nil {
		c.Filter = topk.NewFilter(c.Approx, o.Filter.Full, o.Filter.Config())
	}
	return c
}

// SetCascadeThreshold installs a re-fit confidence threshold and its
// agreement proxy. No-op on pipelines without a cascade.
func (o *Optimized) SetCascadeThreshold(t, agreement float64) {
	if o.Cascade == nil {
		return
	}
	o.Cascade.Threshold = t
	o.Cascade.CascadeAccuracy = agreement
}

// CascadeThreshold returns the deployed confidence threshold and whether
// a cascade exists.
func (o *Optimized) CascadeThreshold() (float64, bool) {
	if o.Cascade == nil {
		return 0, false
	}
	return o.Cascade.Threshold, true
}

// ApplyCacheSpecs replaces the pipeline's feature-cache plan (fresh empty
// caches built per spec) and records the planner stats that produced it.
func (o *Optimized) ApplyCacheSpecs(specs []weld.CacheSpec, stats []IFVCacheStat) {
	o.Prog.EnableFeatureCachingSpecs(specs)
	if stats != nil {
		o.cachePlan = stats
	}
}

// CachePlan returns the statistical cache plan the pipeline's caches were
// built from (nil for pipelines loaded from artifacts, which persist only
// the resulting capacities).
func (o *Optimized) CachePlan() []IFVCacheStat { return o.cachePlan }

// PlannedHitRate returns the capacity-weighted mean of the cache plan's
// per-IFV EstimatedHitRate: the hit rate the planner fit the budget
// split to, and the reference the key-reuse drift detector compares live
// traffic against. ok is false when no planner stats are available.
func (o *Optimized) PlannedHitRate() (rate float64, ok bool) {
	var wsum, rsum float64
	for _, st := range o.cachePlan {
		if !st.Cached {
			continue
		}
		w := float64(st.Capacity)
		if w <= 0 {
			w = 1
		}
		wsum += w
		rsum += w * st.EstimatedHitRate
	}
	if wsum == 0 {
		return 0, false
	}
	return rsum / wsum, true
}

// FeatureCacheBudget returns the entry budget the pipeline was optimized
// under (0 when feature caching was flat-capacity or off).
func (o *Optimized) FeatureCacheBudget() int { return o.opts.FeatureCacheBudget }

// AccuracyTarget returns the configured cascade accuracy-loss target
// (the Optimize default when unset).
func (o *Optimized) AccuracyTarget() float64 {
	if o.opts.AccuracyTarget <= 0 {
		return 0.001
	}
	return o.opts.AccuracyTarget
}

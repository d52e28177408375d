package serving

import (
	"fmt"

	"willump/internal/adapt"
	"willump/internal/admission"
	"willump/internal/core"
)

// This file is the registry's guarded-rollout half: the per-arm guard
// snapshot, the canary lifecycle (start, promote, roll back), and the
// wiring that lets an online adaptation controller drive it.

// guardSnapshot assembles the arm's adapt.Guard, which the adaptation
// controller judges as counter deltas from a canary's start: outcome counters
// plus the windowed p99 and the arm's own feature-cache counters (canary
// pipelines clone their caches, so hit rates are genuinely per-arm).
func (v *version) guardSnapshot() adapt.Guard {
	g := adapt.Guard{
		Requests:     v.arm.requests.Load(),
		Errors:       v.arm.errors.Load(),
		Sheds:        v.arm.rejected.Load(),
		P99:          v.arm.latencies.Quantile(0.99),
		CascadeTotal: v.arm.cascadeTotal.Load(),
		CascadeSmall: v.arm.cascadeSmall.Load(),
	}
	if v.opt != nil {
		if cs, ok := v.opt.FeatureCacheStats(); ok {
			g.CacheHits, g.CacheMisses = cs.Hits, cs.Misses
		}
	}
	return g
}

// StartCanary deploys a candidate pipeline beside the model's active
// version, routing the given fraction of mergeable traffic to it (clamped
// to [0.001, 0.5]). The canary runs its own admission controller, primed
// from the incumbent's current forecast so the candidate never opens a
// cold-start admit-everything window; option-carrying and top-K requests stay
// on the incumbent. One canary per model: starting a second fails.
func (r *Registry) StartCanary(name, tag string, o *core.Optimized, fraction float64) error {
	if o == nil {
		return fmt.Errorf("serving: canary %q: nil optimized pipeline", name)
	}
	if tag == "" {
		return fmt.Errorf("serving: canary %q: empty version tag", name)
	}
	pm := int64(fraction * 1000)
	if pm < 1 {
		pm = 1
	}
	if pm > 500 {
		pm = 500
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("serving: registry is closed")
	}
	h, ok := r.models[name]
	if !ok || h.active.Load() == nil {
		return fmt.Errorf("serving: canary %q: %w", name, ErrModelNotFound)
	}
	if h.canary.Load() != nil {
		return fmt.Errorf("serving: canary %q: a canary is already in flight", name)
	}
	admit := admission.New(admission.Config{
		SLO:      r.opts.SLOTargetP99,
		Brownout: r.opts.Brownout,
	})
	admit.Reprime(h.admit.State())
	v := r.newVersion(h, tag, o, nil, o.Inputs(), admit)
	// The p99 guard compares both arms' windowed latencies: reset the
	// incumbent's window at canary start (the analogue of the counter
	// baselines the controller snapshots) so its p99 covers the judgement
	// interval, not calmer pre-canary traffic — a load spike during the
	// canary must penalize both arms alike.
	if a := h.active.Load(); a != nil {
		a.arm.latencies.Reset()
	}
	h.canary.Store(v)
	h.canaryPermille.Store(pm)
	return nil
}

// PromoteCanary makes the model's canary the active version. The hosted
// admission controller adopts the canary arm's learned forecast (the
// controller that actually measured the candidate's service times), the
// candidate redeploys through the normal zero-downtime swap — keeping its
// warmed feature caches, since the pipeline object carries them — and
// both the displaced incumbent and the canary's serving scaffolding finish
// what they admitted.
func (r *Registry) PromoteCanary(name string) error {
	h, c, err := r.detachCanary("promote", name)
	if err != nil {
		return err
	}
	h.admit.Reprime(c.admit.State())
	err = r.deploy(name, c.tag, c.opt, nil, c.opt.Inputs())
	c.beginDrain()
	return err
}

// RollbackCanary discards the model's canary: routing reverts entirely to
// the incumbent — whose admission controller served the majority arm
// throughout and so was never cold — and the candidate drains.
func (r *Registry) RollbackCanary(name string) error {
	_, c, err := r.detachCanary("rollback", name)
	if err != nil {
		return err
	}
	c.beginDrain()
	return nil
}

// detachCanary stops routing to the model's canary and takes it off the
// model; op names the caller in errors.
func (r *Registry) detachCanary(op, name string) (*Hosted, *version, error) {
	r.mu.RLock()
	h, ok := r.models[name]
	r.mu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("serving: %s %q: %w", op, name, ErrModelNotFound)
	}
	h.canaryPermille.Store(0)
	c := h.canary.Swap(nil)
	if c == nil {
		return nil, nil, fmt.Errorf("serving: %s %q: no canary in flight", op, name)
	}
	return h, c, nil
}

// canaryGuards snapshots both serving arms' guard metrics; ok is false
// when no canary is live (resolved, displaced, or never started).
func (r *Registry) canaryGuards(name string) (inc, can adapt.Guard, ok bool) {
	r.mu.RLock()
	h, found := r.models[name]
	r.mu.RUnlock()
	if !found {
		return adapt.Guard{}, adapt.Guard{}, false
	}
	c := h.canary.Load()
	a := h.active.Load()
	if c == nil || a == nil {
		return adapt.Guard{}, adapt.Guard{}, false
	}
	return a.guardSnapshot(), c.guardSnapshot(), true
}

// EnableAdaptation attaches an online adaptation controller to a deployed
// optimized model: live traffic is shadow-sampled into drift detectors
// (key-reuse against the cache plan's estimate, score distribution via
// Page–Hinkley and KS), confirmed drift re-fits the cascade threshold and
// feature-cache budget split from a reservoir of recent requests, and the
// re-fit plan rolls in as a guarded canary with automatic promotion or
// rollback. Re-enabling replaces the previous controller; an operator
// Deploy restarts adaptation on the new pipeline automatically.
func (r *Registry) EnableAdaptation(name string, cfg adapt.Config) error {
	r.mu.Lock()
	h, ok := r.models[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("serving: adapt %q: %w", name, ErrModelNotFound)
	}
	v := h.active.Load()
	if v == nil || v.opt == nil {
		r.mu.Unlock()
		return fmt.Errorf("serving: adapt %q: no optimized pipeline deployed", name)
	}
	cfgCopy := cfg
	h.adaptCfg = &cfgCopy
	ctl := r.newAdaptController(name, v.opt, cfg)
	old := h.adaptCtl.Swap(ctl)
	r.mu.Unlock()
	if old != nil {
		old.Close()
	}
	ctl.Start()
	return nil
}

// DisableAdaptation stops a model's adaptation controller and discards
// any canary it had in flight.
func (r *Registry) DisableAdaptation(name string) error {
	r.mu.Lock()
	h, ok := r.models[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("serving: adapt %q: %w", name, ErrModelNotFound)
	}
	ctl := h.adaptCtl.Swap(nil)
	h.adaptCfg = nil
	r.mu.Unlock()
	if ctl != nil {
		ctl.Close()
	}
	h.canaryPermille.Store(0)
	if c := h.canary.Swap(nil); c != nil {
		c.beginDrain()
	}
	return nil
}

// newAdaptController wires a controller to this registry's canary
// machinery through closures, so internal/adapt never imports serving.
func (r *Registry) newAdaptController(name string, opt *core.Optimized, cfg adapt.Config) *adapt.Controller {
	return adapt.New(opt, cfg, adapt.Hooks{
		StartCanary: func(tag string, cand *core.Optimized, fraction float64) error {
			return r.StartCanary(name, tag, cand, fraction)
		},
		Promote:  func() error { return r.PromoteCanary(name) },
		Rollback: func() error { return r.RollbackCanary(name) },
		Guards:   func() (adapt.Guard, adapt.Guard, bool) { return r.canaryGuards(name) },
		SLO:      r.opts.SLOTargetP99,
	})
}

// readaptAfterDeploy restarts a model's adaptation controller on a newly
// deployed pipeline and abandons any canary the old controller had in
// flight. No-op for models without adaptation enabled.
func (r *Registry) readaptAfterDeploy(name string, o *core.Optimized) {
	r.mu.Lock()
	h, ok := r.models[name]
	if !ok || h.adaptCfg == nil {
		r.mu.Unlock()
		return
	}
	ctl := r.newAdaptController(name, o, *h.adaptCfg)
	old := h.adaptCtl.Swap(ctl)
	r.mu.Unlock()
	h.canaryPermille.Store(0)
	if c := h.canary.Swap(nil); c != nil {
		c.beginDrain()
	}
	if old != nil {
		old.Close()
	}
	ctl.Start()
}

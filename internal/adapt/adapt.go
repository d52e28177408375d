package adapt

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"willump/internal/cache"
	"willump/internal/core"
	"willump/internal/value"
	"willump/internal/weld"
)

// Config tunes one model's adaptation controller. The zero value is
// usable: every field defaults to production-safe settings; tests
// compress cadences.
type Config struct {
	// SampleEvery shadow-samples one request in N into the detectors
	// (default 8; 1 samples everything).
	SampleEvery int
	// Reservoir is the sliding reservoir of sampled request rows re-fits
	// draw from (default 512).
	Reservoir int
	// KeyWindow is the key-reuse drift window (default 256 samples);
	// ReuseStrikes the consecutive out-of-band windows required (default 2).
	KeyWindow    int
	ReuseStrikes int
	// CheckEvery is the detector-evaluation and canary-judgement cadence
	// (default 250ms).
	CheckEvery time.Duration
	// CanaryFraction is the share of traffic routed to a candidate plan
	// (default 0.10, clamped to [0.01, 0.5]).
	CanaryFraction float64
	// CanaryMinRequests is the per-arm request floor before a judgement
	// counts (default 200). CanaryTimeout rolls back a canary that never
	// accumulates judgeable traffic (default 60s).
	CanaryMinRequests int64
	CanaryTimeout     time.Duration
	// GuardLatencyTol is the p99 guard's tolerance: the canary fails a check
	// when its p99 exceeds both the serving tier's SLO (Hooks.SLO) and the
	// incumbent's p99 scaled by 1+GuardLatencyTol (default 0.5).
	GuardLatencyTol float64
	// PassStreak / FailStreak are the hysteresis: consecutive passing
	// judgements required to promote, consecutive failing ones to roll
	// back (default 2 each).
	PassStreak int
	FailStreak int
	// Cooldown suppresses re-fits after a rollback (default 30s).
	Cooldown time.Duration
	// MutateCandidate, when set, rewrites the candidate before it
	// canaries — a fault-injection hook for chaos drills and the
	// injected-bad-plan rollback test.
	MutateCandidate func(*core.Optimized)
}

// The canary guard's other tolerances: the canary fails a check when its
// delta error rate — or its delta shed rate — exceeds the incumbent's by more
// than guardErrorTol; when its cache hit rate falls more than
// guardHitRateSlack below the incumbent's; or when its small-model routing
// rate exceeds the re-fit's predicted rate by more than guardSmallRateSlack.
const (
	guardErrorTol       = 0.01
	guardHitRateSlack   = 0.10
	guardSmallRateSlack = 0.25
)

// shadowQueue bounds the sample queue between the hot path and the shadow
// worker; full means drop, never block.
const shadowQueue = 64

func (c Config) withDefaults() Config {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 8
	}
	if c.Reservoir <= 0 {
		c.Reservoir = 512
	}
	if c.KeyWindow <= 0 {
		c.KeyWindow = 256
	}
	if c.ReuseStrikes <= 0 {
		c.ReuseStrikes = 2
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = 250 * time.Millisecond
	}
	if c.CanaryFraction <= 0 {
		c.CanaryFraction = 0.10
	}
	if c.CanaryFraction < 0.01 {
		c.CanaryFraction = 0.01
	}
	if c.CanaryFraction > 0.5 {
		c.CanaryFraction = 0.5
	}
	if c.CanaryMinRequests <= 0 {
		c.CanaryMinRequests = 200
	}
	if c.CanaryTimeout <= 0 {
		c.CanaryTimeout = 60 * time.Second
	}
	if c.GuardLatencyTol <= 0 {
		c.GuardLatencyTol = 0.5
	}
	if c.PassStreak <= 0 {
		c.PassStreak = 2
	}
	if c.FailStreak <= 0 {
		c.FailStreak = 2
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	return c
}

// Guard is one serving arm's guard-metric snapshot: cumulative counters
// plus the current windowed p99. The controller judges canaries on
// counter deltas from the canary's start.
type Guard struct {
	Requests     int64
	Errors       int64
	P99          time.Duration
	CacheHits    int64
	CacheMisses  int64
	CascadeTotal int64
	CascadeSmall int64
	Sheds        int64
}

func (g Guard) errRate(base Guard) float64 {
	n := g.Requests - base.Requests
	if n <= 0 {
		return 0
	}
	return float64(g.Errors-base.Errors) / float64(n)
}

func (g Guard) hitRate(base Guard) (float64, bool) {
	h := g.CacheHits - base.CacheHits
	m := g.CacheMisses - base.CacheMisses
	if h+m <= 0 {
		return 0, false
	}
	return float64(h) / float64(h+m), true
}

func (g Guard) smallRate(base Guard) (float64, bool) {
	n := g.CascadeTotal - base.CascadeTotal
	if n <= 0 {
		return 0, false
	}
	return float64(g.CascadeSmall-base.CascadeSmall) / float64(n), true
}

// Hooks connects a controller to the serving tier without importing it:
// the registry supplies closures over its own canary machinery.
type Hooks struct {
	// StartCanary deploys the candidate beside the incumbent at the
	// given traffic fraction.
	StartCanary func(tag string, cand *core.Optimized, fraction float64) error
	// Promote makes the canary the active version (the incumbent drains);
	// Rollback discards the canary.
	Promote  func() error
	Rollback func() error
	// Guards snapshots both arms; ok is false when no canary is running
	// (e.g. an operator deploy displaced it).
	Guards func() (incumbent, canary Guard, ok bool)
	// SLO is the serving tier's p99 target for the model, which the p99
	// guard compares against (0 keeps the guard purely relative to the
	// incumbent).
	SLO time.Duration
}

// State names the controller's lifecycle phase.
type State int32

const (
	// StateIdle: detectors watching, no candidate in flight.
	StateIdle State = iota
	// StateCanarying: a candidate plan is serving a traffic fraction.
	StateCanarying
	// StateCooldown: a rollback happened recently; re-fits suppressed.
	StateCooldown
)

func (s State) String() string {
	switch s {
	case StateCanarying:
		return "canarying"
	case StateCooldown:
		return "cooldown"
	default:
		return "idle"
	}
}

// sample is one shadow-sampled request row.
type sample struct {
	inputs map[string]value.Value // single row
}

// Controller is one model's adaptation loop. The hot path touches only
// ObserveRequest (an atomic counter and a non-blocking channel send);
// detector state, the reservoir, and the canary state machine live on
// the shadow worker and ticker goroutines behind one mutex.
type Controller struct {
	cfg   Config
	hooks Hooks

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	tick    atomic.Int64
	sampled atomic.Int64
	dropped atomic.Int64

	shadowQ chan sample

	mu        sync.Mutex
	opt       *core.Optimized // incumbent (replaced on promote)
	candidate *core.Optimized
	inputs    []string // incumbent request schema, sorted for stable keys

	// shadow is a cache-free runtime clone of the incumbent that shadow
	// predictions run on: scoring sampled rows on the incumbent itself
	// would re-look-up keys just served through its live feature caches,
	// inflating the hit counters the canary hit-rate guard compares arms
	// by and biasing judgement against every candidate.
	shadow *core.Optimized

	// anchorCols are the raw source columns of the plan's highest-budget
	// cached IFV: the key tuple whose live reuse the plan's estimate is
	// checked against. Empty falls back to the whole request key.
	anchorCols []string

	reuse *ReuseDrift
	ph    *PageHinkley
	ks    *KSWindow

	keyDrift   bool
	scoreDrift bool

	reservoir []sample // sliding ring of recent sampled rows
	resIdx    int
	resFull   bool
	smalls    []float64 // shadow score pairs, same ring discipline
	fulls     []float64

	state         State
	canaryTag     string
	canaryStart   time.Time
	baseInc       Guard
	baseCan       Guard
	passStreak    int
	failStreak    int
	cooldownUntil time.Time
	predSmallFrac float64
	havePredSmall bool

	keyDriftEvents   atomic.Int64
	scoreDriftEvents atomic.Int64
	refits           atomic.Int64
	canaries         atomic.Int64
	promotions       atomic.Int64
	rollbacks        atomic.Int64
	canaryErrors     atomic.Int64

	lastObserved       float64
	lastExpected       float64
	lastRollbackReason string
	started            bool
	closeOnce          sync.Once
}

// New builds a controller for the given incumbent pipeline. Call Start
// to launch its goroutines and ObserveRequest from the request path.
func New(opt *core.Optimized, cfg Config, hooks Hooks) *Controller {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	c := &Controller{
		cfg:     cfg,
		hooks:   hooks,
		ctx:     ctx,
		cancel:  cancel,
		shadowQ: make(chan sample, shadowQueue),
		opt:     opt,
		reuse:   NewReuseDrift(cfg.KeyWindow, cfg.ReuseStrikes),
		ph:      new(PageHinkley),
		ks:      NewKSWindow(scoreWindow),
	}
	c.reservoir = make([]sample, 0, cfg.Reservoir)
	c.bindIncumbent(opt)
	return c
}

// bindIncumbent resolves the schema and drift reference for a (new)
// incumbent plan. Caller holds mu (or is the constructor).
func (c *Controller) bindIncumbent(opt *core.Optimized) {
	c.opt = opt
	c.shadow = opt.CloneForRefit()
	c.shadow.Prog.DisableFeatureCaching()
	c.inputs = append([]string(nil), opt.Inputs()...)
	c.anchorCols = nil
	specs := opt.Prog.CacheSpecs()
	best, bestCap := -1, int64(-1)
	for _, sp := range specs {
		capa := int64(sp.Capacity)
		if capa <= 0 {
			capa = 1 << 40 // unbounded outranks any budget
		}
		if capa > bestCap {
			best, bestCap = sp.IFV, capa
		}
	}
	if best >= 0 {
		ifv := opt.Prog.A.IFVs[best]
		for _, sid := range ifv.Sources {
			c.anchorCols = append(c.anchorCols, opt.Prog.G.Node(sid).Label)
		}
	}
	for _, st := range opt.CachePlan() {
		if st.IFV == best && st.Cached {
			c.reuse.SetExpected(st.EstimatedHitRate)
			c.lastExpected = st.EstimatedHitRate
			return
		}
	}
	if rate, ok := opt.PlannedHitRate(); ok {
		c.reuse.SetExpected(rate)
		c.lastExpected = rate
	}
	// No plan stats (artifact-loaded pipeline): the first observed window
	// bootstraps the baseline inside ReuseDrift.
}

// Start launches the shadow worker and the check ticker.
func (c *Controller) Start() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()
	c.wg.Add(2)
	go c.shadowWorker()
	go c.ticker()
}

// Close stops the controller's goroutines. It never touches the serving
// tier — a live canary stays up for the registry to resolve.
func (c *Controller) Close() {
	c.closeOnce.Do(func() {
		c.cancel()
		c.wg.Wait()
	})
}

// ObserveRequest offers one live request to the shadow sampler: one in
// SampleEvery requests has its first row cloned onto the shadow queue.
// Never blocks; a full queue drops the sample.
func (c *Controller) ObserveRequest(inputs map[string]value.Value, rows int) {
	if c == nil || rows <= 0 {
		return
	}
	if n := c.tick.Add(1); int(n%int64(c.cfg.SampleEvery)) != 0 {
		return
	}
	row := make(map[string]value.Value, len(inputs))
	for k, v := range inputs {
		if v.Len() < 1 {
			return
		}
		if v.Len() == 1 {
			row[k] = v
		} else {
			row[k] = v.Gather([]int{0})
		}
	}
	select {
	case c.shadowQ <- sample{inputs: row}:
		c.sampled.Add(1)
	default:
		c.dropped.Add(1)
	}
}

func (c *Controller) shadowWorker() {
	defer c.wg.Done()
	for {
		select {
		case <-c.ctx.Done():
			return
		case s := <-c.shadowQ:
			c.processSample(s)
		}
	}
}

// fnv1a hashes a key buffer (inline FNV-1a, no allocation).
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// processSample runs one shadow evaluation: key-reuse accounting on the
// anchor key tuple, small+full shadow predictions feeding the score
// detectors and the re-fit pair reservoir, and the row reservoir.
func (c *Controller) processSample(s sample) {
	c.mu.Lock()
	shadow := c.shadow
	anchor := c.anchorCols
	if len(anchor) == 0 {
		anchor = c.inputs
	}
	c.mu.Unlock()

	cols := make([]value.Value, 0, len(anchor))
	for _, name := range anchor {
		v, ok := s.inputs[name]
		if !ok {
			return // schema mismatch (mid-swap sample); skip
		}
		cols = append(cols, v)
	}
	key := fnv1a(cache.AppendRowKey(nil, cols, 0))

	// Shadow predictions run off the hot path on the cache-free shadow
	// clone, so they never touch the incumbent's live feature caches or
	// its guard counters. With an approximate model present, the small
	// score is the drift signal and (small, full) pairs feed threshold
	// re-fits; without one, the full score alone feeds the distribution
	// detectors.
	var score float64
	var small, full float64
	haveSmall := false
	if shadow.Approx != nil {
		sp, err := shadow.Approx.SmallOnlyPredict(c.ctx, s.inputs)
		if err != nil || len(sp) == 0 {
			return
		}
		small, haveSmall = sp[0], true
		score = small
	}
	fp, err := shadow.PredictFull(c.ctx, s.inputs)
	if err != nil || len(fp) == 0 {
		return
	}
	full = fp[0]
	if !haveSmall {
		score = full
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reuse.Add(key) && !c.keyDrift {
		c.keyDrift = true
		c.keyDriftEvents.Add(1)
	}
	phHit := c.ph.Add(score)
	ksHit := c.ks.Add(score)
	if (phHit || ksHit) && !c.scoreDrift {
		c.scoreDrift = true
		c.scoreDriftEvents.Add(1)
	}
	if obs, ok := c.reuse.Observed(); ok {
		c.lastObserved = obs
	}
	if exp, ok := c.reuse.Expected(); ok {
		c.lastExpected = exp
	}
	if cap(c.reservoir) == 0 {
		return
	}
	if len(c.reservoir) < cap(c.reservoir) {
		c.reservoir = append(c.reservoir, s)
		if haveSmall {
			c.smalls = append(c.smalls, small)
			c.fulls = append(c.fulls, full)
		}
		return
	}
	c.resFull = true
	c.reservoir[c.resIdx] = s
	if haveSmall && c.resIdx < len(c.smalls) {
		c.smalls[c.resIdx] = small
		c.fulls[c.resIdx] = full
	}
	c.resIdx = (c.resIdx + 1) % cap(c.reservoir)
}

func (c *Controller) ticker() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.CheckEvery)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.step(time.Now())
		}
	}
}

// step advances the state machine one judgement cycle.
func (c *Controller) step(now time.Time) {
	c.mu.Lock()
	state := c.state
	c.mu.Unlock()
	switch state {
	case StateCanarying:
		c.judgeCanary(now)
	case StateCooldown:
		c.mu.Lock()
		if now.After(c.cooldownUntil) {
			c.state = StateIdle
		}
		c.mu.Unlock()
	default:
		c.maybeRefit()
	}
}

// maybeRefit re-fits the statistical plan and launches a canary when
// drift is confirmed and the reservoir clears the size floors.
func (c *Controller) maybeRefit() {
	c.mu.Lock()
	if c.state != StateIdle || (!c.keyDrift && !c.scoreDrift) {
		c.mu.Unlock()
		return
	}
	if len(c.reservoir) < core.ReplanMinReservoirRows {
		c.mu.Unlock()
		return
	}
	opt := c.opt
	rows := append([]sample(nil), c.reservoir...)
	smalls := append([]float64(nil), c.smalls...)
	fulls := append([]float64(nil), c.fulls...)
	c.mu.Unlock()

	ds, err := buildDataset(rows, c.inputs)
	if err != nil {
		return
	}

	// Fold shadow-profiled live costs into the incumbent's cost model
	// before cloning, so the candidate plans against production costs.
	opt.AdoptLiveProfile()
	cand := opt.CloneForRefit()

	changed := false
	havePred := false
	var predSmall float64
	if opt.Cascade != nil && len(smalls) >= core.RefitMinScorePairs {
		if rr, err := core.RefitCascadeThreshold(smalls, fulls, opt.AccuracyTarget()); err == nil {
			cand.SetCascadeThreshold(rr.Threshold, rr.Agreement)
			predSmall, havePred = rr.SmallFrac, true
			if old, ok := opt.CascadeThreshold(); !ok || old != rr.Threshold {
				changed = true
			}
		}
	}
	if specs, stats, err := cand.ReplanFeatureCache(ds, 0); err == nil {
		// A replanned split identical to the incumbent's is not a change:
		// canarying it would only churn versions (promotion resets the
		// detectors, the same drift re-confirms, the same plan re-canaries,
		// forever).
		if !sameCacheSpecs(specs, cand.Prog.CacheSpecs()) {
			changed = true
		}
		cand.ApplyCacheSpecs(specs, stats)
	}
	if !changed {
		// Nothing to adapt — no cascade and no cache budget, or re-fitting
		// reproduced the incumbent's own plan. The drift is real but a
		// re-fit cannot act on it, so adopt the observed regime as the
		// detectors' new baseline: detection re-arms against current
		// traffic instead of re-tripping instantly on drift the controller
		// has already established it cannot fix.
		c.mu.Lock()
		if obs, ok := c.reuse.Observed(); ok {
			c.reuse.SetExpected(obs)
			c.lastExpected = obs
		}
		c.ks.Reset()
		c.clearDriftLocked()
		c.mu.Unlock()
		return
	}
	c.refits.Add(1)
	if c.cfg.MutateCandidate != nil {
		c.cfg.MutateCandidate(cand)
	}

	tag := fmt.Sprintf("adapt-%d", c.canaries.Load()+1)
	if err := c.hooks.StartCanary(tag, cand, c.cfg.CanaryFraction); err != nil {
		c.canaryErrors.Add(1)
		c.mu.Lock()
		c.clearDriftLocked()
		c.mu.Unlock()
		return
	}
	c.canaries.Add(1)
	inc, can, _ := c.hooks.Guards()
	c.mu.Lock()
	c.state = StateCanarying
	c.candidate = cand
	c.canaryTag = tag
	c.canaryStart = time.Now()
	c.baseInc, c.baseCan = inc, can
	c.passStreak, c.failStreak = 0, 0
	c.predSmallFrac, c.havePredSmall = predSmall, havePred
	c.mu.Unlock()
}

// judgeCanary compares the canary's guard metrics against the incumbent
// with hysteresis, promoting or rolling back when a streak completes.
func (c *Controller) judgeCanary(now time.Time) {
	inc, can, ok := c.hooks.Guards()
	if !ok {
		// The canary vanished underneath us (operator deploy / undeploy):
		// abandon the candidate and return to watching.
		c.mu.Lock()
		c.candidate = nil
		c.state = StateIdle
		c.clearDriftLocked()
		c.mu.Unlock()
		return
	}
	c.mu.Lock()
	baseInc, baseCan := c.baseInc, c.baseCan
	start := c.canaryStart
	havePred, predSmall := c.havePredSmall, c.predSmallFrac
	c.mu.Unlock()

	dIncReq := inc.Requests - baseInc.Requests
	dCanReq := can.Requests - baseCan.Requests
	if dCanReq < c.cfg.CanaryMinRequests || dIncReq < c.cfg.CanaryMinRequests {
		if now.Sub(start) > c.cfg.CanaryTimeout {
			c.resolveCanary(false, "timeout: insufficient judgeable traffic")
		}
		return
	}

	pass := true
	if can.errRate(baseCan) > inc.errRate(baseInc)+guardErrorTol {
		pass = false
	}
	latCeil := time.Duration(float64(inc.P99) * (1 + c.cfg.GuardLatencyTol))
	if can.P99 > latCeil && can.P99 > c.hooks.SLO {
		pass = false
	}
	if canHR, ok := can.hitRate(baseCan); ok {
		if incHR, ok2 := inc.hitRate(baseInc); ok2 && canHR < incHR-guardHitRateSlack {
			pass = false
		}
	} else if _, ok2 := inc.hitRate(baseInc); ok2 {
		// The incumbent serves cache traffic and the candidate serves
		// none at all: the candidate lost its caches (a degenerate plan).
		pass = false
	}
	if havePred {
		if sr, ok := can.smallRate(baseCan); ok && sr > predSmall+guardSmallRateSlack {
			pass = false
		}
	}
	dCanShed := can.Sheds - baseCan.Sheds
	dIncShed := inc.Sheds - baseInc.Sheds
	if dCanReq > 0 && dIncReq > 0 {
		if float64(dCanShed)/float64(dCanReq) > float64(dIncShed)/float64(dIncReq)+guardErrorTol {
			pass = false
		}
	}

	c.mu.Lock()
	if pass {
		c.passStreak++
		c.failStreak = 0
	} else {
		c.failStreak++
		c.passStreak = 0
	}
	promote := c.passStreak >= c.cfg.PassStreak
	rollback := c.failStreak >= c.cfg.FailStreak
	c.mu.Unlock()

	if promote {
		c.resolveCanary(true, "")
	} else if rollback {
		c.resolveCanary(false, "guard regression")
	}
}

// resolveCanary finishes a canary: promote adopts the candidate as the
// new incumbent and re-arms the detectors for its regime; rollback
// discards it and enters cooldown. Either way the serving tier re-primes
// admission state across the swap.
func (c *Controller) resolveCanary(promote bool, reason string) {
	if !promote {
		c.mu.Lock()
		c.lastRollbackReason = reason
		c.mu.Unlock()
	}
	if promote {
		if err := c.hooks.Promote(); err != nil {
			c.canaryErrors.Add(1)
			c.mu.Lock()
			c.candidate = nil
			c.state = StateIdle
			c.mu.Unlock()
			return
		}
		c.promotions.Add(1)
		c.mu.Lock()
		if c.candidate != nil {
			c.bindIncumbent(c.candidate)
		}
		c.candidate = nil
		c.state = StateIdle
		c.resetDetectorsLocked()
		c.mu.Unlock()
		return
	}
	if err := c.hooks.Rollback(); err != nil {
		c.canaryErrors.Add(1)
	}
	c.rollbacks.Add(1)
	c.mu.Lock()
	c.candidate = nil
	c.state = StateCooldown
	c.cooldownUntil = time.Now().Add(c.cfg.Cooldown)
	// The environment still looks drifted — the candidate was just bad.
	// Clear the score detectors' accumulated state so the cooldown ends
	// with a fresh confirmation rather than an instant re-trigger, but
	// keep the reservoir: more data makes the next fit better.
	c.clearDriftLocked()
	c.mu.Unlock()
}

// clearDriftLocked drops latched drift flags and resets detector
// accumulators (keeping references/baselines). Caller holds mu.
func (c *Controller) clearDriftLocked() {
	c.keyDrift = false
	c.scoreDrift = false
	c.ph.Reset()
	c.reuse.Reset()
}

// resetDetectorsLocked re-arms everything for a new incumbent regime:
// score references rebuild from post-swap traffic, the reservoir drops
// rows sampled under the old plan. Caller holds mu.
func (c *Controller) resetDetectorsLocked() {
	c.clearDriftLocked()
	c.ks.Reset()
	c.reservoir = c.reservoir[:0]
	c.smalls = c.smalls[:0]
	c.fulls = c.fulls[:0]
	c.resIdx = 0
	c.resFull = false
}

// sameCacheSpecs reports whether two cache plans cache identical IFVs at
// identical capacities (order-insensitive).
func sameCacheSpecs(a, b []weld.CacheSpec) bool {
	if len(a) != len(b) {
		return false
	}
	caps := make(map[int]int, len(a))
	for _, sp := range a {
		caps[sp.IFV] = sp.Capacity
	}
	for _, sp := range b {
		if capa, ok := caps[sp.IFV]; !ok || capa != sp.Capacity {
			return false
		}
	}
	return true
}

// buildDataset assembles a core.Dataset from reservoir rows (no labels —
// re-fits are label-free). Rows whose column kinds can't be concatenated
// are skipped.
func buildDataset(rows []sample, schema []string) (core.Dataset, error) {
	if len(rows) == 0 {
		return core.Dataset{}, fmt.Errorf("adapt: empty reservoir")
	}
	inputs := make(map[string]value.Value, len(schema))
	for _, name := range schema {
		first, ok := rows[0].inputs[name]
		if !ok {
			return core.Dataset{}, fmt.Errorf("adapt: reservoir missing column %q", name)
		}
		switch first.Kind {
		case value.Ints:
			col := make([]int64, 0, len(rows))
			for _, r := range rows {
				v := r.inputs[name]
				if v.Kind != value.Ints || len(v.Ints) == 0 {
					return core.Dataset{}, fmt.Errorf("adapt: reservoir column %q changed kind", name)
				}
				col = append(col, v.Ints[0])
			}
			inputs[name] = value.NewInts(col)
		case value.Floats:
			col := make([]float64, 0, len(rows))
			for _, r := range rows {
				v := r.inputs[name]
				if v.Kind != value.Floats || len(v.Floats) == 0 {
					return core.Dataset{}, fmt.Errorf("adapt: reservoir column %q changed kind", name)
				}
				col = append(col, v.Floats[0])
			}
			inputs[name] = value.NewFloats(col)
		case value.Strings:
			col := make([]string, 0, len(rows))
			for _, r := range rows {
				v := r.inputs[name]
				if v.Kind != value.Strings || len(v.Strings) == 0 {
					return core.Dataset{}, fmt.Errorf("adapt: reservoir column %q changed kind", name)
				}
				col = append(col, v.Strings[0])
			}
			inputs[name] = value.NewStrings(col)
		default:
			return core.Dataset{}, fmt.Errorf("adapt: reservoir column %q has unsupported kind %v", name, first.Kind)
		}
	}
	return core.Dataset{Inputs: inputs}, nil
}

// Snapshot is the controller's observable state: drift-detector readings,
// canary lifecycle, and cumulative adaptation counters. It is also the
// `adaptation` block of the serving stats response — the json tags are
// that wire format, so a new field is declared here once (and exported on
// /metrics by one row of serving's family table).
type Snapshot struct {
	// State is the controller's phase: "idle", "canarying", "cooldown".
	State string `json:"state"`
	// CanaryTag / CanaryFraction describe the in-flight canary ("" / 0
	// outside canary rollouts).
	CanaryTag      string  `json:"canary_tag,omitempty"`
	CanaryFraction float64 `json:"canary_fraction,omitempty"`

	// Sampled counts requests shadow-sampled into the detectors;
	// ShadowDropped those lost to a full shadow queue (never blocking the
	// hot path); ReservoirRows the rows currently available for a re-fit.
	Sampled       int64 `json:"sampled,omitempty"`
	ShadowDropped int64 `json:"shadow_dropped,omitempty"`
	ReservoirRows int   `json:"reservoir_rows,omitempty"`

	// KeyReuseObserved / KeyReuseExpected are the live key-reuse
	// measurement and the cache plan's estimate it is checked against;
	// ScorePH and ScoreKS the score-drift detector statistics. KeyDrift /
	// ScoreDrift latch confirmed-but-unresolved drift.
	KeyReuseObserved float64 `json:"key_reuse_observed,omitempty"`
	KeyReuseExpected float64 `json:"key_reuse_expected,omitempty"`
	ScorePH          float64 `json:"score_ph,omitempty"`
	ScoreKS          float64 `json:"score_ks,omitempty"`
	KeyDrift         bool    `json:"key_drift,omitempty"`
	ScoreDrift       bool    `json:"score_drift,omitempty"`

	// Lifecycle counters: drift confirmations by signal, plan re-fits,
	// canaries launched, promoted, rolled back, and canary hook errors.
	KeyDriftEvents   int64 `json:"key_drift_events,omitempty"`
	ScoreDriftEvents int64 `json:"score_drift_events,omitempty"`
	Refits           int64 `json:"refits,omitempty"`
	Canaries         int64 `json:"canaries,omitempty"`
	Promotions       int64 `json:"promotions,omitempty"`
	Rollbacks        int64 `json:"rollbacks,omitempty"`
	CanaryErrors     int64 `json:"canary_errors,omitempty"`

	// LastRollback is the most recent rollback's reason ("" before any).
	LastRollback string `json:"last_rollback,omitempty"`
}

// Snapshot copies the controller's observable state.
func (c *Controller) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	c.mu.Lock()
	s := Snapshot{
		State:            c.state.String(),
		KeyReuseObserved: c.lastObserved,
		KeyReuseExpected: c.lastExpected,
		ScorePH:          c.ph.Score(),
		ScoreKS:          c.ks.Statistic(),
		KeyDrift:         c.keyDrift,
		ScoreDrift:       c.scoreDrift,
		ReservoirRows:    len(c.reservoir),
	}
	s.LastRollback = c.lastRollbackReason
	if c.state == StateCanarying {
		s.CanaryTag = c.canaryTag
		s.CanaryFraction = c.cfg.CanaryFraction
	}
	c.mu.Unlock()
	s.Sampled = c.sampled.Load()
	s.ShadowDropped = c.dropped.Load()
	s.KeyDriftEvents = c.keyDriftEvents.Load()
	s.ScoreDriftEvents = c.scoreDriftEvents.Load()
	s.Refits = c.refits.Load()
	s.Canaries = c.canaries.Load()
	s.Promotions = c.promotions.Load()
	s.Rollbacks = c.rollbacks.Load()
	s.CanaryErrors = c.canaryErrors.Load()
	return s
}

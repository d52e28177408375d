package serving

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"willump/internal/adapt"
	"willump/internal/admission"
	"willump/internal/cascade"
	"willump/internal/core"
	"willump/internal/metrics"
	"willump/internal/trace"
	"willump/internal/value"
	"willump/internal/weld"
)

// ErrOverloaded reports that a model's bounded request queue was full and
// admission control turned the request away (HTTP 429 on the wire). It is
// retryable: the queue drains at the model's service rate, so backing off
// and retrying is the correct client response.
var ErrOverloaded = errors.New("serving: server overloaded")

// ErrModelNotFound reports that no deployed model matches the requested
// name (HTTP 404 on the wire).
var ErrModelNotFound = errors.New("serving: model not found")

// errVersionStopped is the internal signal that a submit raced a version
// swap; the caller re-resolves the active version and retries.
var errVersionStopped = errors.New("serving: model version draining")

// Registry hosts many named, versioned models behind one serving frontend.
// Each deployed version batches its own traffic (see version.submit: the
// request handlers themselves execute the batches, behind a bounded queue);
// Deploy atomically swaps a model's active version while the old version
// finishes the work it admitted, so a hot swap loses no requests. A Registry
// is hosted by (at most) one Server, whose Shutdown closes it.
type Registry struct {
	opts Options

	mu          sync.RWMutex
	models      map[string]*Hosted
	defaultName string
	closed      bool
	// retired stashes undeployed models' admission-controller state by
	// name: a later redeploy under the same name re-primes its fresh
	// controller from the retired forecast instead of reopening the
	// cold-start admit-everything window.
	retired map[string]admission.State

	// baseCtx is the execution context of merged batches, which no single
	// member's context may abort; cancelled only on force-close, so graceful
	// drains run work to completion.
	baseCtx context.Context
	cancel  context.CancelFunc
	// versions is every version that may still hold work: the serving ones
	// and those swapped out but not yet drained. Close waits on them.
	versions []*version
}

// NewRegistry returns an empty registry. opts supplies the serving defaults
// (batch bounds, queue depth, prediction cache) applied to every deployed
// model.
func NewRegistry(opts Options) *Registry {
	baseCtx, cancel := context.WithCancel(context.Background())
	return &Registry{
		opts:    opts.withDefaults(),
		models:  make(map[string]*Hosted),
		retired: make(map[string]admission.State),
		baseCtx: baseCtx,
		cancel:  cancel,
	}
}

// Hosted is one named model: an atomically swappable active version plus
// what survives swaps — telemetry, the admission controller — and serve, the
// one path every predict and top-K request of the model runs.
type Hosted struct {
	name   string
	active atomic.Pointer[version]
	stats  *modelStats
	// lone bounds the calls that execute outside the version's batching
	// (per-request options, top-K) the same way the queue bounds the ones
	// inside it: QueueDepth of them at once, ErrOverloaded beyond.
	lone chan struct{}
	// admit is the model's SLO controller: service-time forecast,
	// predictive shedding, adaptive concurrency limit, and the brownout
	// ladder. Like stats, it lives on the Hosted model so forecasts and
	// counters survive hot swaps. Always non-nil; disabled (SLO zero) it
	// admits everything and only counts expired waiters.
	admit *admission.Controller

	// canary is the guarded candidate version a bounded fraction of
	// mergeable traffic routes to (nil outside canary rollouts).
	// canaryPermille is that fraction in thousandths of requests;
	// routeTick spreads routing decisions deterministically so the canary
	// sees exactly its share under any arrival order.
	canary         atomic.Pointer[version]
	canaryPermille atomic.Int64
	routeTick      atomic.Uint64

	// adaptCtl is the model's online adaptation controller when enabled
	// (EnableAdaptation); adaptCfg keeps its configuration for restarts
	// across operator deploys, guarded by the registry mutex.
	adaptCtl atomic.Pointer[adapt.Controller]
	adaptCfg *adapt.Config
}

// route picks the serving arm for one mergeable call: the canary when
// one is live and the request's slot falls inside its traffic fraction,
// the active version otherwise.
func (h *Hosted) route() *version {
	c := h.canary.Load()
	if c == nil {
		return h.active.Load()
	}
	pm := h.canaryPermille.Load()
	if pm > 0 && int64(h.routeTick.Add(1)%1000) < pm {
		return c
	}
	return h.active.Load()
}

// submit runs c through the routed version, falling back to the model's
// active version when the routed arm is draining (a canary resolved between
// routing and submit, or a hot swap is installing a new active version) — a
// request never fails because a version ended underneath it. The fallback
// keeps the admission slot acquired on the routed arm's controller (the
// caller's Release pairs with that Admit), so for the instant of canary
// resolution the work runs on the active arm while the drained arm's
// controller carries the inflight accounting: a bounded one-request skew that
// self-corrects on Release, preferable to double-admitting or failing the
// request.
func (h *Hosted) submit(v *version, c call) answer {
	for attempt := 0; attempt < 8 && v != nil; attempt++ {
		if a := v.submit(c); !errors.Is(a.err, errVersionStopped) {
			return a
		}
		v = h.active.Load()
	}
	if v == nil {
		return answer{err: fmt.Errorf("serving: model %q: %w", h.name, ErrModelNotFound)}
	}
	return answer{err: fmt.Errorf("serving: model %q: version churn, request not admitted", h.name)}
}

// queueLen reports the active version's current queue depth (0 when the
// model is undeployed) — the backlog the admission controller's queueing
// model prices.
func (h *Hosted) queueLen() int {
	if v := h.active.Load(); v != nil {
		return int(v.queued.Load())
	}
	return 0
}

// tracer returns the active version's request tracer, or nil when the
// model is a black box, undeployed, or tracing is disabled. Safe to call on
// every request: trace.Tracer methods are nil-receiver no-ops.
func (h *Hosted) tracer() *trace.Tracer {
	if v := h.active.Load(); v != nil && v.opt != nil {
		return v.opt.Tracer()
	}
	return nil
}

// version is one immutable deployed model version with its own request
// queue and batching state.
type version struct {
	model  string
	tag    string
	opt    *core.Optimized // nil when hosting a black-box Predictor
	box    Predictor       // the black box; nil when opt is set
	inputs []string
	opts   Options
	stats  *modelStats
	// admit is the arm's admission controller: the Hosted model's for
	// versions installed by Deploy, a private controller (primed from the
	// incumbent's forecast) for canaries, so a misbehaving candidate sheds
	// its own traffic slice without dragging the incumbent's forecast.
	admit *admission.Controller
	// arm is the version's own telemetry, which the canary guard judges:
	// the same accumulator as stats (which lives on the Hosted model and
	// spans both arms), fed by mergeable traffic only — the traffic both arms
	// can receive — so a canary is never judged against the incumbent's
	// top-K or option-carrying latencies. Its rejected counter is the arm's
	// sheds.
	arm *modelStats
	// cache is the end-to-end prediction cache when enabled. The version
	// computes the misses itself (exec), so the cache wraps no predictor.
	cache *CachedPredictor

	// Batching state (see submit). busy says a leader holds the version: it
	// is assembling or executing a batch, or has been promoted to. Requests
	// that arrive meanwhile wait in ring, a FIFO of QueueDepth slots starting
	// at head; queued is its length (written under mu, read anywhere) and
	// queuedRows the rows it holds. Once stopped is set nothing new is
	// admitted, and drained closes when the version is also idle — idle
	// always means an empty queue, because a leader hands off before it
	// leaves.
	mu         sync.Mutex
	busy       bool
	stopped    bool
	ring       []*waiter
	head       int
	queued     atomic.Int64
	queuedRows int
	drained    chan struct{}
	// need is how many queued rows would fill the batch of a leader that is
	// waiting for stragglers (0: nobody waits); the arrival that supplies
	// them wakes it through full.
	need int
	full chan struct{}

	batching batchStats

	// Leader-owned scratch, reused across batches: busy admits one leader at
	// a time and every turn ends in handoff, whose lock orders one leader's
	// writes before the next one's reads.
	batch      []*waiter
	mergeCols  map[string][]value.Value
	mergeInput map[string]value.Value

	baseCtx context.Context
}

// batchStats counts a version's batching decisions: the causes behind its
// latency, which is what the batching tests pin.
type batchStats struct {
	// inline counts requests that found the version idle and were executed
	// at once by their own handler.
	inline atomic.Int64
	// mergedBatches counts executions that answered more than one request,
	// mergedRows the rows they carried.
	mergedBatches atomic.Int64
	mergedRows    atomic.Int64
	// waits counts straggler waits taken.
	waits atomic.Int64
}

// Deploy installs version tag of the optimized pipeline under name,
// atomically replacing any previously active version. The old version keeps
// serving what it already admitted until its queue is empty, so requests in
// flight across the swap complete on the version that admitted them. The first
// model deployed becomes the registry default (the legacy /predict route).
func (r *Registry) Deploy(name, tag string, o *core.Optimized) error {
	if o == nil {
		return fmt.Errorf("serving: deploying %q: nil optimized pipeline", name)
	}
	if err := r.deploy(name, tag, o, nil, o.Inputs()); err != nil {
		return err
	}
	// An operator deploy invalidates the adaptation controller's incumbent
	// and displaces any canary it was judging: restart adaptation on the
	// new pipeline when the model had it enabled.
	r.readaptAfterDeploy(name, o)
	return nil
}

// DeployPredictor installs a black-box batch predictor under name. inputs
// is its request schema for describe routes and cache keys (may be nil).
// Black-box models serve default and deadline-bounded requests; requests
// overriding cascade thresholds or top-K budgets are rejected, since the
// registry cannot see inside the predictor.
func (r *Registry) DeployPredictor(name, tag string, p Predictor, inputs []string) error {
	if p == nil {
		return fmt.Errorf("serving: deploying %q: nil predictor", name)
	}
	if err := r.deploy(name, tag, nil, p, inputs); err != nil {
		return err
	}
	// Adaptation needs an optimized pipeline to re-fit; a black-box deploy
	// under an adapted name turns the controller off.
	r.mu.RLock()
	h, ok := r.models[name]
	adapted := ok && h.adaptCfg != nil
	r.mu.RUnlock()
	if adapted {
		r.DisableAdaptation(name) //nolint:errcheck // model just deployed
	}
	return nil
}

func validName(name string) error {
	if name == "" {
		return fmt.Errorf("serving: empty model name")
	}
	if strings.ContainsAny(name, "/ \t\n") {
		return fmt.Errorf("serving: model name %q may not contain slashes or whitespace", name)
	}
	return nil
}

func (r *Registry) deploy(name, tag string, o *core.Optimized, p Predictor, inputs []string) error {
	if err := validName(name); err != nil {
		return err
	}
	if tag == "" {
		return fmt.Errorf("serving: deploying %q: empty version tag", name)
	}
	if r.opts.CacheCapacity != 0 && len(r.opts.CacheKeyOrder) == 0 && len(inputs) == 0 {
		// Detectable now, fatal later: a keyless cache would fail every
		// prediction at request time.
		return fmt.Errorf("serving: deploying %q: prediction cache enabled but no cache key columns (set CacheKeyOrder or deploy a pipeline with a known input schema)", name)
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("serving: registry is closed")
	}
	h, ok := r.models[name]
	if !ok {
		h = &Hosted{
			name:  name,
			stats: newModelStats(),
			lone:  make(chan struct{}, r.opts.QueueDepth),
			admit: admission.New(admission.Config{
				SLO:      r.opts.SLOTargetP99,
				Brownout: r.opts.Brownout,
			}),
		}
		if st, stashed := r.retired[name]; stashed {
			// Redeploy after an undeploy: re-prime the fresh controller
			// from the retired one's final forecast so the swap never
			// reopens the cold-start admit-everything window.
			h.admit.Reprime(st)
			delete(r.retired, name)
		}
		r.models[name] = h
		if r.defaultName == "" {
			r.defaultName = name
		}
	}
	old := h.active.Swap(r.newVersion(h, tag, o, p, inputs, h.admit))
	r.mu.Unlock()

	if old != nil {
		old.beginDrain()
	}
	return nil
}

// newVersion assembles a version of model h with its predictors and an idle
// batching state, and registers it for Close. The caller holds r.mu.
func (r *Registry) newVersion(h *Hosted, tag string, o *core.Optimized, p Predictor, inputs []string, admit *admission.Controller) *version {
	v := &version{
		model:   h.name,
		tag:     tag,
		opt:     o,
		box:     p,
		inputs:  append([]string(nil), inputs...),
		opts:    r.opts,
		stats:   h.stats,
		admit:   admit,
		arm:     &modelStats{latencies: metrics.NewSliding(512)}, // no meter: nobody reads an arm's rate
		ring:    make([]*waiter, r.opts.QueueDepth),
		drained: make(chan struct{}),
		full:    make(chan struct{}, 1),
		baseCtx: r.baseCtx,
	}
	if capacity := r.opts.CacheCapacity; capacity != 0 {
		keys := r.opts.CacheKeyOrder
		if len(keys) == 0 {
			keys = v.inputs
		}
		v.cache = NewCachedPredictor(nil, max(capacity, 0), keys) // < 0: unbounded
	}
	// Versions that finished draining have nothing left for Close to wait on.
	r.versions = slices.DeleteFunc(r.versions, func(old *version) bool {
		select {
		case <-old.drained:
			return true
		default:
			return false
		}
	})
	r.versions = append(r.versions, v)
	return v
}

// supports refuses what this version can never answer, before the call costs
// an admission slot: under pressure it would otherwise be told to retry
// something that cannot succeed.
func (v *version) supports(c *call) error {
	switch {
	case c.topK && (v.opt == nil || v.opt.Filter == nil):
		return badRequestf("model %q was not optimized for top-K queries", v.model)
	case c.topK && c.po.K <= 0:
		return badRequestf("top-K query requires options.k > 0")
	case c.topK:
		return nil
	// The registry cannot reach inside a black box to override optimizer
	// knobs; deadline and point modality are generic (a point query is a
	// single-row batch).
	case v.opt == nil && (c.po.CascadeThreshold != nil || c.po.Budget > 0):
		return badRequestf("model %q is a black-box predictor and does not support optimizer overrides", v.model)
	case c.po.Point && c.n != 1:
		return badRequestf("point query carries %d rows, want 1", c.n)
	}
	return nil
}

// exec is the one place a version computes: the only caller of the optimized
// pipeline's entry points and of a black-box predictor. One row takes the
// compiled point path, which answers bit-identically without the batch path's
// per-call buffers. The prediction cache sees option-free predicts only, so
// one request's overrides — or a degraded answer cached as a normal one —
// never leak into another's results. It reports how the cascade served the
// rows it computed.
func (v *version) exec(ctx context.Context, inputs map[string]value.Value, n int, po core.PredictOptions, topK bool) (a answer, cs cascade.ServeStats) {
	if topK {
		a.idx, a.err = v.opt.TopKOptions(ctx, inputs, po)
		return a, cs
	}
	var hit probed
	if v.cache != nil && po.BatchableZero() {
		if hit, a.err = v.cache.probe(inputs, false); a.err != nil || len(hit.miss) == 0 {
			a.preds = hit.out
			return a, cs
		}
		inputs, n = core.Dataset{Inputs: inputs}.Gather(hit.miss).Inputs, len(hit.miss)
	}
	switch {
	case v.opt == nil:
		if po.Deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, po.Deadline)
			defer cancel()
		}
		a.preds, a.err = v.box.PredictBatch(ctx, inputs)
	case n == 1:
		var p float64
		if p, cs, a.err = v.opt.PredictPointOptions(ctx, inputs, po); a.err == nil {
			a.preds = []float64{p}
		}
	default:
		a.preds, cs, a.err = v.opt.PredictBatchOptions(ctx, inputs, po)
	}
	if a.err == nil && hit.out != nil {
		a.preds = v.cache.fill(hit, a.preds)
	}
	return a, cs
}

// Undeploy removes a model from the registry. Its active version drains in
// the background; requests already admitted complete, new requests 404.
// The model's admission-controller state is stashed so a redeploy under
// the same name re-primes instead of starting cold, its adaptation
// controller stops, and any in-flight canary drains.
func (r *Registry) Undeploy(name string) error {
	r.mu.Lock()
	h, ok := r.models[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("serving: undeploy %q: %w", name, ErrModelNotFound)
	}
	delete(r.models, name)
	if r.defaultName == name {
		r.defaultName = ""
	}
	if h.admit.Primed() {
		r.retired[name] = h.admit.State()
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
	if v := h.active.Swap(nil); v != nil {
		v.beginDrain()
	}
	return nil
}

// SetDefault designates the model served by the legacy /predict route.
func (r *Registry) SetDefault(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[name]; !ok {
		return fmt.Errorf("serving: set default %q: %w", name, ErrModelNotFound)
	}
	r.defaultName = name
	return nil
}

// lookup resolves a model by name; the empty name resolves the default.
func (r *Registry) lookup(name string) (*Hosted, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		name = r.defaultName
		if name == "" {
			return nil, fmt.Errorf("serving: no default model deployed: %w", ErrModelNotFound)
		}
	}
	h, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("serving: model %q: %w", name, ErrModelNotFound)
	}
	return h, nil
}

// ModelInfo describes one deployed model, as reported on /v1/models; the
// json tags are that route's wire format.
type ModelInfo struct {
	// Name and Version identify the active deployment.
	Name    string `json:"name"`
	Version string `json:"version"`
	// Default marks the model behind the legacy /predict route.
	Default bool `json:"default,omitempty"`
	// Inputs is the request schema: the pipeline's raw input column names.
	Inputs []string `json:"inputs,omitempty"`
	// Cascade reports whether an end-to-end cascade is deployed, and
	// CascadeThreshold its Optimize-time confidence threshold.
	Cascade          bool    `json:"cascade,omitempty"`
	CascadeThreshold float64 `json:"cascade_threshold,omitempty"`
	// TopK reports whether the model answers /topk queries.
	TopK bool `json:"topk,omitempty"`
}

// Models lists the deployed models, sorted by name.
func (r *Registry) Models() []ModelInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ModelInfo, 0, len(r.models))
	for name, h := range r.models {
		v := h.active.Load()
		if v == nil {
			continue
		}
		out = append(out, v.info(name == r.defaultName))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (v *version) info(isDefault bool) ModelInfo {
	mi := ModelInfo{
		Name:    v.model,
		Version: v.tag,
		Default: isDefault,
		Inputs:  append([]string(nil), v.inputs...),
	}
	if v.opt != nil {
		if v.opt.Cascade != nil {
			mi.Cascade = true
			mi.CascadeThreshold = v.opt.Cascade.Threshold
		}
		mi.TopK = v.opt.Filter != nil
	}
	return mi
}

// Stats snapshots a model's serving telemetry. Each section is the
// producing package's own snapshot: the active version's feature-cache and
// store-client counters when its pipeline carries them, the admission
// controller's unless it has nothing to say, the adaptation controller's
// when one is attached.
func (r *Registry) Stats(name string) (ModelStats, error) {
	h, err := r.lookup(name)
	if err != nil {
		return ModelStats{}, err
	}
	v := h.active.Load()
	tag := ""
	if v != nil {
		tag = v.tag
	}
	ms := h.stats.snapshot(h.name, tag)
	if v != nil && v.opt != nil {
		if cs, ok := v.opt.FeatureCacheStats(); ok {
			ms.FeatureCache = &FeatureCacheStats{Stats: cs, HitRate: cs.HitRate()}
		}
		if ss, ok := v.opt.FeatureStoreStats(); ok {
			ms.FeatureStore = &ss
		}
	}
	if snap := h.admit.Snapshot(); !snap.Silent() {
		ms.Admission = &snap
	}
	if ctl := h.adaptCtl.Load(); ctl != nil {
		snap := ctl.Snapshot()
		ms.Adaptation = &snap
	}
	for _, s := range h.tracer().Slow() {
		ms.RecentSlow = append(ms.RecentSlow, SlowQuery{
			StartUnixNano: s.Start.UnixNano(),
			Latency:       metrics.Millis(s.Total),
			Err:           s.Err,
			Sampled:       s.Sampled,
		})
	}
	return ms, nil
}

// LiveProfile snapshots the shadow profile the named model's active
// pipeline accumulated from traced production traffic: per-node costs
// measured on live requests, in the same form the Optimize-time cost model
// uses — the continuous-profiling feedback loop. It errors for black-box
// deployments and for pipelines without tracing enabled.
func (r *Registry) LiveProfile(name string) (*weld.Profile, error) {
	h, err := r.lookup(name)
	if err != nil {
		return nil, err
	}
	v := h.active.Load()
	if v == nil || v.opt == nil {
		return nil, fmt.Errorf("serving: model %q has no optimized pipeline deployed: %w", h.name, ErrModelNotFound)
	}
	lp := v.opt.LiveProfile()
	if lp == nil {
		return nil, fmt.Errorf("serving: model %q: tracing (shadow profiling) is not enabled", h.name)
	}
	return lp, nil
}

// hostedModels returns the deployed models sorted by name, for the
// observability handlers (/metrics, /v1/traces) that sweep every model.
func (r *Registry) hostedModels() []*Hosted {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Hosted, 0, len(r.models))
	for _, h := range r.models {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Close drains every version — no leader and nothing queued — and closes
// the registry against further deploys. ctx bounds the drain; when it
// expires, merged batches are cancelled through the execution context,
// everything still queued is answered as shutting down, and Close keeps
// waiting for the leaders to return. A leader executing its own request
// alone runs under that request's context, so it returns once the request's
// owner gives up — the Server kills every request context before it
// force-closes the registry.
func (r *Registry) Close(ctx context.Context) error {
	r.mu.Lock()
	r.closed = true
	versions := r.versions
	var ctls []*adapt.Controller
	for _, h := range r.models {
		if ctl := h.adaptCtl.Swap(nil); ctl != nil {
			ctls = append(ctls, ctl)
		}
		h.canaryPermille.Store(0)
		h.canary.Store(nil)
	}
	r.mu.Unlock()

	// Stop adaptation first (outside the lock: a controller mid-judgement
	// may be waiting on it), so no new canary starts during the drain.
	for _, ctl := range ctls {
		ctl.Close()
	}
	for _, v := range versions {
		v.beginDrain()
	}
	var err error
	for _, v := range versions {
		select {
		case <-v.drained:
		case <-ctx.Done():
			err = ctx.Err()
			r.cancel() // abort merged batches between graph blocks
			<-v.drained
		}
	}
	r.cancel()
	return err
}

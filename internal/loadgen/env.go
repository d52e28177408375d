package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"willump/internal/adapt"
	"willump/internal/core"
	"willump/internal/graph"
	"willump/internal/kvstore"
	"willump/internal/model"
	"willump/internal/ops"
	"willump/internal/serving"
	"willump/internal/store"
	"willump/internal/value"
)

// Env is a self-contained serving stack the load generator can drive
// without external infrastructure: an in-process kvstore (the remote
// feature store), a production store.Client with retries/hedging/breaker,
// a two-lookup pipeline optimized twice (so hot swaps flip between two
// genuinely different deployments), and the real HTTP serving tier in
// front. Chaos scenarios reach through it to the fault-injection knobs.
type Env struct {
	ModelName    string
	AltModelName string
	NKeys        int64

	kv       *kvstore.Server
	kvBase   time.Duration
	storeCli *store.Client
	reg      *serving.Registry
	srv      *serving.Server
	client   *serving.Client
	addr     string

	opts    [2]*core.Optimized
	nextTag int

	// Criticality-classified traffic accounting (CritTarget): responses
	// served brownout-degraded, and criticality-high requests started /
	// hard-failed (errors other than 429 sheds).
	degradedResp atomic.Int64
	highStarted  atomic.Int64
	highHardErr  atomic.Int64

	// Drift-traffic state (DriftTarget): rotated flips the live key skew
	// mid-run, driftSeq supplies the unique side of the key stream.
	rotated  atomic.Bool
	driftSeq atomic.Int64
}

// envDriftHotKeys is the hot-set size for skewed training and drift
// traffic: small enough that a planned cache covers it entirely.
const envDriftHotKeys = 16

// EnvConfig sizes the local environment.
type EnvConfig struct {
	// QueueDepth is the serving tier's admission-control queue depth
	// (default 1024; set small to force overload shedding).
	QueueDepth int
	// StoreLatency is the kvstore's base per-request latency (default 0).
	StoreLatency time.Duration
	// NKeys is the loaded key-space size (default 2048).
	NKeys int64
	// Seed drives table contents and training data.
	Seed int64
	// SLO, when non-zero, enables SLO-aware admission control on the
	// serving tier (predictive shedding + adaptive concurrency).
	SLO time.Duration
	// Brownout enables the graceful-degradation ladder (requires SLO).
	Brownout bool
	// CacheCapacity enables the per-version end-to-end prediction cache —
	// the brownout ladder's cache-only rung answers from it (< 0 unbounded).
	CacheCapacity int
	// FeatureCacheBudget, when positive, optimizes the pipelines with the
	// statistical feature-cache planner under skewed training traffic —
	// user keys drawn from a small hot set, item keys unique — so the plan
	// spends the whole budget on the user-side IFV. Drift scenarios invert
	// that skew live (RotateSkew) to make the plan go stale.
	FeatureCacheBudget int
	// Adapt enables online adaptation on the primary model (drift
	// detection, guarded re-fit, canaried swap) with cadences compressed
	// for scenario-length runs.
	Adapt bool
}

// NewLocalEnv builds and starts the full local stack. Callers own Close.
func NewLocalEnv(cfg EnvConfig) (env *Env, err error) {
	nKeys := cfg.NKeys
	if nKeys <= 0 {
		nKeys = 2048
	}
	e := &Env{ModelName: "demo", AltModelName: "demo-alt", NKeys: nKeys, kvBase: cfg.StoreLatency}
	defer func() {
		if err != nil {
			e.Close()
		}
	}()

	// Remote feature store plus the production client in front of it.
	rng := rand.New(rand.NewSource(cfg.Seed))
	e.kv = kvstore.NewServer(2, cfg.StoreLatency)
	remoteRows := make(map[int64][]float64, nKeys)
	localRows := make(map[int64][]float64, nKeys)
	for k := int64(0); k < nKeys; k++ {
		remoteRows[k] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		localRows[k] = []float64{rng.NormFloat64()}
	}
	if err := e.kv.Load(remoteRows); err != nil {
		return nil, err
	}
	addr, err := e.kv.Start()
	if err != nil {
		return nil, err
	}
	e.storeCli, err = store.Dial(context.Background(), store.Config{
		Addr:      addr,
		ExpectDim: 2,
		Hedge:     true,
	})
	if err != nil {
		return nil, err
	}

	// Pipeline: local lookup ⋈ remote lookup → logistic model, the minimal
	// shape that exercises async prefetch and the store client under load.
	b := graph.NewBuilder()
	uid := b.Input("user_id")
	iid := b.Input("item_id")
	uf := b.Add("user_features", ops.NewLookup("local", ops.NewLocalTable(1, localRows)), uid)
	itf := b.Add("item_features", ops.NewLookup("remote", e.storeCli), iid)
	cat := b.Add("concat", ops.NewConcat(), uf, itf)
	b.SetOutput(cat)
	g, err := b.Build()
	if err != nil {
		return nil, err
	}

	gen := func(n int) core.Dataset {
		uids := make([]int64, n)
		iids := make([]int64, n)
		y := make([]float64, n)
		for i := range uids {
			uk, ik := rng.Int63n(nKeys), rng.Int63n(nKeys)
			if cfg.FeatureCacheBudget > 0 {
				// Skewed training traffic for the statistical cache
				// planner: hot user keys, unique item keys.
				uk, ik = int64(i)%envDriftHotKeys, int64(i)%nKeys
			}
			uids[i], iids[i] = uk, ik
			if localRows[uk][0]+remoteRows[ik][0]-remoteRows[ik][1] > 0 {
				y[i] = 1
			}
		}
		return core.Dataset{
			Inputs: map[string]value.Value{
				"user_id": value.NewInts(uids),
				"item_id": value.NewInts(iids),
			},
			Y: y,
		}
	}
	train, valid := gen(512), gen(128)

	// Optimize the pipeline twice: two independent deployables, so a hot
	// swap under load flips between real, separately-compiled versions.
	for i := range e.opts {
		p := &core.Pipeline{Graph: g, Model: model.NewLogistic(model.LinearConfig{})}
		opt, _, err := core.Optimize(context.Background(), p, train, valid, core.Options{
			FeatureCache:       cfg.FeatureCacheBudget > 0,
			FeatureCacheBudget: cfg.FeatureCacheBudget,
		})
		if err != nil {
			return nil, fmt.Errorf("loadgen: optimizing env pipeline: %w", err)
		}
		e.opts[i] = opt
	}

	// Serving tier: registry + HTTP frontend + tuned client. A second model
	// rides behind the same frontend so mix scenarios exercise the
	// registry's multi-model routing, not just one hot path.
	e.reg = serving.NewRegistry(serving.Options{
		QueueDepth:    cfg.QueueDepth,
		SLOTargetP99:  cfg.SLO,
		Brownout:      cfg.Brownout,
		CacheCapacity: cfg.CacheCapacity,
	})
	if err := e.reg.Deploy(e.ModelName, "v1", e.opts[0]); err != nil {
		return nil, err
	}
	if err := e.reg.Deploy(e.AltModelName, "v1", e.opts[1]); err != nil {
		return nil, err
	}
	e.nextTag = 2
	if cfg.Adapt {
		if err := e.reg.EnableAdaptation(e.ModelName, adapt.Config{
			SampleEvery:       1,
			KeyWindow:         64,
			ReuseStrikes:      2,
			Reservoir:         128,
			CheckEvery:        25 * time.Millisecond,
			CanaryFraction:    0.5,
			CanaryMinRequests: 50,
			CanaryTimeout:     10 * time.Second,
			PassStreak:        2,
			FailStreak:        3,
			GuardLatencyTol:   10, // scripted cache drift; don't judge p99 jitter
			Cooldown:          2 * time.Second,
		}); err != nil {
			return nil, fmt.Errorf("loadgen: enabling adaptation: %w", err)
		}
	}
	e.srv = serving.NewRegistryServer(e.reg)
	e.addr, err = e.srv.Start()
	if err != nil {
		return nil, err
	}
	e.client = serving.NewClient(e.addr)
	return e, nil
}

// Addr returns the serving frontend's address.
func (e *Env) Addr() string { return e.addr }

// Client returns the serving client bound to the env's frontend.
func (e *Env) Client() *serving.Client { return e.client }

// Target returns the load-generation target: one single-row prediction RPC
// per event, the key folded into the loaded key space for both lookups.
func (e *Env) Target() Target {
	return TargetFunc(func(ctx context.Context, ev Event) error {
		_, err := e.client.PredictModel(ctx, e.ModelName, e.inputs(ev.Key))
		return err
	})
}

// MixTarget returns a multi-model target: requests split across both
// deployed models by key, exercising the registry's routing and per-model
// queues rather than one hot path.
func (e *Env) MixTarget() Target {
	return TargetFunc(func(ctx context.Context, ev Event) error {
		name := e.ModelName
		if ev.Key%3 == 0 {
			name = e.AltModelName
		}
		_, err := e.client.PredictModel(ctx, name, e.inputs(ev.Key))
		return err
	})
}

// CritTarget returns a criticality-classified target: each event's key
// deterministically assigns a class (~10% high, ~30% low, ~60% normal), the
// class rides the wire as a per-request option, and the env counts degraded
// responses and high-criticality hard failures (errors other than 429
// sheds) for the report's brownout assertions.
func (e *Env) CritTarget() Target {
	return TargetFunc(func(ctx context.Context, ev Event) error {
		crit := "normal"
		switch m := ev.Key % 10; {
		case m == 0:
			crit = "high"
		case m >= 1 && m <= 3:
			crit = "low"
		}
		if crit == "high" {
			e.highStarted.Add(1)
		}
		res, err := e.client.PredictModelResult(ctx, e.ModelName, e.inputs(ev.Key), core.WithCriticality(crit))
		if err == nil && res.Degraded != "" {
			e.degradedResp.Add(1)
		}
		if err != nil && crit == "high" && !errors.Is(err, serving.ErrOverloaded) {
			e.highHardErr.Add(1)
		}
		return err
	})
}

// CritCounts snapshots the criticality-traffic counters: brownout-degraded
// responses, criticality-high requests started, and their hard failures.
func (e *Env) CritCounts() (degraded, highStarted, highHardErrs int64) {
	return e.degradedResp.Load(), e.highStarted.Load(), e.highHardErr.Load()
}

// DriftTarget returns a drift-scripted target: until RotateSkew fires,
// user keys come from the hot set the cache plan was trained for while
// item keys are effectively unique; after rotation the skew inverts, so
// the planned user-side cache goes cold and only re-planning the budget
// onto the item side can recover the hit rate.
func (e *Env) DriftTarget() Target {
	return TargetFunc(func(ctx context.Context, ev Event) error {
		_, err := e.client.PredictModel(ctx, e.ModelName, e.driftInputs(ev.Key))
		return err
	})
}

func (e *Env) driftInputs(key int64) map[string]value.Value {
	hot := key % envDriftHotKeys
	if hot < 0 {
		hot += envDriftHotKeys
	}
	uniq := e.driftSeq.Add(1) % e.NKeys
	u, it := hot, uniq
	if e.rotated.Load() {
		u, it = uniq, hot
	}
	return map[string]value.Value{
		"user_id": value.NewInts([]int64{u}),
		"item_id": value.NewInts([]int64{it}),
	}
}

// RotateSkew inverts the drift target's key skew mid-run — the scripted
// distribution shift the adaptation controller must detect and re-plan
// for.
func (e *Env) RotateSkew() { e.rotated.Store(true) }

// CacheHitRate returns the primary model's active-version feature-cache
// hit rate (0 when the deployed plan has no caches). After an adaptation
// promote this reads the re-fit plan's counters, which start at its
// canary launch — the post-adaptation hit rate drift budgets check.
func (e *Env) CacheHitRate() float64 {
	ms, err := e.reg.Stats(e.ModelName)
	if err != nil || ms.FeatureCache == nil {
		return 0
	}
	return ms.FeatureCache.HitRate
}

// Adaptation snapshots the primary model's adaptation controller; ok is
// false when adaptation is not enabled.
func (e *Env) Adaptation() (adapt.Snapshot, bool) {
	ms, err := e.reg.Stats(e.ModelName)
	if err != nil || ms.Adaptation == nil {
		return adapt.Snapshot{}, false
	}
	return *ms.Adaptation, true
}

func (e *Env) inputs(key int64) map[string]value.Value {
	k := key % e.NKeys
	if k < 0 {
		k += e.NKeys
	}
	return map[string]value.Value{
		"user_id": value.NewInts([]int64{k}),
		"item_id": value.NewInts([]int64{(k * 7) % e.NKeys}),
	}
}

// Swap hot-deploys the alternate optimized pipeline under a fresh version
// tag — the zero-downtime redeploy the chaos scenario asserts on.
func (e *Env) Swap() error {
	opt := e.opts[e.nextTag%2]
	tag := fmt.Sprintf("v%d", e.nextTag)
	e.nextTag++
	return e.reg.Deploy(e.ModelName, tag, opt)
}

// InjectStoreTail makes every Nth kvstore request take slow, modeling a
// feature-store tail-latency incident.
func (e *Env) InjectStoreTail(every int, slow time.Duration) {
	e.kv.SetLatencyFunc(kvstore.TailLatency(every, e.kvBase, slow))
}

// RestoreStore removes injected store faults.
func (e *Env) RestoreStore() { e.kv.SetLatencyFunc(nil) }

// DropStoreConns makes the kvstore drop the next n connections.
func (e *Env) DropStoreConns(n int) { e.kv.DropNextConns(n) }

// Drain gracefully shuts the serving frontend down (the SIGTERM path):
// in-flight and queued requests complete, new connections are refused.
func (e *Env) Drain(ctx context.Context) error { return e.srv.Shutdown(ctx) }

// Degraded returns the cumulative count of lookups answered from the store
// client's degraded fallback path (0 when the pipeline reports no store).
func (e *Env) Degraded() int64 {
	ms, err := e.reg.Stats(e.ModelName)
	if err != nil || ms.FeatureStore == nil {
		return 0
	}
	return ms.FeatureStore.Degraded
}

// Close tears the stack down in dependency order. Safe on a partially
// constructed env and after Drain.
func (e *Env) Close() {
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		e.srv.Shutdown(ctx) //nolint:errcheck // already-drained servers error harmlessly
		cancel()
	}
	if e.storeCli != nil {
		e.storeCli.Close()
	}
	if e.kv != nil {
		e.kv.Close()
	}
}

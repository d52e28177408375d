package serving

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"willump/internal/adapt"
	"willump/internal/core"
	"willump/internal/fixture"
	"willump/internal/value"
)

// Deterministic drift script shared by the adaptation e2e tests: the
// pipeline is optimized under training traffic whose cheap_id keys are
// heavily reused (a hot set of trainHotKeys) while heavy_id keys are
// unique, so the statistical planner spends the whole feature-cache
// budget on the cheap IFV. Live traffic then inverts the skew — cheap_id
// cycles through thousands of keys while heavy_id hammers liveHotKeys —
// so the stale plan's hit rate collapses and only a re-planned budget
// split (cache the heavy IFV instead) can recover it.
const (
	trainHotKeys = 8
	liveHotKeys  = 8
	liveKeySpace = 4096
)

// buildSkewedCachedPipeline optimizes the two-lookup fixture pipeline
// under the skewed training distribution above and sanity-checks that the
// planner cached an IFV with a high estimated hit rate (the reference the
// key-reuse drift detector will compare live traffic against).
func buildSkewedCachedPipeline(t *testing.T, budget int) *core.Optimized {
	t.Helper()
	fx, err := fixture.NewClassification(17, 400, 150, 150, 0.7, 60)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1024
	cheap := make([]int64, n)
	heavy := make([]int64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		cheap[i] = int64(i % trainHotKeys)
		heavy[i] = int64(i) // unique within the sample
		y[i] = float64((i / trainHotKeys) % 2)
	}
	train := core.Dataset{
		Inputs: map[string]value.Value{
			"cheap_id": value.NewInts(cheap),
			"heavy_id": value.NewInts(heavy),
		},
		Y: y,
	}
	p := &core.Pipeline{Graph: fx.Prog.G, Model: fx.Model}
	opt, rep, err := core.Optimize(context.Background(), p, train, core.Dataset{},
		core.Options{FeatureCache: true, FeatureCacheBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	for _, st := range rep.CachePlan {
		if !st.Cached {
			continue
		}
		cached++
		if st.EstimatedHitRate < 0.9 {
			t.Fatalf("planner cached IFV %d with estimated hit rate %.3f, want > 0.9 (skewed training traffic)", st.IFV, st.EstimatedHitRate)
		}
	}
	if cached != 1 {
		t.Fatalf("planner cached %d IFVs, want exactly 1 (all budget on the hot cheap IFV): %+v", cached, rep.CachePlan)
	}
	return opt
}

// driftInputs is live request i under the inverted skew.
func driftInputs(i int64) map[string]value.Value {
	return map[string]value.Value{
		"cheap_id": value.NewInts([]int64{i % liveKeySpace}),
		"heavy_id": value.NewInts([]int64{i % liveHotKeys}),
	}
}

// compressed cadences for tests: every request sampled, small windows,
// fast judgement ticks. GuardLatencyTol is large so scheduler jitter on
// loaded CI machines can never fail a canary on p99 — these tests script
// cache-plan drift, and the hit-rate guard is the one under test.
func testAdaptConfig() adapt.Config {
	return adapt.Config{
		SampleEvery:       1,
		KeyWindow:         64,
		ReuseStrikes:      2,
		Reservoir:         128,
		CheckEvery:        20 * time.Millisecond,
		CanaryFraction:    0.5,
		CanaryMinRequests: 30,
		CanaryTimeout:     30 * time.Second,
		PassStreak:        2,
		FailStreak:        2,
		GuardLatencyTol:   10,
		Cooldown:          time.Hour, // rollback test asserts the cooldown state
	}
}

// TestAdaptationDriftRefitsAndPromotes is the end-to-end promote path:
// under scripted drift the controller detects the key-reuse collapse,
// re-plans the feature-cache budget from its live reservoir, canaries the
// re-fit plan, and promotes it — with the measured post-promotion cache
// hit rate strictly above the stale plan's baseline, zero hard errors,
// and the admission forecaster still primed across the swap.
func TestAdaptationDriftRefitsAndPromotes(t *testing.T) {
	opt := buildSkewedCachedPipeline(t, 64)
	reg := NewRegistry(Options{SLOTargetP99: 2 * time.Second})
	defer reg.Close(context.Background())
	if err := reg.Deploy("m", "v1", opt); err != nil {
		t.Fatal(err)
	}
	srv := NewRegistryServer(reg)
	url, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(url)
	ctx := context.Background()

	var i int64
	predict := func() {
		t.Helper()
		if _, err := cl.PredictModel(ctx, "m", driftInputs(i)); err != nil {
			t.Fatalf("predict %d: %v", i, err)
		}
		i++
	}

	// Phase 1: the stale plan under drifted traffic — the baseline the
	// adapted plan must beat. The cheap cache sees an effectively unique
	// key stream, so its hit rate is ~0.
	for k := 0; k < 300; k++ {
		predict()
	}
	st1, err := reg.Stats("m")
	if err != nil {
		t.Fatal(err)
	}
	if st1.FeatureCache == nil {
		t.Fatal("stale plan reports no feature-cache stats")
	}
	baseHR := st1.FeatureCache.HitRate
	if baseHR > 0.05 {
		t.Fatalf("stale plan hit rate %.3f under drifted traffic, want ~0 (drift script broken)", baseHR)
	}

	// Phase 2: enable adaptation and keep driving drifted traffic until
	// the controller detects, re-fits, canaries, and promotes.
	if err := reg.EnableAdaptation("m", testAdaptConfig()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(90 * time.Second)
	var snap adapt.Snapshot
	for {
		predict()
		if i%8 == 0 {
			if st, _ := reg.Stats("m"); st.Adaptation != nil {
				snap = *st.Adaptation
			}
			if snap.Promotions >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("no promotion after %d drifted requests; snapshot %+v", i, snap)
			}
		}
	}
	if snap.KeyDriftEvents < 1 {
		t.Errorf("promotion without a key-drift confirmation: %+v", snap)
	}
	if snap.Refits < 1 || snap.Canaries < 1 {
		t.Errorf("promotion without refit+canary accounting: %+v", snap)
	}

	// Phase 3: measure the promoted plan over a fresh window. The re-fit
	// plan caches the now-hot heavy IFV, so the hit rate must decisively
	// beat the stale baseline.
	stPre, err := reg.Stats("m")
	if err != nil {
		t.Fatal(err)
	}
	if stPre.Version != "adapt-1" {
		t.Errorf("active version after promotion = %q, want adapt-1", stPre.Version)
	}
	if stPre.FeatureCache == nil {
		t.Fatal("promoted plan reports no feature-cache stats")
	}
	for k := 0; k < 400; k++ {
		predict()
	}
	stPost, err := reg.Stats("m")
	if err != nil {
		t.Fatal(err)
	}
	dh := stPost.FeatureCache.Hits - stPre.FeatureCache.Hits
	dm := stPost.FeatureCache.Misses - stPre.FeatureCache.Misses
	if dh+dm <= 0 {
		t.Fatalf("promoted plan served no cache lookups (hits %d misses %d)", dh, dm)
	}
	postHR := float64(dh) / float64(dh+dm)
	if postHR <= baseHR {
		t.Errorf("post-promotion hit rate %.3f not above stale baseline %.3f", postHR, baseHR)
	}
	if postHR < 0.5 {
		t.Errorf("post-promotion hit rate %.3f, want > 0.5 (heavy hot set of %d keys in a %d-entry cache)", postHR, liveHotKeys, 64)
	}

	// No hard errors anywhere in the run, and the admission forecaster is
	// still primed after the promote swap (no cold-start admit window).
	if stPost.Errors != 0 || stPost.Rejected != 0 {
		t.Errorf("hard errors across adaptation: errors=%d rejected=%d", stPost.Errors, stPost.Rejected)
	}
	if stPost.Admission == nil || stPost.Admission.ForecastService <= 0 {
		t.Errorf("admission forecaster cold after promotion: %+v", stPost.Admission)
	}
}

// TestAdaptationBadCandidateRollsBack is the rollback path: the candidate
// plan is sabotaged through the fault-injection hook (its feature caches
// stripped), so the canary's hit-rate guard trips and the controller
// rolls back automatically — with zero hard errors, the incumbent still
// active, the admission forecaster still primed, and the controller in
// cooldown.
func TestAdaptationBadCandidateRollsBack(t *testing.T) {
	opt := buildSkewedCachedPipeline(t, 64)
	reg := NewRegistry(Options{SLOTargetP99: 2 * time.Second})
	defer reg.Close(context.Background())
	if err := reg.Deploy("m", "v1", opt); err != nil {
		t.Fatal(err)
	}
	srv := NewRegistryServer(reg)
	url, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(url)
	ctx := context.Background()

	cfg := testAdaptConfig()
	cfg.MutateCandidate = func(o *core.Optimized) {
		o.ApplyCacheSpecs(nil, nil) // inject a degenerate plan: no caches at all
	}
	if err := reg.EnableAdaptation("m", cfg); err != nil {
		t.Fatal(err)
	}

	var i int64
	predict := func() {
		t.Helper()
		if _, err := cl.PredictModel(ctx, "m", driftInputs(i)); err != nil {
			t.Fatalf("predict %d: %v", i, err)
		}
		i++
	}

	deadline := time.Now().Add(90 * time.Second)
	var snap adapt.Snapshot
	for {
		predict()
		if i%8 == 0 {
			if st, _ := reg.Stats("m"); st.Adaptation != nil {
				snap = *st.Adaptation
			}
			if snap.Rollbacks >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("no rollback after %d drifted requests; snapshot %+v", i, snap)
			}
		}
	}
	if snap.Promotions != 0 {
		t.Errorf("sabotaged candidate was promoted: %+v", snap)
	}
	if snap.LastRollback != "guard regression" {
		t.Errorf("rollback reason = %q, want \"guard regression\"", snap.LastRollback)
	}

	// The incumbent is still the active version and the canary scaffold is
	// gone.
	h, err := reg.lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	if c := h.canary.Load(); c != nil {
		t.Errorf("canary version still routed after rollback (tag %q)", c.tag)
	}
	st, err := reg.Stats("m")
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != "v1" {
		t.Errorf("active version after rollback = %q, want v1", st.Version)
	}

	// The rollback left the controller cooling down, not retrying.
	if a := st.Adaptation; a == nil || a.State != "cooldown" {
		t.Errorf("adaptation after rollback = %+v, want state cooldown", a)
	}

	// Service stayed clean through the whole failed rollout, keeps serving
	// after it, and the incumbent's admission forecaster was never cold.
	for k := 0; k < 100; k++ {
		predict()
	}
	st, err = reg.Stats("m")
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 || st.Rejected != 0 {
		t.Errorf("hard errors across failed rollout: errors=%d rejected=%d", st.Errors, st.Rejected)
	}
	if st.Admission == nil || st.Admission.ForecastService <= 0 {
		t.Errorf("admission forecaster cold after rollback: %+v", st.Admission)
	}
	if !h.admit.Primed() {
		t.Error("hosted admission controller lost its forecast across the rollback")
	}
}

// TestShadowScoringBypassesIncumbentCaches pins guard integrity: shadow
// predictions run on a cache-free clone of the incumbent, so sampling
// live rows never inflates the incumbent's feature-cache counters — the
// counters the canary hit-rate guard judges arms by.
func TestShadowScoringBypassesIncumbentCaches(t *testing.T) {
	opt := buildSkewedCachedPipeline(t, 64)
	ctl := adapt.New(opt,
		// CheckEvery an hour out: only the shadow worker runs, no re-fit.
		adapt.Config{SampleEvery: 1, CheckEvery: time.Hour},
		adapt.Hooks{
			StartCanary: func(string, *core.Optimized, float64) error { return errors.New("no canary in this test") },
			Promote:     func() error { return nil },
			Rollback:    func() error { return nil },
			Guards:      func() (adapt.Guard, adapt.Guard, bool) { return adapt.Guard{}, adapt.Guard{}, false },
		})
	ctl.Start()
	defer ctl.Close()

	before, ok := opt.FeatureCacheStats()
	if !ok {
		t.Fatal("pipeline has no feature caches")
	}
	const n = 200
	for i := int64(0); i < n; i++ {
		ctl.ObserveRequest(driftInputs(i), 1)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap := ctl.Snapshot()
		if int64(snap.ReservoirRows)+snap.ShadowDropped >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shadow worker never drained the sample queue: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	after, _ := opt.FeatureCacheStats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("shadow scoring touched the incumbent's caches: hits %d -> %d, misses %d -> %d",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
}

// TestAdmissionReprimeAcrossSwapPaths pins the cold-start guarantee on
// every swap path: once the forecaster is primed by live traffic, a
// deploy-over, an undeploy+redeploy, a canary start, a canary promote,
// and a canary rollback — all under concurrent load — must each leave the
// serving admission controller primed, never reopening the admit-
// everything window.
func TestAdmissionReprimeAcrossSwapPaths(t *testing.T) {
	opt := buildSkewedCachedPipeline(t, 64)
	reg := NewRegistry(Options{SLOTargetP99: time.Second})
	defer reg.Close(context.Background())
	if err := reg.Deploy("m", "v1", opt); err != nil {
		t.Fatal(err)
	}
	srv := NewRegistryServer(reg)
	url, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(url)
	ctx := context.Background()

	// Prime the forecaster with live traffic.
	for i := int64(0); i < 80; i++ {
		if _, err := cl.PredictModel(ctx, "m", driftInputs(i)); err != nil {
			t.Fatal(err)
		}
	}
	h, err := reg.lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	if !h.admit.Primed() {
		t.Fatal("forecaster not primed after 80 live requests")
	}

	// Background load across every swap below. Lookups can 404 in the
	// undeploy->redeploy window; anything else is a hard failure.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var hardErrs atomic.Int64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := seed; ; i += 2 {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := cl.PredictModel(ctx, "m", driftInputs(i)); err != nil &&
					!strings.Contains(err.Error(), "not found") {
					hardErrs.Add(1)
				}
			}
		}(int64(w))
	}
	defer func() {
		close(stop)
		wg.Wait()
		if n := hardErrs.Load(); n != 0 {
			t.Errorf("%d hard errors from load during swaps", n)
		}
	}()

	mustPrimed := func(path string) {
		t.Helper()
		hh, err := reg.lookup("m")
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !hh.admit.Primed() {
			t.Fatalf("%s reopened the cold-start admit window", path)
		}
	}

	// Deploy-over: same Hosted model, the controller simply survives.
	if err := reg.Deploy("m", "v2", opt); err != nil {
		t.Fatal(err)
	}
	mustPrimed("deploy-over")

	// Undeploy + redeploy: a fresh Hosted model must re-prime from the
	// retired controller's stashed forecast, immediately, before any new
	// traffic lands.
	if err := reg.Undeploy("m"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Deploy("m", "v3", opt); err != nil {
		t.Fatal(err)
	}
	mustPrimed("undeploy+redeploy")

	// Canary start: the canary arm runs its own controller, primed from
	// the incumbent's forecast at birth.
	cand := opt.CloneForRefit()
	if err := reg.StartCanary("m", "cand-1", cand, 0.3); err != nil {
		t.Fatal(err)
	}
	h, err = reg.lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	c := h.canary.Load()
	if c == nil {
		t.Fatal("no canary version after StartCanary")
	}
	if !c.admit.Primed() {
		t.Fatal("canary admission controller born cold")
	}

	// Promote: the hosted controller adopts the canary arm's forecast.
	if err := reg.PromoteCanary("m"); err != nil {
		t.Fatal(err)
	}
	mustPrimed("canary promote")

	// Rollback: the incumbent controller served the majority arm all
	// along and must still be warm.
	cand2 := opt.CloneForRefit()
	if err := reg.StartCanary("m", "cand-2", cand2, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := reg.RollbackCanary("m"); err != nil {
		t.Fatal(err)
	}
	mustPrimed("canary rollback")
}

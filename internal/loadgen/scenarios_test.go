package loadgen

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"willump/internal/admission"
	"willump/internal/core"
	"willump/internal/serving"
	"willump/internal/value"
)

// TestOverloadShedsWithoutCollapse is the sustained-overload test: offered
// load far past capacity must be turned away at admission (429 →
// ErrOverloaded), hard errors must stay rare, and the requests that were
// admitted must still be served with a sane tail — shedding, not collapse.
func TestOverloadShedsWithoutCollapse(t *testing.T) {
	e, err := NewLocalEnv(EnvConfig{QueueDepth: 4, StoreLatency: 5 * time.Millisecond, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	spec := ScenarioSpec{
		Name: "overload-test", Arrivals: "steady", QPS: 1500, Duration: 2 * time.Second,
		Keys: "uniform", Seed: 21, Workers: 128,
		Budget: Budget{MaxErrorRate: 0.02, MaxOverloadRate: Unchecked},
	}
	rep, err := RunScenario(context.Background(), e, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests < 2500 {
		t.Fatalf("only %d requests started; offered load was throttled", rep.Requests)
	}
	if rep.Completed != rep.Success+rep.Overloaded+rep.Errors {
		t.Fatalf("accounting imbalance: %d completed vs %d+%d+%d",
			rep.Completed, rep.Success, rep.Overloaded, rep.Errors)
	}
	if rep.Overloaded == 0 {
		t.Fatal("5x-oversubscribed server shed nothing; admission control not engaged")
	}
	if rep.Success == 0 {
		t.Fatal("overloaded server served nothing; shedding collapsed into outage")
	}
	// Admitted requests must not see an unbounded queueing tail: the whole
	// point of bounded-queue shedding is that latency stays flat while
	// excess load is refused. Instrumented builds run the handler several
	// times slower, so driver-side queueing inflates the corrected tail.
	bound := 1500 * time.Millisecond
	if raceEnabled {
		bound = 5 * time.Second
	}
	if p99 := time.Duration(rep.P99Ns); p99 > bound {
		t.Errorf("success p99 %s under overload; shedding should keep the tail bounded", p99)
	}
	if !rep.Passed() {
		t.Errorf("overload budget violated: %v", rep.Violations)
	}
}

// TestBrownoutBeatsShedOnlyGoodput is the brownout acceptance test: under
// the same 5x-capacity offered load, an SLO-aware env with the degradation
// ladder must deliver strictly more goodput (successful answers, degraded
// included) than a 429-only baseline, while criticality-high traffic sees
// zero hard errors (sheds are allowed; 500s are not), and the ladder really
// does serve degraded answers.
//
// The ladder's engagement does not hang on machine speed: the store takes
// 9 ms against a 10 ms SLO, so every computed request alone runs at >= 900‰
// of the SLO, past the 800‰ degrade rung. Both envs first answer each hot
// key once (criticality high, which computes on every rung). That leaves
// the brownout env's controller on the degrade rung, where a
// low-criticality request for a hot key is answered from the prediction
// cache, marked degraded; how many such answers the overload itself gets
// depends on the pressure's swings, so the run only logs it.
func TestBrownoutBeatsShedOnlyGoodput(t *testing.T) {
	const hotKeys = 64
	spec := ScenarioSpec{
		Name: "brownout-test", Arrivals: "steady", QPS: 1500, Duration: 2 * time.Second,
		Keys: "hotset", HotKeys: hotKeys, HotFrac: 0.9, Seed: 11, Workers: 128,
		Criticality: true,
		Budget:      Budget{MaxErrorRate: 0.02, MaxOverloadRate: Unchecked, MaxHighCritHardErrors: 0},
	}
	warm := func(e *Env) {
		t.Helper()
		for k := int64(0); k < hotKeys; k++ {
			// A shed is the Release race of the previous request: the
			// model is idle again a moment later, and an idle model admits.
			for {
				_, err := e.client.PredictModelResult(context.Background(), e.ModelName, e.inputs(k), core.WithCriticality("high"))
				if err == nil {
					break
				}
				if !errors.Is(err, serving.ErrOverloaded) {
					t.Fatalf("warming key %d: %v", k, err)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	admissionOf := func(e *Env) admission.Snapshot {
		t.Helper()
		ms, err := e.reg.Stats(e.ModelName)
		if err != nil || ms.Admission == nil {
			t.Fatalf("no admission stats: %v", err)
		}
		return *ms.Admission
	}

	brownout, err := NewLocalEnv(EnvConfig{
		QueueDepth: 4, StoreLatency: 9 * time.Millisecond, Seed: 4,
		SLO: 10 * time.Millisecond, Brownout: true, CacheCapacity: 8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer brownout.Close()
	warm(brownout)
	if lvl := admissionOf(brownout).Level; lvl < admission.LevelDegrade {
		t.Fatalf("after the warm-up the ladder sits at level %d, want >= %d: a computed request no longer crosses the degrade rung", lvl, admission.LevelDegrade)
	}
	res, err := brownout.client.PredictModelResult(context.Background(), brownout.ModelName, brownout.inputs(1), core.WithCriticality("low"))
	if err != nil || res.Degraded != admission.DegradedCache {
		t.Fatalf("a low-criticality request for a hot key on the degrade rung got %+v, %v; want an answer from the prediction cache", res, err)
	}
	if got := admissionOf(brownout).DegradedCache; got != 1 {
		t.Fatalf("the controller counted %d degraded cache answers, want 1", got)
	}
	rep, err := RunScenario(context.Background(), brownout, spec)
	if err != nil {
		t.Fatal(err)
	}

	baseSpec := spec
	baseSpec.Name = "brownout-baseline"
	baseSpec.Budget = Budget{MaxErrorRate: 0.02, MaxOverloadRate: Unchecked, MaxHighCritHardErrors: Unchecked}
	baseline, err := NewLocalEnv(EnvConfig{
		QueueDepth: 4, StoreLatency: 9 * time.Millisecond, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer baseline.Close()
	warm(baseline)
	base, err := RunScenario(context.Background(), baseline, baseSpec)
	if err != nil {
		t.Fatal(err)
	}

	if base.Overloaded == 0 {
		t.Fatal("429-only baseline shed nothing; the comparison load is not an overload")
	}
	t.Logf("goodput: brownout %d (%d degraded), 429-only %d", rep.Success, rep.DegradedResponses, base.Success)
	if rep.Success <= base.Success {
		t.Errorf("brownout goodput %d does not beat 429-only baseline %d", rep.Success, base.Success)
	}
	if rep.HighCritStarted == 0 {
		t.Fatal("no criticality-high requests started; classification is broken")
	}
	if rep.HighCritHardErrors != 0 {
		t.Errorf("%d criticality-high hard errors; high-priority traffic must shed, not fail", rep.HighCritHardErrors)
	}
	if !rep.Passed() {
		t.Errorf("brownout budget violated: %v", rep.Violations)
	}
	if rep.Completed != rep.Success+rep.Overloaded+rep.Errors {
		t.Fatalf("accounting imbalance: %d completed vs %d+%d+%d",
			rep.Completed, rep.Success, rep.Overloaded, rep.Errors)
	}
}

// TestDrainNeverReportsSuccess pins the drain invariant: a graceful
// mid-run shutdown refuses late arrivals (they surface as errors, never as
// successes), accounting stays balanced, and the server really is down
// afterwards.
func TestDrainNeverReportsSuccess(t *testing.T) {
	e, err := NewLocalEnv(EnvConfig{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	spec := ScenarioSpec{
		Name: "drain-test", Arrivals: "steady", QPS: 200, Duration: 2 * time.Second,
		Keys: "uniform", Seed: 22,
		Budget: Budget{MaxErrorRate: Unchecked, MaxOverloadRate: Unchecked},
		Hooks: func(e *Env, h time.Duration) []Hook {
			return []Hook{{At: h / 2, Name: "drain", Fn: func(ctx context.Context) error {
				return e.Drain(ctx)
			}}}
		},
	}
	rep, err := RunScenario(context.Background(), e, spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Success+rep.Overloaded+rep.Errors {
		t.Fatalf("accounting imbalance: %d completed vs %d+%d+%d",
			rep.Completed, rep.Success, rep.Overloaded, rep.Errors)
	}
	if rep.Errors == 0 {
		t.Fatal("no errors recorded; the drain refused nothing")
	}
	if rep.Success == 0 {
		t.Fatal("no successes before the drain")
	}
	// Roughly half the schedule arrives after the drain: successes cannot
	// cover the whole run. The margin tolerates in-flight work completing
	// across the shutdown (which is the graceful part of graceful drain).
	if rep.Success > rep.Requests*3/4 {
		t.Errorf("%d of %d requests succeeded; post-drain requests are reporting success",
			rep.Success, rep.Requests)
	}
	// The server must actually be down.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, probeErr := e.Client().PredictModel(ctx, e.ModelName, map[string]value.Value{
		"user_id": value.NewInts([]int64{1}),
		"item_id": value.NewInts([]int64{1}),
	})
	if probeErr == nil {
		t.Fatal("request after drain succeeded")
	}
}

// TestChaosSuiteWithinBudget is the chaos acceptance test: store tail
// injection and a zero-downtime hot swap both run mid-flight, and each
// scenario completes within its declared error budget with populated
// latency quantiles.
func TestChaosSuiteWithinBudget(t *testing.T) {
	var out strings.Builder
	reports, err := RunSuite(context.Background(), SuiteConfig{
		Scale:     0.25,
		Scenarios: []string{"chaos-store-tail", "chaos-hot-swap"},
		Out:       &out,
	})
	if err != nil {
		t.Fatalf("suite failed: %v\n%s", err, out.String())
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	for _, rep := range reports {
		if rep.Requests == 0 {
			t.Errorf("%s: no requests", rep.Scenario)
		}
		if len(rep.HookErrs) > 0 {
			t.Errorf("%s: chaos hooks failed: %v", rep.Scenario, rep.HookErrs)
		}
		if !rep.Passed() {
			t.Errorf("%s: error budget violated: %v", rep.Scenario, rep.Violations)
		}
		if rep.P50Ns <= 0 || rep.P99Ns < rep.P50Ns || rep.P999Ns < rep.P99Ns {
			t.Errorf("%s: implausible quantiles p50=%d p99=%d p999=%d",
				rep.Scenario, rep.P50Ns, rep.P99Ns, rep.P999Ns)
		}
	}
	// The hot-swap scenario's budget is zero hard errors: spell it out so a
	// budget edit can't silently weaken the zero-downtime guarantee.
	for _, rep := range reports {
		if rep.Scenario == "chaos-hot-swap" && rep.Errors != 0 {
			t.Errorf("hot swap dropped %d requests; redeploys must be zero-downtime", rep.Errors)
		}
	}
}

// TestCatalogSpecsAreRunnable pins that every catalog entry generates a
// non-empty schedule and selects cleanly by name.
func TestCatalogSpecsAreRunnable(t *testing.T) {
	specs := Catalog(0.1)
	if len(specs) == 0 {
		t.Fatal("empty catalog")
	}
	for _, s := range specs {
		events, err := s.Events()
		if err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		if len(events) == 0 {
			t.Errorf("%s: empty schedule", s.Name)
		}
	}
	if _, err := SelectScenarios(specs, []string{"no-such-scenario"}); err == nil {
		t.Error("unknown scenario name accepted")
	}
	smoke, err := SelectScenarios(specs, SmokeScenarios)
	if err != nil {
		t.Fatal(err)
	}
	if len(smoke) != len(SmokeScenarios) {
		t.Fatalf("smoke subset selected %d of %d", len(smoke), len(SmokeScenarios))
	}
}

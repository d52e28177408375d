package serving

import (
	"context"
	"errors"
	"math"
	"net/http"
	"slices"
	"testing"
	"time"

	"willump/internal/admission"
	"willump/internal/core"
	"willump/internal/fixture"
	"willump/internal/value"
)

// The one serving path (Hosted.serve) is pinned here per kind of call: a
// mergeable predict, an option-carrying predict and a top-K query must each
// be refused, degraded, admitted and accounted by the same rules.

// ladderFixture is a cascade + top-K pipeline over the two-column fixture,
// with the cascade threshold fixed so both of its arms answer some rows.
func ladderFixture(t *testing.T) (*core.Optimized, core.Dataset) {
	t.Helper()
	fx, err := fixture.NewClassification(4, 600, 200, 300, 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	o, _, err := core.Optimize(context.Background(),
		&core.Pipeline{Graph: fx.Prog.G, Model: fx.Model},
		core.Dataset{Inputs: fx.Train.Inputs, Y: fx.Train.Y},
		core.Dataset{Inputs: fx.Valid.Inputs, Y: fx.Valid.Y},
		core.Options{Cascades: true, TopK: true})
	if err != nil {
		t.Fatal(err)
	}
	if o.Cascade == nil || o.Filter == nil {
		t.Fatal("fixture deployed no cascade or no top-K filter")
	}
	o.Cascade.Threshold = 0.7
	return o, core.Dataset{Inputs: fx.Test.Inputs, Y: fx.Test.Y}
}

// The three kinds of call, over the same inputs.
var routes = []struct {
	name string
	call func(ctx context.Context, inputs map[string]value.Value, n int) call
}{
	{"mergeable", func(ctx context.Context, in map[string]value.Value, n int) call {
		return call{ctx: ctx, inputs: in, n: n}
	}},
	{"deadline", func(ctx context.Context, in map[string]value.Value, n int) call {
		return call{ctx: ctx, inputs: in, n: n, po: core.ResolvePredict(core.WithPredictDeadline(time.Minute))}
	}},
	{"topk", func(ctx context.Context, in map[string]value.Value, n int) call {
		return call{ctx: ctx, inputs: in, n: n, po: core.PredictOptions{K: 5}, topK: true}
	}},
}

// TestEveryRouteFeedsTheForecast: every completion, successful or not, on
// every kind of call, reaches the admission controller's service forecast
// exactly as Observe's contract asks — a forecast fed by one kind of traffic
// models a different system than the one it sheds for.
func TestEveryRouteFeedsTheForecast(t *testing.T) {
	o, test := ladderFixture(t)
	reg := NewRegistry(Options{SLOTargetP99: time.Second})
	defer reg.Close(context.Background()) //nolint:errcheck
	ctx := context.Background()
	// A request without the heavy_id column fails inside the pipeline.
	broken := map[string]value.Value{"cheap_id": test.Inputs["cheap_id"]}
	for _, rt := range routes {
		for _, fail := range []bool{false, true} {
			name := rt.name + "-ok"
			inputs := test.Inputs
			if fail {
				name, inputs = rt.name+"-error", broken
			}
			if err := reg.Deploy(name, "v1", o); err != nil {
				t.Fatal(err)
			}
			h, err := reg.lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if h.admit.Primed() {
				t.Fatalf("%s: controller primed before any request", name)
			}
			a := h.serve(rt.call(ctx, inputs, test.Len()))
			if (a.err != nil) != fail {
				t.Fatalf("%s: err = %v, want failure = %v", name, a.err, fail)
			}
			if !h.admit.Primed() || h.admit.Snapshot().ForecastService <= 0 {
				t.Errorf("%s: completion never reached the forecast (primed=%v, snapshot %+v)",
					name, h.admit.Primed(), h.admit.Snapshot())
			}
			if got := h.admit.Snapshot().Inflight; got != 0 {
				t.Errorf("%s: inflight = %d after the request returned, want 0", name, got)
			}
		}
	}
}

// TestUnanswerableRefusedBeforeAdmission: what the arm can never answer is a
// 400 whatever the load — it must not be told 429, come back later, and it
// must not hold an admission slot while being refused.
func TestUnanswerableRefusedBeforeAdmission(t *testing.T) {
	o, test := ladderFixture(t)
	reg := NewRegistry(Options{SLOTargetP99: 5 * time.Millisecond})
	defer reg.Close(context.Background()) //nolint:errcheck
	if err := reg.Deploy("opt", "v1", o); err != nil {
		t.Fatal(err)
	}
	if err := reg.DeployPredictor("box", "v1", doubler, []string{"x"}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	threshold := 0.9
	for _, tc := range []struct {
		name, model string
		c           call
	}{
		{"top-K without a filter", "box", call{ctx: ctx, inputs: oneRow(1), n: 1, po: core.PredictOptions{K: 1}, topK: true}},
		{"top-K with k = 0", "opt", call{ctx: ctx, inputs: test.Inputs, n: test.Len(), topK: true}},
		{"optimizer override on a black box", "box", call{ctx: ctx, inputs: oneRow(1), n: 1, po: core.PredictOptions{CascadeThreshold: &threshold}}},
		{"point query with two rows", "opt", call{ctx: ctx, inputs: test.Gather([]int{0, 1}).Inputs, n: 2, po: core.PredictOptions{Point: true}}},
	} {
		h, err := reg.lookup(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		// A forecast far past the SLO with work in flight: any admission check
		// the call reached would shed it.
		h.admit.Observe(40*time.Millisecond, 40*time.Millisecond, 1)
		if h.admit.Admit(0, 0, admission.CritNormal).Shed {
			t.Fatal("idle controller shed the request held in flight")
		}
		a := h.serve(tc.c)
		if !errors.Is(a.err, errBadRequest) || statusFor(a.err) != http.StatusBadRequest {
			t.Errorf("%s: err = %v (HTTP %d), want a 400", tc.name, a.err, statusFor(a.err))
		}
		if got := h.admit.Snapshot().Inflight; got != 1 {
			t.Errorf("%s: inflight = %d, want the 1 held before the call", tc.name, got)
		}
		h.admit.Release()
	}
}

// press scripts measured pressure through Observe until normal-criticality
// traffic sees exactly the wanted rung (total is chosen inside the rung's
// band, so the EWMA settles there and never overshoots).
func press(t *testing.T, h *Hosted, slo time.Duration, want admission.Level) {
	t.Helper()
	total := map[admission.Level]time.Duration{
		admission.LevelNormal:    0,
		admission.LevelDegrade:   slo * 9 / 10,
		admission.LevelCacheOnly: slo * 5,
	}[want]
	for i := 0; i < 128 && h.admit.LevelFor(admission.CritNormal) != want; i++ {
		h.admit.Observe(time.Microsecond, total, 1)
	}
	if got := h.admit.LevelFor(admission.CritNormal); got != want {
		t.Fatalf("scripted pressure reached rung %d, want %d", got, want)
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestBrownoutLadderEveryRoute walks the ladder's degrade and cache-only
// rungs over every kind of call, with the pressure scripted rather than
// generated: what a degraded reply holds, which marker it carries, and what
// the degraded counters count.
func TestBrownoutLadderEveryRoute(t *testing.T) {
	o, test := ladderFixture(t)
	const slo = 100 * time.Millisecond
	reg := NewRegistry(Options{SLOTargetP99: slo, Brownout: true, CacheCapacity: -1})
	defer reg.Close(context.Background()) //nolint:errcheck
	if err := reg.Deploy("m", "v1", o); err != nil {
		t.Fatal(err)
	}
	h, err := reg.lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	in, n := test.Inputs, test.Len()
	full, err := o.PredictBatch(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	small, err := o.PredictBatch(ctx, in, core.WithSmallOnly())
	if err != nil {
		t.Fatal(err)
	}
	if sameBits(full, small) {
		t.Fatal("fixture's small-only answers equal its cascaded ones; the test could not tell them apart")
	}
	ranked, err := o.TopK(ctx, in, 5, core.WithTopKBudget(5))
	if err != nil {
		t.Fatal(err)
	}
	predict, deadline, topK := routes[0].call, routes[1].call, routes[2].call

	// serveAt scripts the rung, serves the call and checks the marker and by
	// how much each degraded counter rose.
	serveAt := func(what string, level admission.Level, c call, marker string, dSmall, dBudget, dCache int64) answer {
		t.Helper()
		press(t, h, slo, level)
		before := h.admit.Snapshot()
		a := h.serve(c)
		after := h.admit.Snapshot()
		if a.degraded != marker {
			t.Errorf("%s: degraded marker %q, want %q (err %v)", what, a.degraded, marker, a.err)
		}
		if got := [3]int64{after.DegradedSmallOnly - before.DegradedSmallOnly, after.DegradedBudget - before.DegradedBudget,
			after.DegradedCache - before.DegradedCache}; got != [3]int64{dSmall, dBudget, dCache} {
			t.Errorf("%s: degraded counters (small-only, budget, cache) rose by %v, want %v", what, got, [3]int64{dSmall, dBudget, dCache})
		}
		return a
	}

	// Degrade rung: every kind of call is answered, cheaper, and says so.
	a := serveAt("mergeable predict at degrade", admission.LevelDegrade, predict(ctx, in, n), admission.DegradedSmallOnly, 1, 0, 0)
	if a.err != nil || !sameBits(a.preds, small) {
		t.Errorf("mergeable predict at degrade: reply differs from in-process WithSmallOnly() (err %v)", a.err)
	}
	a = serveAt("deadline predict at degrade", admission.LevelDegrade, deadline(ctx, in, n), admission.DegradedSmallOnly, 1, 0, 0)
	if a.err != nil || !sameBits(a.preds, small) {
		t.Errorf("deadline predict at degrade: reply differs from in-process WithSmallOnly() (err %v)", a.err)
	}
	a = serveAt("top-K at degrade", admission.LevelDegrade, topK(ctx, in, n), admission.DegradedBudget, 0, 1, 0)
	if a.err != nil || !slices.Equal(a.idx, ranked) {
		t.Errorf("top-K at degrade: ranking %v, in-process WithTopKBudget(K) ranks %v (err %v)", a.idx, ranked, a.err)
	}

	// A call already asking for as much got what it asked for: no marker.
	a = serveAt("WithSmallOnly predict at degrade", admission.LevelDegrade,
		call{ctx: ctx, inputs: in, n: n, po: core.ResolvePredict(core.WithSmallOnly())}, "", 0, 0, 0)
	if a.err != nil || !sameBits(a.preds, small) {
		t.Errorf("WithSmallOnly predict at degrade: reply differs from in-process WithSmallOnly() (err %v)", a.err)
	}
	a = serveAt("top-K with budget K at degrade", admission.LevelDegrade,
		call{ctx: ctx, inputs: in, n: n, po: core.PredictOptions{K: 5, Budget: 5}, topK: true}, "", 0, 0, 0)
	if a.err != nil || !slices.Equal(a.idx, ranked) {
		t.Errorf("top-K with budget K at degrade: ranking %v, want %v (err %v)", a.idx, ranked, a.err)
	}

	// A failed degraded call carries no marker and counts nothing.
	broken := map[string]value.Value{"cheap_id": in["cheap_id"]}
	for _, rt := range routes {
		if a := serveAt(rt.name+" failing at degrade", admission.LevelDegrade, rt.call(ctx, broken, n), "", 0, 0, 0); a.err == nil {
			t.Errorf("%s: request without heavy_id succeeded", rt.name)
		}
	}

	// Criticality high sees one rung less: full fidelity at degrade, small-only
	// at cache-only.
	high := predict(ctx, in, n)
	high.po.Criticality = "high"
	a = serveAt("high-criticality predict at degrade", admission.LevelDegrade, high, "", 0, 0, 0)
	if a.err != nil || !sameBits(a.preds, full) {
		t.Errorf("high-criticality predict at degrade: reply differs from the full-fidelity answer (err %v)", a.err)
	}
	a = serveAt("high-criticality predict at cache-only", admission.LevelCacheOnly, high, admission.DegradedSmallOnly, 1, 0, 0)
	if a.err != nil || !sameBits(a.preds, small) {
		t.Errorf("high-criticality predict at cache-only: reply differs from in-process WithSmallOnly() (err %v)", a.err)
	}

	// Cache-only rung. The high-criticality predict at degrade above cached the
	// full-fidelity answers: a mergeable predict is answered from them, while
	// an option-carrying one is degraded, never answered from the cache.
	a = serveAt("mergeable predict at cache-only", admission.LevelCacheOnly, predict(ctx, in, n), admission.DegradedCache, 0, 0, 1)
	if a.err != nil || !sameBits(a.preds, full) {
		t.Errorf("mergeable predict at cache-only: reply differs from the cached full-fidelity answer (err %v)", a.err)
	}
	a = serveAt("deadline predict at cache-only", admission.LevelCacheOnly, deadline(ctx, in, n), admission.DegradedSmallOnly, 1, 0, 0)
	if a.err != nil || !sameBits(a.preds, small) {
		t.Errorf("deadline predict at cache-only: reply differs from in-process WithSmallOnly() (err %v)", a.err)
	}
	a = serveAt("top-K at cache-only", admission.LevelCacheOnly, topK(ctx, in, n), admission.DegradedBudget, 0, 1, 0)
	if a.err != nil || !slices.Equal(a.idx, ranked) {
		t.Errorf("top-K at cache-only: ranking %v, want %v (err %v)", a.idx, ranked, a.err)
	}

	// Back to normal: full fidelity, no marker.
	a = serveAt("deadline predict at normal", admission.LevelNormal, deadline(ctx, in, n), "", 0, 0, 0)
	if a.err != nil || !sameBits(a.preds, full) {
		t.Errorf("deadline predict at normal: reply differs from the full-fidelity answer (err %v)", a.err)
	}
}

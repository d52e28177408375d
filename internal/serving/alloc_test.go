package serving

import (
	"context"
	"testing"
	"time"

	"willump/internal/core"
	"willump/internal/fixture"
	"willump/internal/metrics"
	"willump/internal/value"
)

// TestRegistryPointPredictAllocBound guards the in-process half of the
// /v1/models/{name}/predict point path — routing, admission, and the pooled
// PredictPointOptions execution underneath. net/http and codec costs are
// excluded by construction: the test drives the same serve path the HTTP
// handler calls after decoding. The
// pipeline execution itself is allocation-free (see the root
// TestPredictPointZeroAllocs) and the request runs under its own context, so
// what remains is the response slice.
func TestRegistryPointPredictAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	fx, err := fixture.NewClassification(5, 600, 200, 200, 0.7, 10)
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Pipeline{Graph: fx.Prog.G, Model: fx.Model}
	train := core.Dataset{Inputs: fx.Train.Inputs, Y: fx.Train.Y}
	valid := core.Dataset{Inputs: fx.Valid.Inputs, Y: fx.Valid.Y}
	o, _, err := core.Optimize(context.Background(), p, train, valid, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry(Options{})
	if err := reg.Deploy("m", "v1", o); err != nil {
		t.Fatal(err)
	}
	s := NewRegistryServer(reg)
	defer s.Close()

	h, err := reg.lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]value.Value{
		"cheap_id": value.NewInts([]int64{19}),
		"heavy_id": value.NewInts([]int64{7}),
	}
	po := core.PredictOptions{Point: true}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if a := h.serve(call{ctx: ctx, inputs: inputs, n: 1, po: po}); a.err != nil {
			t.Fatal(a.err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if a := h.serve(call{ctx: ctx, inputs: inputs, n: 1, po: po}); a.err != nil {
			t.Fatal(a.err)
		}
	})
	const budget = 2
	if allocs > budget {
		t.Fatalf("warm registry point predict allocates %.1f objects/op, want <= %d (the response slice only)", allocs, budget)
	}
}

// TestRegistryPointPredictAllocBoundAdmissionEnabled holds the same bound
// with SLO admission control and brownout active: the controller's admit /
// release / forecast math is pure atomics and must not add a single
// allocation to the warm point path.
func TestRegistryPointPredictAllocBoundAdmissionEnabled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	fx, err := fixture.NewClassification(5, 600, 200, 200, 0.7, 10)
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Pipeline{Graph: fx.Prog.G, Model: fx.Model}
	train := core.Dataset{Inputs: fx.Train.Inputs, Y: fx.Train.Y}
	valid := core.Dataset{Inputs: fx.Valid.Inputs, Y: fx.Valid.Y}
	o, _, err := core.Optimize(context.Background(), p, train, valid, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry(Options{SLOTargetP99: 50 * time.Millisecond, Brownout: true})
	if err := reg.Deploy("m", "v1", o); err != nil {
		t.Fatal(err)
	}
	s := NewRegistryServer(reg)
	defer s.Close()

	h, err := reg.lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	// Warm the forecast so the predictive-shed arithmetic actually runs on
	// every admit (a cold controller skips it).
	h.admit.Observe(10*time.Microsecond, 10*time.Microsecond, 1)
	inputs := map[string]value.Value{
		"cheap_id": value.NewInts([]int64{19}),
		"heavy_id": value.NewInts([]int64{7}),
	}
	po := core.PredictOptions{Point: true}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if a := h.serve(call{ctx: ctx, inputs: inputs, n: 1, po: po}); a.err != nil {
			t.Fatal(a.err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if a := h.serve(call{ctx: ctx, inputs: inputs, n: 1, po: po}); a.err != nil {
			t.Fatal(a.err)
		}
	})
	const budget = 2
	if allocs > budget {
		t.Fatalf("warm admission-enabled point predict allocates %.1f objects/op, want <= %d (admission must be alloc-free)", allocs, budget)
	}
}

// startPointLoopback hosts an optimized two-column classifier as model "m"
// behind a real loopback HTTP server, closed when the test ends, and returns
// the pipeline, a client for the server and a one-row request.
func startPointLoopback(tb testing.TB) (*core.Optimized, *Client, map[string]value.Value) {
	tb.Helper()
	fx, err := fixture.NewClassification(5, 600, 200, 200, 0.7, 10)
	if err != nil {
		tb.Fatal(err)
	}
	p := &core.Pipeline{Graph: fx.Prog.G, Model: fx.Model}
	train := core.Dataset{Inputs: fx.Train.Inputs, Y: fx.Train.Y}
	valid := core.Dataset{Inputs: fx.Valid.Inputs, Y: fx.Valid.Y}
	o, _, err := core.Optimize(context.Background(), p, train, valid, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	reg := NewRegistry(Options{})
	if err := reg.Deploy("m", "v1", o); err != nil {
		tb.Fatal(err)
	}
	srv := NewRegistryServer(reg)
	base, err := srv.Start()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	inputs := map[string]value.Value{
		"cheap_id": value.NewInts([]int64{19}),
		"heavy_id": value.NewInts([]int64{7}),
	}
	return o, NewClient(base), inputs
}

// TestHTTPPointRoundTripAllocBound bounds a whole point request over real
// loopback HTTP — Client.PredictModel → net/http → handler → codec → the
// version's inline leader → compiled point predict → codec → net/http →
// Client — counted process-wide, so the server's goroutines are included.
//
// Measured 102 (153 before the codec and leader-executes batching). About 90
// of them are net/http's own on the two sides — 94 for the same client and
// server shape around http.NewRequestWithContext and a handler that discards
// the body and writes a constant reply: request and response structs, header
// maps and values, the per-request contexts, the timeout timer and the body
// plumbing. What the serving tier adds on top is the request body and URL,
// the decoded request (input map, one slice per column) and the reply
// slices; the codec's buffers and the batching of an idle version add
// nothing.
func TestHTTPPointRoundTripAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	o, cli, inputs := startPointLoopback(t)
	ctx := context.Background()
	want, err := o.PredictBatch(ctx, inputs)
	if err != nil {
		t.Fatal(err)
	}
	call := func() {
		got, err := cli.PredictModel(ctx, "m", inputs)
		if err != nil || len(got) != 1 || got[0] != want[0] {
			t.Fatalf("PredictModel = %v, %v; want %v", got, err, want)
		}
	}
	for i := 0; i < 20; i++ {
		call()
	}
	allocs := testing.AllocsPerRun(500, call)
	const budget = 120
	t.Logf("loopback HTTP point round trip: %.1f objects/op", allocs)
	if allocs > budget {
		t.Fatalf("loopback HTTP point round trip allocates %.1f objects/op, want <= %d", allocs, budget)
	}
}

// BenchmarkHTTPPointRoundTrip is the closed-loop replica of the benchmark's
// serve-http-point workload, for profiles: two callers over loopback HTTP
// against a microsecond point predict.
func BenchmarkHTTPPointRoundTrip(b *testing.B) {
	_, cli, inputs := startPointLoopback(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.SetParallelism(1)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := cli.PredictModel(ctx, "m", inputs); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// TestStatsQuantileReadsAllocFree pins the two latency reads of the serving
// tier — the canary guard's p99 and the stats snapshot's four quantiles —
// as bucket walks over a metrics.Sliding: correct to the histogram's 1/32
// and allocation-free (no window copy, no sort).
func TestStatsQuantileReadsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	v := &version{arm: &modelStats{latencies: metrics.NewSliding(512)}, stats: newModelStats()}
	start := time.Now()
	for i := 1; i <= 400; i++ {
		d := time.Duration(i) * 10 * time.Microsecond
		v.arm.record(start, start.Add(d), nil)
		v.stats.latencies.Observe(d)
	}
	near := func(got, want time.Duration) bool { return (got - want).Abs() <= want/32 }
	if g := v.guardSnapshot(); g.Requests != 400 || !near(g.P99, 3960*time.Microsecond) {
		t.Errorf("guard snapshot: %d requests, p99 %v; want 400 and ~3.96ms", g.Requests, g.P99)
	}
	ms := v.stats.snapshot("m", "v1")
	if !near(ms.LatencyP50, 2*time.Millisecond) || !near(ms.LatencyP90, 3600*time.Microsecond) ||
		!near(ms.LatencyP99, 3960*time.Microsecond) || ms.LatencyP999 != 4*time.Millisecond {
		t.Errorf("stats quantiles p50 %v p90 %v p99 %v p999 %v; want ~2ms, ~3.6ms, ~3.96ms and the exact max 4ms",
			ms.LatencyP50, ms.LatencyP90, ms.LatencyP99, ms.LatencyP999)
	}
	if a := testing.AllocsPerRun(100, func() { v.guardSnapshot() }); a != 0 {
		t.Errorf("guardSnapshot allocates %.1f/op, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { v.stats.snapshot("m", "v1") }); a != 0 {
		t.Errorf("modelStats.snapshot allocates %.1f/op, want 0", a)
	}
	end := start.Add(time.Millisecond)
	v.stats.record(start, end, nil) // the record path itself: one Observe, no allocation
	if a := testing.AllocsPerRun(100, func() { v.stats.record(start, end, nil); v.arm.record(start, end, nil) }); a != 0 {
		t.Errorf("recording a request allocates %.1f/op, want 0", a)
	}
}

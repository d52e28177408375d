package serving

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"willump/internal/core"
	"willump/internal/fixture"
	"willump/internal/observ"
	"willump/internal/value"
)

// tracedFixtureServer deploys the standard fixture pipeline with tracing
// enabled (every request head-sampled) behind a started server.
func tracedFixtureServer(t *testing.T) (*core.Optimized, *Registry, *Server, *Client) {
	t.Helper()
	return tracedFixtureServerEvery(t, 1)
}

// tracedFixtureServerEvery is tracedFixtureServer with the head-sampling
// 1-in-N knob exposed.
func tracedFixtureServerEvery(t *testing.T, sampleEvery int) (*core.Optimized, *Registry, *Server, *Client) {
	t.Helper()
	fx, err := fixture.NewClassification(11, 600, 200, 200, 0.7, 10)
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
	o.EnableTracing(sampleEvery, 64)
	reg := NewRegistry(Options{})
	if err := reg.Deploy("fixture", "v1", o); err != nil {
		t.Fatal(err)
	}
	srv := NewRegistryServer(reg)
	url, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return o, reg, srv, NewClient(url)
}

func fixtureRow() map[string]value.Value {
	return map[string]value.Value{
		"cheap_id": value.NewInts([]int64{7}),
		"heavy_id": value.NewInts([]int64{9}),
	}
}

// TestNewPredictorServerError pins the error-returning constructor path: a
// configuration that could never serve a request is reported, not panicked.
func TestNewPredictorServerError(t *testing.T) {
	if _, err := NewPredictorServer(nil, Options{}); err == nil {
		t.Error("nil predictor accepted")
	}
	if _, err := NewPredictorServer(doubler, Options{CacheCapacity: 128}); err == nil {
		t.Error("prediction cache without key columns accepted")
	}
	s, err := NewPredictorServer(doubler, Options{})
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	s.Close()
}

// TestMetricsEndpoint scrapes /metrics from a traced deployment and checks
// the exposition parses, the core families are present, and span-derived
// stage histograms appear once traffic has flowed.
func TestMetricsEndpoint(t *testing.T) {
	_, _, _, cl := tracedFixtureServer(t)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := cl.PredictModel(ctx, "fixture", fixtureRow()); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(strings.TrimRight(cl.base, "/") + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != observ.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, observ.ContentType)
	}
	counts, err := observ.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	for _, name := range []string{
		"willump_server_requests_total",
		"willump_requests_total",
		"willump_request_errors_total",
		"willump_requests_rejected_total",
		"willump_qps",
		"willump_latency_seconds",
		"willump_queue_depth",
		"willump_trace_sampled_total",
		"willump_request_duration_seconds_bucket",
		"willump_request_duration_seconds_count",
		"willump_stage_duration_seconds_bucket",
		"willump_goroutines",
	} {
		if counts[name] == 0 {
			t.Errorf("metric %s missing from exposition", name)
		}
	}
	if got := counts["willump_latency_seconds"]; got != 4 {
		t.Errorf("latency quantile samples = %d, want 4 (p50/p90/p99/p999)", got)
	}
}

// TestTracesEndpoint drives traced traffic and reads it back through the
// client: head-sampled traces must carry queue-wait and execution spans, and
// the model filter and count bound must hold.
func TestTracesEndpoint(t *testing.T) {
	_, _, _, cl := tracedFixtureServer(t)
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if _, err := cl.PredictModel(ctx, "fixture", fixtureRow()); err != nil {
			t.Fatal(err)
		}
	}
	trs, err := cl.Traces(ctx, "fixture", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 6 {
		t.Fatalf("got %d traces, want 6", len(trs))
	}
	stages := make(map[string]bool)
	for _, tr := range trs {
		if tr.Model != "fixture" {
			t.Errorf("trace model = %q, want fixture", tr.Model)
		}
		if !tr.Sampled || len(tr.Spans) == 0 {
			t.Errorf("trace %d not head-sampled with spans: %+v", tr.ID, tr)
		}
		for _, sp := range tr.Spans {
			stages[sp.Stage] = true
		}
	}
	for _, want := range []string{"queue:wait", "model:score"} {
		if !stages[want] {
			t.Errorf("no trace carries a %q span (saw %v)", want, stages)
		}
	}
	// Newest first, bounded by n.
	bounded, err := cl.Traces(ctx, "fixture", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounded) != 2 {
		t.Fatalf("n=2 returned %d traces", len(bounded))
	}
	if bounded[0].StartUnixNano < bounded[1].StartUnixNano {
		t.Error("traces not newest-first")
	}
	// Unknown model filters to empty; bad n is a client error.
	none, err := cl.Traces(ctx, "nosuch", 0)
	if err != nil || len(none) != 0 {
		t.Errorf("unknown model: traces=%v err=%v, want empty", none, err)
	}
	resp, err := http.Get(strings.TrimRight(cl.base, "/") + "/v1/traces?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n status = %d, want 400", resp.StatusCode)
	}
}

// TestStatsCarryP999AndRecentSlow checks the additive stats fields end to
// end: the p999 quantile is populated and a failed request lands on the
// recent-slow list with its error text (error tail sampling retains every
// failure regardless of latency).
func TestStatsCarryP999AndRecentSlow(t *testing.T) {
	_, reg, _, cl := tracedFixtureServer(t)
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := cl.PredictModel(ctx, "fixture", fixtureRow()); err != nil {
			t.Fatal(err)
		}
	}
	// A request with an expired deadline fails inside the pipeline and must
	// be retained as a slow/error entry.
	_, err := cl.PredictModel(ctx, "fixture", fixtureRow(),
		core.WithPredictDeadline(time.Nanosecond))
	if err == nil {
		t.Fatal("nanosecond deadline did not fail")
	}
	st, err := cl.Stats(ctx, "fixture")
	if err != nil {
		t.Fatal(err)
	}
	if st.LatencyP999 <= 0 {
		t.Errorf("LatencyP999 = %v, want > 0", st.LatencyP999)
	}
	if st.LatencyP999 < st.LatencyP99 {
		t.Errorf("p999 %v < p99 %v", st.LatencyP999, st.LatencyP99)
	}
	if len(st.RecentSlow) == 0 {
		t.Fatal("failed request missing from RecentSlow")
	}
	found := false
	for _, sq := range st.RecentSlow {
		if sq.Err != "" {
			found = true
		}
	}
	if !found {
		t.Errorf("no RecentSlow entry carries the error: %+v", st.RecentSlow)
	}
	// The in-process registry view matches the wire view's shape.
	direct, err := reg.Stats("fixture")
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.RecentSlow) == 0 {
		t.Error("registry stats missing RecentSlow")
	}
}

// TestUnsampledServerRequestsCountedOnce pins single-counting: a
// server-routed request the handler left unsampled must not be counted a
// second time by the pipeline's own entry points — the handler owns the
// whole lifecycle, sampled or not. A double count would inflate the
// request-duration histogram (and the seq/sampled counters) to ~2x traffic
// and mislabel ring entries "batch"/"point" instead of the model name.
func TestUnsampledServerRequestsCountedOnce(t *testing.T) {
	o, _, _, cl := tracedFixtureServerEvery(t, 1<<20) // nothing head-samples
	ctx := context.Background()
	const n = 7
	for i := 0; i < n; i++ {
		if _, err := cl.PredictModel(ctx, "fixture", fixtureRow()); err != nil {
			t.Fatal(err)
		}
	}
	// One option-carrying request too: it executes alone, outside the
	// batching, which was the other double-count path.
	if _, err := cl.PredictModel(ctx, "fixture", fixtureRow(),
		core.WithPredictDeadline(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if got := o.Tracer().TotalHist().Count; got != n+1 {
		t.Errorf("request_duration count = %d after %d requests, want exactly %d (core re-counted handler-owned requests)", got, n+1, n+1)
	}
	if sampled, _ := o.Tracer().Counts(); sampled != 0 {
		t.Errorf("head-sampled = %d, want 0 (core began its own trace on an unsampled server request)", sampled)
	}
	for _, tr := range o.Tracer().Traces() {
		if tr.Label != "fixture" {
			t.Errorf("retained entry labeled %q, want the model name \"fixture\"", tr.Label)
		}
	}
}

// TestExecuteBatchedReportsAbandonment pins the delivered flag: a waiter
// that gives up on a queued pending must say so, because the batcher may
// still reach the pending's context (and the trace it carries) — the
// handler must then hand the trace to the GC, never back to the pool.
func TestExecuteBatchedReportsAbandonment(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	slow := PredictorFunc(func(_ context.Context, inputs map[string]value.Value) ([]float64, error) {
		entered <- struct{}{}
		<-release
		return make([]float64, inputs["x"].Len()), nil
	})
	s, err := NewPredictorServer(slow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h, err := s.reg.lookup("")
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]value.Value{"x": value.NewFloats([]float64{3})}

	// Occupy the batcher inside the predictor, so the abandoned pending below
	// deterministically stays queued until after its waiter gives up.
	go serveRow(context.Background(), h, inputs) //nolint:errcheck
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, delivered, err := serveRow(ctx, h, inputs)
	if delivered {
		t.Error("cancelled waiter reported delivered = true; its trace would be recycled under the batcher")
	}
	if err == nil {
		t.Error("cancelled waiter returned nil error")
	}
	close(release)

	preds, delivered, err := serveRow(context.Background(), h, inputs)
	if err != nil || !delivered || len(preds) != 1 {
		t.Fatalf("live request: preds=%v delivered=%v err=%v, want a delivered result", preds, delivered, err)
	}
}

// TestShutdownClosesTraces: after a graceful shutdown drains concurrent
// traced traffic, no trace may remain open (spans all finished, pooled
// traces recycled).
func TestShutdownClosesTraces(t *testing.T) {
	o, _, srv, cl := tracedFixtureServer(t)
	ctx := context.Background()
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 25; i++ {
				cl.PredictModel(ctx, "fixture", fixtureRow()) //nolint:errcheck
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if n := o.Tracer().Open(); n != 0 {
		t.Fatalf("%d traces still open after graceful shutdown", n)
	}
	sampled, _ := o.Tracer().Counts()
	if sampled == 0 {
		t.Fatal("no requests were head-sampled")
	}
}

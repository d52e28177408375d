package serving

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"willump/internal/admission"
	"willump/internal/core"
	"willump/internal/value"
)

// recordingPredictor remembers every row value it was asked to score, and
// optionally blocks until released so tests can hold the batcher mid-batch.
type recordingPredictor struct {
	mu      sync.Mutex
	seen    []float64
	entered chan struct{} // signalled once per call, before blocking
	release chan struct{} // nil: never block
}

func (p *recordingPredictor) PredictBatch(_ context.Context, inputs map[string]value.Value) ([]float64, error) {
	if p.entered != nil {
		p.entered <- struct{}{}
	}
	if p.release != nil {
		<-p.release
	}
	xs := inputs["x"].Floats
	p.mu.Lock()
	p.seen = append(p.seen, xs...)
	p.mu.Unlock()
	return make([]float64, len(xs)), nil
}

func (p *recordingPredictor) sawValue(x float64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, v := range p.seen {
		if v == x {
			return true
		}
	}
	return false
}

// TestExpiredPendingCulledFromBatch pins the batcher's dead-context cull
// deterministically: a pending whose request context dies while it waits in
// the queue must be counted expired and answered with its context error —
// and its rows must never reach the predictor.
func TestExpiredPendingCulledFromBatch(t *testing.T) {
	pred := &recordingPredictor{entered: make(chan struct{}, 8), release: make(chan struct{})}
	s, err := NewPredictorServer(pred, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h, err := s.reg.lookup("")
	if err != nil {
		t.Fatal(err)
	}
	row := func(x float64) map[string]value.Value {
		return map[string]value.Value{"x": value.NewFloats([]float64{x})}
	}

	// Occupy the batcher: request A blocks inside the predictor, so
	// everything enqueued next stays in the queue until we release it.
	go serveRow(context.Background(), h, row(1)) //nolint:errcheck
	<-pred.entered

	// Request B joins the queue, then its context dies while it waits.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, delivered, err := serveRow(ctx, h, row(2))
	if delivered || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: delivered=%v err=%v, want abandoned with context.Canceled", delivered, err)
	}

	close(pred.release)
	// Request C proves the batcher moved past the corpse and still serves.
	preds, delivered, err := serveRow(context.Background(), h, row(3))
	if err != nil || !delivered || len(preds) != 1 {
		t.Fatalf("live request after cull: preds=%v delivered=%v err=%v", preds, delivered, err)
	}

	if pred.sawValue(2) {
		t.Error("expired pending's rows reached the predictor; it must be culled before execution")
	}
	if got := h.admit.Snapshot().Expired; got < 1 {
		t.Errorf("expired count = %d, want >= 1", got)
	}
	// The expired counter reaches operators through Stats even with
	// admission disabled (no SLO configured).
	st, err := s.reg.Stats("")
	if err != nil {
		t.Fatal(err)
	}
	if st.Admission == nil || st.Admission.Expired < 1 {
		t.Errorf("stats admission block = %+v, want Expired >= 1", st.Admission)
	}
}

// TestRetryAfterSurfacedOnOverloadedError: a predictive shed must answer 429
// with a Retry-After header derived from the drain forecast, and the client
// must surface it as the typed *OverloadedError while errors.Is against
// ErrOverloaded keeps working.
func TestRetryAfterSurfacedOnOverloadedError(t *testing.T) {
	pred := &recordingPredictor{entered: make(chan struct{}, 8), release: make(chan struct{})}
	srv, err := NewPredictorServer(pred, Options{SLOTargetP99: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(base)
	h, err := srv.reg.lookup("")
	if err != nil {
		t.Fatal(err)
	}
	// Warm the forecast far past the SLO, then hold one request in flight so
	// the predictive check is live (an idle model always admits — the probe
	// rule — so shedding needs observed history AND work in the system).
	h.admit.Observe(40*time.Millisecond, 40*time.Millisecond, 1)
	go serveRow(context.Background(), h, map[string]value.Value{"x": value.NewFloats([]float64{1})}) //nolint:errcheck
	<-pred.entered

	_, err = cli.PredictModel(context.Background(), DefaultModelName,
		map[string]value.Value{"x": value.NewFloats([]float64{9})})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded request error = %v, want ErrOverloaded", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("overloaded request error = %T, want *OverloadedError", err)
	}
	// 40ms forecast, ceiled to whole Retry-After seconds: exactly 1s.
	if oe.RetryAfter != time.Second {
		t.Errorf("RetryAfter = %v, want 1s (ceil of the 40ms drain forecast)", oe.RetryAfter)
	}
	if snap := h.admit.Snapshot(); snap.ShedPredicted < 1 {
		t.Errorf("shed_predicted = %d, want >= 1", snap.ShedPredicted)
	}
	close(pred.release)
}

// TestBrownoutCacheOnlyEndToEnd drives the full brownout round trip through
// serving.Client: under deep measured pressure the cache-only rung answers
// repeat queries from the prediction cache (marked degraded), sheds
// normal-criticality misses with 429, and still computes high-criticality
// misses at a shallower rung.
func TestBrownoutCacheOnlyEndToEnd(t *testing.T) {
	pred := &recordingPredictor{}
	srv, err := NewPredictorServer(pred, Options{
		SLOTargetP99:  10 * time.Millisecond,
		Brownout:      true,
		CacheCapacity: 64,
		CacheKeyOrder: []string{"x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(base)
	ctx := context.Background()
	row := func(x float64) map[string]value.Value {
		return map[string]value.Value{"x": value.NewFloats([]float64{x})}
	}

	// Healthy system: a full-fidelity answer, no degradation marker. This
	// also warms the prediction cache for x=7.
	res, err := cli.PredictModelResult(ctx, DefaultModelName, row(7))
	if err != nil || res.Degraded != "" || len(res.Predictions) != 1 {
		t.Fatalf("healthy request = %+v, %v; want 1 undegraded prediction", res, err)
	}

	// Push measured pressure far past the cache-only threshold (observed
	// latency 5x the SLO, repeated until the EWMA crosses).
	h, err := srv.reg.lookup("")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64 && h.admit.LevelFor(admission.CritNormal) < admission.LevelCacheOnly; i++ {
		h.admit.Observe(time.Millisecond, 50*time.Millisecond, 1)
	}
	if h.admit.LevelFor(admission.CritNormal) < admission.LevelCacheOnly {
		t.Fatal("pressure never reached the cache-only rung")
	}

	// Repeat query: answered from the prediction cache, marked degraded.
	res, err = cli.PredictModelResult(ctx, DefaultModelName, row(7))
	if err != nil {
		t.Fatalf("cache-only repeat query: %v", err)
	}
	if res.Degraded != admission.DegradedCache {
		t.Errorf("repeat query degraded = %q, want %q", res.Degraded, admission.DegradedCache)
	}

	// Uncached normal-criticality query: shed with 429 at the deepest rung.
	_, err = cli.PredictModelResult(ctx, DefaultModelName, row(8))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("uncached normal-crit query error = %v, want ErrOverloaded", err)
	}

	// Uncached high-criticality query: rides one rung lower on the ladder,
	// so it still computes a real answer instead of being turned away.
	res, err = cli.PredictModelResult(ctx, DefaultModelName, row(9), core.WithCriticality("high"))
	if err != nil || len(res.Predictions) != 1 {
		t.Fatalf("high-crit query = %+v, %v; want a computed prediction", res, err)
	}
	if !pred.sawValue(9) {
		t.Error("high-criticality miss never reached the predictor")
	}

	// The shed and degraded traffic shows up on the wire stats round trip.
	st, err := cli.Stats(ctx, DefaultModelName)
	if err != nil {
		t.Fatal(err)
	}
	if st.Admission == nil {
		t.Fatal("stats over the wire carry no admission block")
	}
	if st.Admission.DegradedCache < 1 || st.Admission.ShedBrownout < 1 {
		t.Errorf("admission stats = %+v, want DegradedCache >= 1 and ShedBrownout >= 1", st.Admission)
	}
	if time.Duration(st.Admission.SLO) != 10*time.Millisecond {
		t.Errorf("SLO over the wire = %v, want 10ms", st.Admission.SLO)
	}
}

// TestCriticalityHeaderFoldsIn: when the server is configured with a
// criticality header, a bare request carrying it is classified without any
// wire options — and garbage header values neither fail nor escalate it.
func TestCriticalityHeaderFoldsIn(t *testing.T) {
	pred := &recordingPredictor{}
	srv, err := NewPredictorServer(pred, Options{
		SLOTargetP99:      10 * time.Millisecond,
		Brownout:          true,
		CacheCapacity:     64,
		CacheKeyOrder:     []string{"x"},
		CriticalityHeader: "X-Request-Criticality",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	h, err := srv.reg.lookup("")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64 && h.admit.LevelFor(admission.CritNormal) < admission.LevelCacheOnly; i++ {
		h.admit.Observe(time.Millisecond, 50*time.Millisecond, 1)
	}

	// Each probe uses a distinct input: a computed answer warms the
	// prediction cache, which would turn the next probe into a cache hit.
	post := func(headerVal, x string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+"/v1/models/"+DefaultModelName+"/predict",
			strings.NewReader(`{"inputs":{"x":{"kind":"floats","floats":[`+x+`]}}}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if headerVal != "" {
			req.Header.Set("X-Request-Criticality", headerVal)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Uncached at the cache-only rung: normal criticality is shed...
	if code := post("", "41"); code != http.StatusTooManyRequests {
		t.Errorf("bare request status = %d, want 429", code)
	}
	// ...but a request marked high by header alone computes.
	if code := post("high", "42"); code != http.StatusOK {
		t.Errorf("high-criticality header request status = %d, want 200", code)
	}
	// Garbage never fails (or escalates) the request: treated as normal.
	if code := post("urgent!!", "43"); code != http.StatusTooManyRequests {
		t.Errorf("garbage header status = %d, want 429 (classified normal)", code)
	}
}

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

// TestBrownoutAnswersWhereShedOnlyRefuses is the brownout payoff with the
// pressure scripted and the queue held. The same deployment runs behind an
// SLO-aware registry with the ladder and a prediction cache (A) and behind a
// 429-only registry of the same queue depth (B). Both answer the same hot
// keys once, then hold their queue full behind a blocked predictor, so
// neither can compute anything new; A is scripted to the degrade and then the
// cache-only rung. Over the same request list — hot and cold keys, low,
// normal and high criticality — A answers strictly more than B: every A
// answer comes from the prediction cache, carries the cache marker and is
// counted once by the controller, and nothing on either registry, high
// criticality included, fails with anything but ErrOverloaded.
func TestBrownoutAnswersWhereShedOnlyRefuses(t *testing.T) {
	const (
		slo   = 100 * time.Millisecond
		depth = 2
		hot   = 4
		hold  = -1.0 // the row the predictor blocks on
	)
	ctx := context.Background()
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	pred := PredictorFunc(func(_ context.Context, inputs map[string]value.Value) ([]float64, error) {
		xs := inputs["x"].Floats
		out := make([]float64, len(xs))
		for i, x := range xs {
			if x == hold {
				entered <- struct{}{}
				<-release
			}
			out[i] = 2 * x
		}
		return out, nil
	})

	var released sync.Once
	doRelease := func() { released.Do(func() { close(release) }) }

	// held deploys pred, answers the hot keys once, and holds the queue: one
	// request blocked inside the predictor, depth more queued behind it.
	// Their replies arrive on the returned channel after the release.
	held := func(opts Options) (*Hosted, <-chan error) {
		t.Helper()
		reg := NewRegistry(opts)
		t.Cleanup(func() { reg.Close(ctx) }) //nolint:errcheck
		// Cleanups run last-in first-out: the release comes before Close,
		// which waits for the held requests.
		t.Cleanup(doRelease)
		if err := reg.DeployPredictor("m", "v1", pred, []string{"x"}); err != nil {
			t.Fatal(err)
		}
		h, err := reg.lookup("m")
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < hot; k++ {
			if _, _, err := serveRow(ctx, h, oneRow(float64(k))); err != nil {
				t.Fatalf("warming key %d: %v", k, err)
			}
		}
		replies := make(chan error, depth+1)
		for i := 0; i <= depth; i++ {
			x := hold
			if i > 0 {
				x = float64(1000 + i) // a filler: cold, and never blocks
			}
			go func() {
				_, _, err := serveRow(ctx, h, oneRow(x))
				replies <- err
			}()
			if i == 0 {
				<-entered
			}
		}
		awaitQueued(t, h.active.Load(), depth)
		return h, replies
	}
	a, aHeld := held(Options{QueueDepth: depth, SLOTargetP99: slo, Brownout: true, CacheCapacity: 64})
	b, bHeld := held(Options{QueueDepth: depth})

	// The request list: every hot key and as many cold ones, at every
	// criticality.
	var keys []float64
	for k := 0; k < hot; k++ {
		keys = append(keys, float64(k), float64(100+k))
	}
	// serveList sends the list and returns how many requests were answered.
	serveList := func(who string, h *Hosted) (answered int64) {
		t.Helper()
		for _, crit := range []string{"low", "normal", "high"} {
			for _, k := range keys {
				ans := h.serve(call{ctx: ctx, inputs: oneRow(k), n: 1, po: core.PredictOptions{Criticality: crit}})
				if ans.err != nil {
					if !errors.Is(ans.err, ErrOverloaded) {
						t.Errorf("%s: %s-criticality key %v failed with %v, want an answer or ErrOverloaded", who, crit, k, ans.err)
					}
					continue
				}
				if ans.degraded != admission.DegradedCache || len(ans.preds) != 1 || ans.preds[0] != 2*k {
					t.Errorf("%s: %s-criticality key %v answered %v marked %q with the queue held, want the cached [%v] marked %q",
						who, crit, k, ans.preds, ans.degraded, 2*k, admission.DegradedCache)
				}
				answered++
			}
		}
		return answered
	}

	var answeredA, answeredB int64
	for _, level := range []admission.Level{admission.LevelDegrade, admission.LevelCacheOnly} {
		press(t, a, slo, level)
		before := a.admit.Snapshot()
		n := serveList("brownout", a)
		after := a.admit.Snapshot()
		if got := [3]int64{after.DegradedCache - before.DegradedCache, after.DegradedSmallOnly - before.DegradedSmallOnly,
			after.DegradedBudget - before.DegradedBudget}; got != [3]int64{n, 0, 0} {
			t.Errorf("at rung %d the degraded counters (cache, small-only, budget) rose by %v for %d cache answers", level, got, n)
		}
		answeredA += n
		answeredB += serveList("429-only", b)
	}
	t.Logf("answered with the queue held: brownout %d, 429-only %d", answeredA, answeredB)
	if answeredA <= answeredB {
		t.Errorf("brownout answered %d, 429-only %d: the ladder answered nothing the shed-only registry refused", answeredA, answeredB)
	}

	doRelease()
	for _, replies := range []<-chan error{aHeld, bHeld} {
		for i := 0; i <= depth; i++ {
			if err := <-replies; err != nil {
				t.Errorf("a request admitted before the hold failed after the release: %v", err)
			}
		}
	}
}

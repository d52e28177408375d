package serving

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"willump/internal/value"
)

// doubler is a trivial predictor: prediction = 2 * x.
var doubler = PredictorFunc(func(_ context.Context, inputs map[string]value.Value) ([]float64, error) {
	xs := inputs["x"].Floats
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = 2 * x
	}
	return out, nil
})

// newServer wraps p as the default model of a not-yet-started server.
func newServer(t *testing.T, p Predictor, opts Options) *Server {
	t.Helper()
	srv, err := NewPredictorServer(p, opts)
	if err != nil {
		t.Fatalf("NewPredictorServer: %v", err)
	}
	return srv
}

func startServer(t *testing.T, p Predictor, opts Options) (*Server, *Client) {
	t.Helper()
	srv := newServer(t, p, opts)
	base, err := srv.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, NewClient(base)
}

func TestServeRoundTrip(t *testing.T) {
	_, cli := startServer(t, doubler, Options{})
	preds, err := cli.Predict(context.Background(), map[string]value.Value{
		"x": value.NewFloats([]float64{1, 2, 3}),
	})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	want := []float64{2, 4, 6}
	for i := range want {
		if preds[i] != want[i] {
			t.Errorf("pred[%d] = %v, want %v", i, preds[i], want[i])
		}
	}
}

func TestServeAllColumnKinds(t *testing.T) {
	echo := PredictorFunc(func(_ context.Context, inputs map[string]value.Value) ([]float64, error) {
		n := inputs["s"].Len()
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(len(inputs["s"].Strings[i])) + float64(inputs["i"].Ints[i]) + inputs["f"].Floats[i]
		}
		return out, nil
	})
	_, cli := startServer(t, echo, Options{})
	preds, err := cli.Predict(context.Background(), map[string]value.Value{
		"s": value.NewStrings([]string{"ab", "c"}),
		"i": value.NewInts([]int64{10, 20}),
		"f": value.NewFloats([]float64{0.5, 0.25}),
	})
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if preds[0] != 12.5 || preds[1] != 21.25 {
		t.Errorf("preds = %v, want [12.5 21.25]", preds)
	}
}

func TestServeConcurrentRequestsBatch(t *testing.T) {
	var calls, rows int64
	var mu sync.Mutex
	counter := PredictorFunc(func(_ context.Context, inputs map[string]value.Value) ([]float64, error) {
		mu.Lock()
		calls++
		rows += int64(inputs["x"].Len())
		mu.Unlock()
		time.Sleep(time.Millisecond) // make batching windows overlap
		xs := inputs["x"].Floats
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x
		}
		return out, nil
	})
	_, cli := startServer(t, counter, Options{BatchTimeout: 2 * time.Millisecond})
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			preds, err := cli.Predict(context.Background(), map[string]value.Value{
				"x": value.NewFloats([]float64{float64(i)}),
			})
			if err != nil {
				errs[i] = err
				return
			}
			if len(preds) != 1 || preds[i%1] != float64(i) {
				errs[i] = fmt.Errorf("wrong result %v for %d", preds, i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if rows != n {
		t.Errorf("rows = %d, want %d", rows, n)
	}
	if calls >= n {
		t.Errorf("calls = %d; adaptive batching should merge some of %d requests", calls, n)
	}
}

func TestServerError(t *testing.T) {
	boom := PredictorFunc(func(context.Context, map[string]value.Value) ([]float64, error) {
		return nil, fmt.Errorf("boom")
	})
	_, cli := startServer(t, boom, Options{})
	if _, err := cli.Predict(context.Background(), map[string]value.Value{"x": value.NewFloats([]float64{1})}); err == nil {
		t.Error("want propagated server error")
	}
}

func TestEmptyRequestRejected(t *testing.T) {
	_, cli := startServer(t, doubler, Options{})
	if _, err := cli.Predict(context.Background(), map[string]value.Value{}); err == nil {
		t.Error("want error for empty request")
	}
}

func TestCachedPredictor(t *testing.T) {
	var calls int64
	counting := PredictorFunc(func(_ context.Context, inputs map[string]value.Value) ([]float64, error) {
		calls += int64(inputs["x"].Len())
		xs := inputs["x"].Ints
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = float64(x) * 10
		}
		return out, nil
	})
	p := NewCachedPredictor(counting, 0, []string{"x"})
	in := map[string]value.Value{"x": value.NewInts([]int64{1, 2, 1, 3, 2})}
	preds, err := p.PredictBatch(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 10, 30, 20}
	for i := range want {
		if preds[i] != want[i] {
			t.Errorf("pred[%d] = %v, want %v", i, preds[i], want[i])
		}
	}
	if calls != 5 {
		// Note: within one batch, duplicate rows still compute (the cache
		// fills after the batch); across batches, hits apply.
		t.Logf("calls = %d", calls)
	}
	calls = 0
	if _, err := p.PredictBatch(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("repeat batch computed %d rows, want 0 (all cached)", calls)
	}
	hits, _ := p.Stats()
	if hits == 0 {
		t.Error("no cache hits recorded")
	}
}

func TestServerWithE2ECache(t *testing.T) {
	var computed int64
	counting := PredictorFunc(func(_ context.Context, inputs map[string]value.Value) ([]float64, error) {
		computed += int64(inputs["x"].Len())
		xs := inputs["x"].Ints
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = float64(x)
		}
		return out, nil
	})
	_, cli := startServer(t, counting, Options{CacheCapacity: -1, CacheKeyOrder: []string{"x"}})
	in := map[string]value.Value{"x": value.NewInts([]int64{7, 8})}
	if _, err := cli.Predict(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	before := computed
	if _, err := cli.Predict(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	if computed != before {
		t.Errorf("second request computed %d new rows, want 0", computed-before)
	}
}

// TestShutdownDrainsInFlightBatch closes the server while a batch is being
// predicted: the in-flight request must complete successfully, and requests
// arriving after Shutdown began must be rejected cleanly — every one of them,
// not just the first, so a drain never reports success after a refusal.
func TestShutdownDrainsInFlightBatch(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	slow := PredictorFunc(func(_ context.Context, inputs map[string]value.Value) ([]float64, error) {
		close(started)
		<-release
		return make([]float64, inputs["x"].Len()), nil
	})
	srv := newServer(t, slow, Options{})
	base, err := srv.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	cli := NewClient(base)

	inflight := make(chan error, 1)
	go func() {
		_, err := cli.Predict(context.Background(), map[string]value.Value{
			"x": value.NewFloats([]float64{1}),
		})
		inflight <- err
	}()
	<-started // the batch is now executing inside the predictor

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()

	// Give Shutdown time to flip the closed flag, then verify new requests
	// are rejected while the old one is still in flight.
	deadline := time.After(2 * time.Second)
	for {
		_, err := cli.Predict(context.Background(), map[string]value.Value{
			"x": value.NewFloats([]float64{2}),
		})
		if err != nil {
			break
		}
		select {
		case <-deadline:
			t.Fatal("new requests still accepted after Shutdown began")
		case <-time.After(5 * time.Millisecond):
		}
	}

	// Once one late arrival is refused, every later one is too.
	for i := 0; i < 16; i++ {
		if _, err := cli.Predict(context.Background(), map[string]value.Value{
			"x": value.NewFloats([]float64{3}),
		}); err == nil {
			t.Fatalf("late request %d succeeded after an earlier one was refused", i)
		}
	}

	select {
	case err := <-inflight:
		t.Fatalf("in-flight request finished before the predictor released: %v", err)
	default:
	}
	close(release)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request failed during Shutdown: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestShutdownDeadlineCancelsWork verifies that an expired Shutdown context
// cancels in-flight predictions through the execution context.
func TestShutdownDeadlineCancelsWork(t *testing.T) {
	started := make(chan struct{})
	slow := PredictorFunc(func(ctx context.Context, inputs map[string]value.Value) ([]float64, error) {
		close(started)
		<-ctx.Done() // hold until cancelled
		return nil, ctx.Err()
	})
	srv := newServer(t, slow, Options{})
	base, err := srv.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	cli := NewClient(base)
	inflight := make(chan error, 1)
	go func() {
		_, err := cli.Predict(context.Background(), map[string]value.Value{
			"x": value.NewFloats([]float64{1}),
		})
		inflight <- err
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	if err := <-inflight; err == nil {
		t.Fatal("in-flight request should have been cancelled by the expired Shutdown deadline")
	}
}

// TestClientPredictContextCancel verifies Client.Predict honors its context
// while the server is still working.
func TestClientPredictContextCancel(t *testing.T) {
	var entered atomic.Bool
	slow := PredictorFunc(func(ctx context.Context, inputs map[string]value.Value) ([]float64, error) {
		entered.Store(true)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return make([]float64, inputs["x"].Len()), nil
		}
	})
	_, cli := startServer(t, slow, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := cli.Predict(ctx, map[string]value.Value{
		"x": value.NewFloats([]float64{1}),
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Predict = %v, want deadline exceeded", err)
	}
	if !entered.Load() {
		t.Fatal("request never reached the predictor")
	}
}

// TestServeAfterCloseRejected verifies post-Close requests fail cleanly.
func TestServeAfterCloseRejected(t *testing.T) {
	srv := newServer(t, doubler, Options{})
	base, err := srv.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	cli := NewClient(base)
	if _, err := cli.Predict(context.Background(), map[string]value.Value{
		"x": value.NewFloats([]float64{1}),
	}); err != nil {
		t.Fatalf("Predict before Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 0; i < 16; i++ {
		if _, err := cli.Predict(context.Background(), map[string]value.Value{
			"x": value.NewFloats([]float64{1}),
		}); err == nil {
			t.Fatalf("Predict %d after Close should fail", i)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

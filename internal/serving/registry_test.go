package serving

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"willump/internal/core"
	"willump/internal/value"
)

// constPredictor returns the same prediction for every row, so tests can
// tell which deployed version served a request.
func constPredictor(c float64) Predictor {
	return PredictorFunc(func(_ context.Context, inputs map[string]value.Value) ([]float64, error) {
		n := -1
		for _, v := range inputs {
			n = v.Len()
			break
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = c
		}
		return out, nil
	})
}

func startRegistryServer(t *testing.T, opts Options) (*Registry, *Client) {
	t.Helper()
	reg := NewRegistry(opts)
	srv := NewRegistryServer(reg)
	base, err := srv.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	// Closing the client's idle connections first spares Close the seconds
	// net/http waits on a connection that was dialed but never carried a
	// request, which a burst of concurrent requests can leave behind.
	hc := &http.Client{Timeout: 30 * time.Second, Transport: DefaultTransport()}
	t.Cleanup(func() {
		hc.CloseIdleConnections()
		srv.Close()
	})
	return reg, NewClient(base, WithHTTPClient(hc))
}

func oneRow(x float64) map[string]value.Value {
	return map[string]value.Value{"x": value.NewFloats([]float64{x})}
}

func TestRegistryNamedRoutes(t *testing.T) {
	reg, cli := startRegistryServer(t, Options{})
	if err := reg.DeployPredictor("alpha", "v1", constPredictor(1), []string{"x"}); err != nil {
		t.Fatalf("Deploy alpha: %v", err)
	}
	if err := reg.DeployPredictor("beta", "v1", constPredictor(2), []string{"x"}); err != nil {
		t.Fatalf("Deploy beta: %v", err)
	}
	ctx := context.Background()

	preds, err := cli.PredictModel(ctx, "alpha", oneRow(0))
	if err != nil || preds[0] != 1 {
		t.Fatalf("alpha predict = %v, %v; want [1]", preds, err)
	}
	preds, err = cli.PredictModel(ctx, "beta", oneRow(0))
	if err != nil || preds[0] != 2 {
		t.Fatalf("beta predict = %v, %v; want [2]", preds, err)
	}
	// The first deployed model is the default behind the legacy route.
	preds, err = cli.Predict(ctx, oneRow(0))
	if err != nil || preds[0] != 1 {
		t.Fatalf("legacy predict = %v, %v; want [1] (default alpha)", preds, err)
	}
	if err := reg.SetDefault("beta"); err != nil {
		t.Fatalf("SetDefault: %v", err)
	}
	preds, err = cli.Predict(ctx, oneRow(0))
	if err != nil || preds[0] != 2 {
		t.Fatalf("legacy predict after SetDefault = %v, %v; want [2]", preds, err)
	}

	models, err := cli.Models(ctx)
	if err != nil {
		t.Fatalf("Models: %v", err)
	}
	if len(models) != 2 || models[0].Name != "alpha" || models[1].Name != "beta" {
		t.Fatalf("Models = %+v, want alpha, beta", models)
	}
	if models[0].Default || !models[1].Default {
		t.Errorf("default flags = %v/%v, want beta default", models[0].Default, models[1].Default)
	}
	if models[0].Version != "v1" || len(models[0].Inputs) != 1 || models[0].Inputs[0] != "x" {
		t.Errorf("alpha info = %+v", models[0])
	}
}

func TestRegistryUnknownModel(t *testing.T) {
	reg, cli := startRegistryServer(t, Options{})
	if err := reg.DeployPredictor("alpha", "v1", constPredictor(1), nil); err != nil {
		t.Fatal(err)
	}
	_, err := cli.PredictModel(context.Background(), "nope", oneRow(0))
	if !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("unknown model error = %v, want ErrModelNotFound", err)
	}
	if _, err := cli.Stats(context.Background(), "nope"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("unknown model stats error = %v, want ErrModelNotFound", err)
	}
}

func TestRegistryUndeploy(t *testing.T) {
	reg, cli := startRegistryServer(t, Options{})
	if err := reg.DeployPredictor("alpha", "v1", constPredictor(1), nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cli.PredictModel(ctx, "alpha", oneRow(0)); err != nil {
		t.Fatalf("predict before undeploy: %v", err)
	}
	if err := reg.Undeploy("alpha"); err != nil {
		t.Fatalf("Undeploy: %v", err)
	}
	if _, err := cli.PredictModel(ctx, "alpha", oneRow(0)); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("predict after undeploy = %v, want ErrModelNotFound", err)
	}
	// The legacy route lost its default too.
	if _, err := cli.Predict(ctx, oneRow(0)); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("legacy predict after undeploy = %v, want ErrModelNotFound", err)
	}
	if err := reg.Undeploy("alpha"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("double undeploy = %v, want ErrModelNotFound", err)
	}
}

func TestRegistryDeployValidation(t *testing.T) {
	reg := NewRegistry(Options{})
	defer reg.Close(context.Background())
	if err := reg.DeployPredictor("", "v1", constPredictor(1), nil); err == nil {
		t.Error("empty name accepted")
	}
	if err := reg.DeployPredictor("a/b", "v1", constPredictor(1), nil); err == nil {
		t.Error("slash in name accepted")
	}
	if err := reg.DeployPredictor("alpha", "", constPredictor(1), nil); err == nil {
		t.Error("empty version tag accepted")
	}
	if err := reg.DeployPredictor("alpha", "v1", nil, nil); err == nil {
		t.Error("nil predictor accepted")
	}
	if err := reg.Deploy("alpha", "v1", nil); err == nil {
		t.Error("nil optimized pipeline accepted")
	}
}

// TestHotSwapUnderLoadZeroFailures hammers one model from concurrent
// clients while versions hot-swap beneath them: every request must succeed,
// and each response must be internally consistent (served entirely by one
// version).
func TestHotSwapUnderLoadZeroFailures(t *testing.T) {
	reg, cli := startRegistryServer(t, Options{BatchTimeout: 200 * time.Microsecond})
	if err := reg.DeployPredictor("m", "v1", constPredictor(1), nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	stop := make(chan struct{})
	var failures atomic.Int64
	var served atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				preds, err := cli.PredictModel(ctx, "m", map[string]value.Value{
					"x": value.NewFloats([]float64{0, 0, 0}),
				})
				if err != nil {
					t.Errorf("request failed during hot swap: %v", err)
					failures.Add(1)
					return
				}
				for _, p := range preds[1:] {
					if p != preds[0] {
						t.Errorf("response mixes versions: %v", preds)
						failures.Add(1)
						return
					}
				}
				served.Add(1)
			}
		}()
	}

	// Swap versions every few milliseconds while the load runs.
	for i := 2; i <= 20; i++ {
		time.Sleep(5 * time.Millisecond)
		if err := reg.DeployPredictor("m", fmt.Sprintf("v%d", i), constPredictor(float64(i)), nil); err != nil {
			t.Fatalf("hot swap deploy v%d: %v", i, err)
		}
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d requests failed across hot swaps", failures.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no requests served during the swap storm")
	}
	// The final version is live.
	preds, err := cli.PredictModel(ctx, "m", oneRow(0))
	if err != nil || preds[0] != 20 {
		t.Fatalf("post-swap predict = %v, %v; want [20]", preds, err)
	}
	models, err := cli.Models(ctx)
	if err != nil || len(models) != 1 || models[0].Version != "v20" {
		t.Fatalf("Models = %+v, %v; want single v20", models, err)
	}
}

// TestAdmissionControl429 holds the predictor and drives a burst of probes
// at a small queue: overload sheds with 429 and does not collapse. Every
// probe is admitted or refused with the retryable ErrOverloaded, no more
// are admitted than the queue holds beside the one in flight, the client's
// 429s are exactly the stats' rejections, and every admitted request
// succeeds once the predictor is released.
func TestAdmissionControl429(t *testing.T) {
	const depth, probes = 4, 16
	release := make(chan struct{})
	var released sync.Once
	doRelease := func() { released.Do(func() { close(release) }) }
	var entered sync.Once
	started := make(chan struct{})
	slow := PredictorFunc(func(_ context.Context, inputs map[string]value.Value) ([]float64, error) {
		entered.Do(func() { close(started) })
		<-release
		n := inputs["x"].Len()
		return make([]float64, n), nil
	})
	reg, cli := startRegistryServer(t, Options{QueueDepth: depth})
	// A test failure must still release the predictor, or the server's
	// drain would hang forever: cleanups run last-in first-out, so this one
	// runs before the drain registered above.
	t.Cleanup(doRelease)
	if err := reg.DeployPredictor("m", "v1", slow, nil); err != nil {
		t.Fatal(err)
	}
	h, err := reg.lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	v := h.active.Load()
	ctx := context.Background()

	// The first request occupies the batcher; wait until it is inside the
	// predictor so nothing else can merge into its batch.
	first := make(chan error, 1)
	go func() {
		_, err := cli.PredictModel(ctx, "m", oneRow(1))
		first <- err
	}()
	<-started

	// The burst: an admitted probe parks in the queue until the release, a
	// refused one returns at once. The burst has settled when every probe is
	// one or the other.
	replies := make(chan error, probes)
	for i := 0; i < probes; i++ {
		go func() {
			_, err := cli.PredictModel(ctx, "m", oneRow(2))
			replies <- err
		}()
	}
	var refused []error
	deadline := time.After(10 * time.Second)
	for len(refused)+int(v.queued.Load()) < probes {
		select {
		case err := <-replies:
			refused = append(refused, err)
		case <-time.After(time.Millisecond):
		case <-deadline:
			t.Fatalf("burst never settled: %d refused, %d queued of %d probes", len(refused), v.queued.Load(), probes)
		}
	}
	for _, err := range refused {
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("a probe refused while the queue was full got %v, want ErrOverloaded", err)
		}
	}
	admitted := probes - len(refused)
	if admitted > depth {
		t.Fatalf("%d probes admitted beside the one in flight, want at most the queue depth %d", admitted, depth)
	}
	if len(refused) == 0 {
		t.Fatalf("a burst of %d probes at a depth-%d queue refused nothing", probes, depth)
	}

	doRelease()
	if err := <-first; err != nil {
		t.Fatalf("the request in flight failed: %v", err)
	}
	for i := 0; i < admitted; i++ {
		if err := <-replies; err != nil {
			t.Fatalf("an admitted probe failed after the release: %v", err)
		}
	}
	st, err := cli.Stats(ctx, "m")
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Rejected != int64(len(refused)) {
		t.Errorf("stats rejected = %d, the client saw %d 429s", st.Rejected, len(refused))
	}
	if st.Requests != int64(admitted+1) || st.Errors != 0 {
		t.Errorf("stats served %d with %d errors, want the %d admitted and no errors", st.Requests, st.Errors, admitted+1)
	}
}

// TestDirectPathAdmission: requests carrying per-request options bypass
// the batcher but not admission control — concurrent direct work is
// bounded by the same queue depth and rejected with ErrOverloaded beyond
// it.
func TestDirectPathAdmission(t *testing.T) {
	release := make(chan struct{})
	var released sync.Once
	started := make(chan struct{})
	var entered sync.Once
	slow := PredictorFunc(func(_ context.Context, inputs map[string]value.Value) ([]float64, error) {
		entered.Do(func() { close(started) })
		<-release
		return make([]float64, inputs["x"].Len()), nil
	})
	reg, cli := startRegistryServer(t, Options{QueueDepth: 1})
	// Runs before the server's drain, which would wait on the predictor.
	t.Cleanup(func() { released.Do(func() { close(release) }) })
	if err := reg.DeployPredictor("m", "v1", slow, nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// A deadline option routes the request down the direct path; the first
	// occupies the single admission slot inside the predictor.
	first := make(chan error, 1)
	go func() {
		_, err := cli.PredictModel(ctx, "m", oneRow(1), core.WithPredictDeadline(time.Minute))
		first <- err
	}()
	<-started
	_, err := cli.PredictModel(ctx, "m", oneRow(2), core.WithPredictDeadline(time.Minute))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second direct request = %v, want ErrOverloaded", err)
	}
	released.Do(func() { close(release) })
	if err := <-first; err != nil {
		t.Fatalf("admitted direct request failed: %v", err)
	}
}

func TestBlackBoxRejectsOptimizerOverrides(t *testing.T) {
	reg, cli := startRegistryServer(t, Options{})
	if err := reg.DeployPredictor("m", "v1", constPredictor(1), nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, err := cli.PredictModel(ctx, "m", oneRow(0), core.WithCascadeThreshold(0.8))
	if err == nil {
		t.Fatal("threshold override against a black-box predictor should fail")
	}
	// A top-K query against a model without a filter is also a client error.
	if _, err := cli.TopK(ctx, "m", oneRow(0), 1); err == nil {
		t.Fatal("topk against a filterless model should fail")
	}
}

func TestPerRequestDeadlineOverHTTP(t *testing.T) {
	slow := PredictorFunc(func(ctx context.Context, inputs map[string]value.Value) ([]float64, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return make([]float64, inputs["x"].Len()), nil
		}
	})
	reg, cli := startRegistryServer(t, Options{})
	if err := reg.DeployPredictor("m", "v1", slow, nil); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := cli.PredictModel(context.Background(), "m", oneRow(0),
		core.WithPredictDeadline(30*time.Millisecond))
	if err == nil {
		t.Fatal("deadline-bounded request against a 5s predictor should fail")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
}

func TestStatsEndpoint(t *testing.T) {
	reg, cli := startRegistryServer(t, Options{})
	if err := reg.DeployPredictor("m", "v7", constPredictor(1), nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := cli.PredictModel(ctx, "m", oneRow(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cli.Stats(ctx, "m")
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Model != "m" || st.Version != "v7" {
		t.Errorf("identity = %s/%s, want m/v7", st.Model, st.Version)
	}
	if st.Requests != 5 {
		t.Errorf("requests = %d, want 5", st.Requests)
	}
	if st.Errors != 0 || st.Rejected != 0 {
		t.Errorf("errors/rejected = %d/%d, want 0/0", st.Errors, st.Rejected)
	}
	if st.QPS <= 0 {
		t.Errorf("qps = %v, want > 0", st.QPS)
	}
	if st.LatencyP50 < 0 || st.LatencyP99 < st.LatencyP50 {
		t.Errorf("latency quantiles inconsistent: p50=%v p99=%v", st.LatencyP50, st.LatencyP99)
	}
}

func TestClientHTTPOptions(t *testing.T) {
	reg, _ := startRegistryServer(t, Options{})
	if err := reg.DeployPredictor("m", "v1", constPredictor(1), nil); err != nil {
		t.Fatal(err)
	}
	// A shared http.Client is reused verbatim.
	shared := &http.Client{Timeout: 5 * time.Second}
	cli := NewClient("http://127.0.0.1:1", WithHTTPClient(shared))
	if cli.http != shared {
		t.Error("WithHTTPClient not reused verbatim")
	}
	// WithHTTPTimeout configures the owned client.
	cli = NewClient("http://127.0.0.1:1", WithHTTPTimeout(123*time.Millisecond))
	if cli.http.Timeout != 123*time.Millisecond {
		t.Errorf("timeout = %v, want 123ms", cli.http.Timeout)
	}
}

func TestCachedPredictorMissingColumn(t *testing.T) {
	p := NewCachedPredictor(doubler, 0, []string{"x", "y"})
	_, err := p.PredictBatch(context.Background(), map[string]value.Value{
		"x": value.NewFloats([]float64{1}),
	})
	if err == nil {
		t.Fatal("missing cache key column should error, not panic")
	}
	if want := `cache key column "y" missing`; !strings.Contains(err.Error(), want) {
		t.Errorf("error = %v, want mention of %q", err, want)
	}
	// Mismatched column lengths are rejected too.
	_, err = p.PredictBatch(context.Background(), map[string]value.Value{
		"x": value.NewFloats([]float64{1, 2}),
		"y": value.NewFloats([]float64{1}),
	})
	if err == nil {
		t.Fatal("ragged cache key columns should error")
	}
	// Empty key order is a configuration error.
	p = NewCachedPredictor(doubler, 0, nil)
	if _, err := p.PredictBatch(context.Background(), oneRow(1)); err == nil {
		t.Fatal("empty cache key order should error")
	}
}

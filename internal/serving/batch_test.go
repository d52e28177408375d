package serving

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"willump/internal/value"
)

// The batching policy is pinned here by its causes — who executed, what was
// merged, whether a wait was taken — read from the version's counters and
// from what the predictor was handed, not by how long anything took.

// gatedPredictor blocks every call until that call's gate is opened, and
// records what each call was handed.
type gatedPredictor struct {
	mu      sync.Mutex
	calls   [][]float64
	entered chan int // the call's index, sent before it blocks
	gates   []chan struct{}
}

func newGatedPredictor(calls int) *gatedPredictor {
	p := &gatedPredictor{entered: make(chan int, calls)}
	for i := 0; i < calls; i++ {
		p.gates = append(p.gates, make(chan struct{}))
	}
	return p
}

func (p *gatedPredictor) PredictBatch(ctx context.Context, inputs map[string]value.Value) ([]float64, error) {
	xs := inputs["x"].Floats
	p.mu.Lock()
	call := len(p.calls)
	p.calls = append(p.calls, append([]float64(nil), xs...))
	p.mu.Unlock()
	p.entered <- call
	select {
	case <-p.gates[call]:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	out := make([]float64, len(xs))
	copy(out, xs)
	return out, nil
}

func (p *gatedPredictor) open(call int) { close(p.gates[call]) }

func (p *gatedPredictor) handed() [][]float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([][]float64(nil), p.calls...)
}

// serveRow runs inputs down the serving path as a one-row mergeable request;
// delivered is false when the caller abandoned a call that is still queued.
func serveRow(ctx context.Context, h *Hosted, inputs map[string]value.Value) (preds []float64, delivered bool, err error) {
	a := h.serve(call{ctx: ctx, inputs: inputs, n: 1})
	return a.preds, !a.abandoned, a.err
}

// batchedReply is one serveRow outcome.
type batchedReply struct {
	preds     []float64
	delivered bool
	err       error
}

// goBatched submits x as a one-row batchable request on its own goroutine.
func goBatched(s *Server, h *Hosted, ctx context.Context, x float64) <-chan batchedReply {
	out := make(chan batchedReply, 1)
	go func() {
		preds, delivered, err := serveRow(ctx, h, oneRow(x))
		out <- batchedReply{preds, delivered, err}
	}()
	return out
}

// awaitQueued waits until n requests are queued behind v's leader.
func awaitQueued(t *testing.T, v *version, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for v.queued.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want %d", v.queued.Load(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func wantReply(t *testing.T, who string, ch <-chan batchedReply, want float64) {
	t.Helper()
	select {
	case r := <-ch:
		if r.err != nil || !r.delivered || len(r.preds) != 1 || r.preds[0] != want {
			t.Fatalf("%s: reply %+v, want [%v] delivered", who, r, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no reply", who)
	}
}

func gatedServer(t *testing.T, calls int, opts Options) (*gatedPredictor, *Server, *Hosted, *version) {
	t.Helper()
	pred := newGatedPredictor(calls)
	s, err := NewPredictorServer(pred, opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.reg.lookup("")
	if err != nil {
		t.Fatal(err)
	}
	return pred, s, h, h.active.Load()
}

// TestBatchingMergesWhatQueuedBehindTheLeader: the request that finds the
// version idle executes alone and at once; everything that arrived while it
// ran is taken together, oldest first, as one merged execution led by the
// oldest of them.
func TestBatchingMergesWhatQueuedBehindTheLeader(t *testing.T) {
	pred, s, h, v := gatedServer(t, 2, Options{})
	defer s.Close()
	ctx := context.Background()

	lead := goBatched(s, h, ctx, 0)
	<-pred.entered
	const followers = 31
	replies := make([]<-chan batchedReply, followers)
	for i := range replies {
		replies[i] = goBatched(s, h, ctx, float64(i+1))
		awaitQueued(t, v, int64(i+1)) // so the queue's order is the submission order
	}
	pred.open(0)
	wantReply(t, "leader", lead, 0)
	<-pred.entered
	pred.open(1)
	for i, ch := range replies {
		wantReply(t, "follower", ch, float64(i+1))
	}

	calls := pred.handed()
	if len(calls) != 2 || len(calls[0]) != 1 || len(calls[1]) != followers {
		t.Fatalf("predictor was handed %v; want the leader alone, then all %d followers at once", calls, followers)
	}
	for i, x := range calls[1] {
		if x != float64(i+1) {
			t.Fatalf("merged batch order %v, want oldest first", calls[1])
		}
	}
	b := &v.batching
	if b.inline.Load() != 1 || b.mergedBatches.Load() != 1 || b.mergedRows.Load() != followers {
		t.Errorf("inline=%d merged=%d rows=%d, want 1, 1, %d", b.inline.Load(), b.mergedBatches.Load(), b.mergedRows.Load(), followers)
	}
	// The leader's call was held open for milliseconds, so the forecast says
	// a batch this size runs far longer than a timer's floor: the merged
	// batch was worth holding open, once.
	if b.waits.Load() != 1 {
		t.Errorf("straggler waits = %d, want 1", b.waits.Load())
	}
}

// TestBatchingLeaderNotDelayedBehindNextBatch: a leader answers its own
// request as soon as its own execution ends. The batch that formed behind it
// is the promoted waiter's to run, and blocking that batch must not hold the
// first leader's reply.
func TestBatchingLeaderNotDelayedBehindNextBatch(t *testing.T) {
	pred, s, h, v := gatedServer(t, 2, Options{})
	defer s.Close()
	ctx := context.Background()

	a := goBatched(s, h, ctx, 1)
	<-pred.entered
	b := goBatched(s, h, ctx, 2)
	awaitQueued(t, v, 1)
	c := goBatched(s, h, ctx, 3)
	awaitQueued(t, v, 2)

	pred.open(0)
	<-pred.entered // the next batch is executing, and stays blocked
	wantReply(t, "first leader, while the next batch is still blocked", a, 1)
	select {
	case r := <-b:
		t.Fatalf("follower answered before its batch ran: %+v", r)
	default:
	}
	pred.open(1)
	wantReply(t, "promoted leader", b, 2)
	wantReply(t, "its follower", c, 3)
	if calls := pred.handed(); len(calls) != 2 || len(calls[1]) != 2 {
		t.Fatalf("predictor was handed %v, want [1] then [2 3]", calls)
	}
}

// TestBatchingFollowerGoneDuringStragglerWaitIsCulled: a follower already
// taken into a batch whose context dies while the batch is held open for
// stragglers is answered and counted expired, and its row is never executed.
func TestBatchingFollowerGoneDuringStragglerWaitIsCulled(t *testing.T) {
	// BatchTimeout is only the cap on a wait that the arrival of d ends.
	pred, s, h, v := gatedServer(t, 2, Options{MaxBatch: 3, BatchTimeout: 10 * time.Second})
	defer s.Close()
	h.admit.Observe(time.Second, time.Second, 1) // a forecast worth waiting for
	ctx := context.Background()

	a := goBatched(s, h, ctx, 1)
	<-pred.entered
	b := goBatched(s, h, ctx, 2)
	awaitQueued(t, v, 1)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	c := goBatched(s, h, cctx, 3)
	awaitQueued(t, v, 2)

	pred.open(0)
	wantReply(t, "first leader", a, 1)
	for deadline := time.Now().Add(5 * time.Second); v.batching.waits.Load() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("the promoted leader never held its batch open")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if r := <-c; !errors.Is(r.err, context.Canceled) || r.delivered {
		t.Fatalf("cancelled follower: %+v, want context.Canceled undelivered", r)
	}
	d := goBatched(s, h, ctx, 4) // fills the batch, which ends the wait
	<-pred.entered
	pred.open(1)
	wantReply(t, "promoted leader", b, 2)
	wantReply(t, "straggler", d, 4)
	if calls := pred.handed(); len(calls) != 2 || len(calls[1]) != 2 || calls[1][0] != 2 || calls[1][1] != 4 {
		t.Fatalf("predictor was handed %v, want [1] then [2 4]", calls)
	}
	if got := h.admit.Snapshot().Expired; got != 1 {
		t.Errorf("expired = %d, want 1", got)
	}
}

// TestBatchingStragglerWaitMustPayForItself pins the wait's causes: it is
// the batch's own forecast service time, capped by BatchTimeout, and nothing
// below what a timer can deliver or before there is a forecast.
func TestBatchingStragglerWaitMustPayForItself(t *testing.T) {
	for _, tc := range []struct {
		name   string
		perRow time.Duration // observed service time per row; 0: no observation
		rows   int
		want   time.Duration
	}{
		{"cold controller", 0, 8, 0},
		{"microsecond model", 2 * time.Microsecond, 8, 0},
		{"just under the floor", 10 * time.Microsecond, 9, 0},
		{"forecast above the floor", 50 * time.Microsecond, 4, 200 * time.Microsecond},
		{"millisecond model hits the cap", time.Millisecond, 4, 500 * time.Microsecond},
	} {
		_, s, h, v := gatedServer(t, 0, Options{})
		if tc.perRow > 0 {
			h.admit.Observe(tc.perRow, tc.perRow, 1)
		}
		if got := v.stragglerWait(tc.rows); got != tc.want {
			t.Errorf("%s: stragglerWait(%d rows) = %v, want %v", tc.name, tc.rows, got, tc.want)
		}
		s.Close()
	}
}

// TestBatchingMicrosecondModelNeverWaits: two closed-loop callers against a
// microsecond predictor over real HTTP. Two blocked callers can send nothing
// more, so there is never anything to wait for — and the forecast is far
// below the timer floor besides.
func TestBatchingMicrosecondModelNeverWaits(t *testing.T) {
	srv, cli := startServer(t, doubler, Options{})
	h, err := srv.reg.lookup("")
	if err != nil {
		t.Fatal(err)
	}
	const callers, each = 2, 300
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				preds, err := cli.Predict(context.Background(), oneRow(float64(i)))
				if err != nil || len(preds) != 1 || preds[0] != 2*float64(i) {
					t.Errorf("request %d: %v, %v", i, preds, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b := &h.active.Load().batching
	if got := b.waits.Load(); got != 0 {
		t.Errorf("straggler waits = %d over %d requests, want 0", got, callers*each)
	}
	if got := b.mergedBatches.Load(); got != 0 {
		t.Errorf("merged batches = %d; two closed-loop callers can never both be queued", got)
	}
	if b.inline.Load() == 0 {
		t.Error("no request was executed inline by its own handler")
	}
}

// TestBatchingAbandonedWaitersNeverStrandTheVersion races waiters giving up
// against promotion: whatever the interleaving, the version must end idle
// with an empty queue and still serve — a promoted waiter that has left
// passes the version on.
func TestBatchingAbandonedWaitersNeverStrandTheVersion(t *testing.T) {
	slow := PredictorFunc(func(ctx context.Context, inputs map[string]value.Value) ([]float64, error) {
		time.Sleep(50 * time.Microsecond)
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
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(300))*time.Microsecond)
				_, delivered, err := serveRow(ctx, h, oneRow(1))
				cancel()
				if err != nil && !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("unexpected error %v (delivered=%v)", err, delivered)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	preds, delivered, err := serveRow(context.Background(), h, oneRow(1))
	if err != nil || !delivered || len(preds) != 1 {
		t.Fatalf("request after the storm: %v delivered=%v err=%v", preds, delivered, err)
	}
	v := h.active.Load()
	v.mu.Lock()
	busy := v.busy
	v.mu.Unlock()
	if busy || v.queued.Load() != 0 {
		t.Fatalf("version left busy=%v with %d queued", busy, v.queued.Load())
	}
}

// TestBatchingPanickingPredictorDoesNotWedge: net/http recovers a handler's
// panic, so a predictor that panics fails its leader's request and nothing
// else — the followers of its batch are answered and the version is passed
// on.
func TestBatchingPanickingPredictorDoesNotWedge(t *testing.T) {
	hold := make(chan struct{})
	entered := make(chan struct{}, 4)
	var calls int
	pred := PredictorFunc(func(_ context.Context, inputs map[string]value.Value) ([]float64, error) {
		calls++ // one leader at a time
		entered <- struct{}{}
		switch calls {
		case 1:
			<-hold
		case 2:
			panic("predictor bug")
		}
		return make([]float64, inputs["x"].Len()), nil
	})
	s, err := NewPredictorServer(pred, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h, err := s.reg.lookup("")
	if err != nil {
		t.Fatal(err)
	}
	v := h.active.Load()
	ctx := context.Background()
	first := goBatched(s, h, ctx, 1)
	<-entered
	// The promoted leader runs where a handler would: something above it
	// recovers.
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		serveRow(ctx, h, oneRow(2)) //nolint:errcheck
	}()
	awaitQueued(t, v, 1)
	follower := goBatched(s, h, ctx, 3)
	awaitQueued(t, v, 2)
	close(hold)
	wantReply(t, "first leader", first, 0)
	if r := <-panicked; r == nil {
		t.Fatal("the promoted leader's predictor did not panic")
	}
	select {
	case r := <-follower:
		if !errors.Is(r.err, errBatchPanicked) || !r.delivered {
			t.Fatalf("follower of the panicked batch: %+v, want errBatchPanicked", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower of the panicked batch was left waiting")
	}
	preds, delivered, err := serveRow(ctx, h, oneRow(4))
	if err != nil || !delivered || len(preds) != 1 {
		t.Fatalf("request after the panic: %v delivered=%v err=%v", preds, delivered, err)
	}
}

// TestHotSwapDrainsOldVersionQueue: a version swapped out while it has a
// leader and a queue serves all of it, is drained exactly when the last of it
// is answered, and never holds up the version that replaced it.
func TestHotSwapDrainsOldVersionQueue(t *testing.T) {
	pred, s, h, v1 := gatedServer(t, 2, Options{})
	defer s.Close()
	ctx := context.Background()

	a := goBatched(s, h, ctx, 1)
	<-pred.entered
	b := goBatched(s, h, ctx, 2)
	awaitQueued(t, v1, 1)

	if err := s.reg.DeployPredictor(DefaultModelName, "v2", constPredictor(7), nil); err != nil {
		t.Fatal(err)
	}
	preds, delivered, err := serveRow(ctx, h, oneRow(0))
	if err != nil || !delivered || preds[0] != 7 {
		t.Fatalf("new version while the old one drains: %v delivered=%v err=%v", preds, delivered, err)
	}
	select {
	case <-v1.drained:
		t.Fatal("old version reported drained with a leader executing and a request queued")
	default:
	}
	pred.open(0)
	wantReply(t, "old version's leader", a, 1)
	<-pred.entered
	pred.open(1)
	wantReply(t, "old version's queued request", b, 2)
	select {
	case <-v1.drained:
	case <-time.After(5 * time.Second):
		t.Fatal("old version never drained")
	}
}

// TestShutdownDrainsQueuedWaiters: a graceful shutdown answers everything
// already admitted — the executing leader and the queue behind it.
func TestShutdownDrainsQueuedWaiters(t *testing.T) {
	pred, s, h, v := gatedServer(t, 2, Options{})
	ctx := context.Background()
	a := goBatched(s, h, ctx, 1)
	<-pred.entered
	b := goBatched(s, h, ctx, 2)
	c := goBatched(s, h, ctx, 3)
	awaitQueued(t, v, 2)

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with a leader executing and two requests queued", err)
	case <-time.After(20 * time.Millisecond):
	}
	pred.open(0)
	<-pred.entered
	pred.open(1)
	wantReply(t, "leader", a, 1)
	wantReply(t, "queued", b, 2)
	wantReply(t, "queued", c, 3)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestShutdownForceCloseAnswersQueuedWaiters: when the drain deadline
// expires, the leader's prediction is aborted through its own request's
// context, every queued request is answered, and nothing is left waiting.
func TestShutdownForceCloseAnswersQueuedWaiters(t *testing.T) {
	pred := newGatedPredictor(4)
	srv := newServer(t, pred, Options{})
	base, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(base)
	h, err := srv.reg.lookup("")
	if err != nil {
		t.Fatal(err)
	}
	v := h.active.Load()
	results := make(chan error, 3)
	send := func(x float64) {
		_, err := cli.Predict(context.Background(), oneRow(x))
		results <- err
	}
	go send(1)
	<-pred.entered // the leader is inside the predictor, which only its context ends
	go send(2)
	go send(3)
	awaitQueued(t, v, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	for i := 0; i < 3; i++ {
		select {
		case err := <-results:
			if err == nil {
				t.Error("a request succeeded although its execution was never released")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a request was left waiting after the force-close")
		}
	}
	select {
	case <-v.drained:
	default:
		t.Error("version not drained after Shutdown returned")
	}
	if got := len(pred.handed()); got != 1 {
		t.Errorf("predictor ran %d times; the queued requests must not execute after a force-close", got)
	}
}

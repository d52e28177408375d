package trace

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"willump/internal/metrics"
)

// TestFinishAbandonedLeavesTraceToLateRecorder pins the abandoned-request
// contract: after FinishAbandoned, a goroutine still holding the trace (a
// batcher that outlived its cancelled waiter) may keep Recording while new
// requests Begin and Finish against the same tracer. If FinishAbandoned
// recycled the trace into the pool, a new Begin would reuse it concurrently
// with the late recorder — the race detector catches exactly that.
func TestFinishAbandonedLeavesTraceToLateRecorder(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1, Buffer: 8})
	start := time.Now()
	tc := tr.Begin("m")
	if tc == nil {
		t.Fatal("Begin returned nil with SampleEvery=1")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the batcher, still recording after the waiter gave up
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tc.Record(StageQueueWait, time.Now())
			}
		}
	}()
	tr.FinishAbandoned(tc, "m", start, errors.New("context canceled"))
	// The abandoned request is still retained and attributed (checked before
	// the churn below evicts it from the small ring).
	found := false
	for _, snap := range tr.Traces() {
		if snap.Err == "context canceled" && snap.Sampled {
			found = true
		}
	}
	if !found {
		t.Error("abandoned request missing from the retained ring")
	}
	// Churn the pool: a recycled abandoned trace would be handed back out by
	// one of these Begins while the recorder above still writes to it.
	for i := 0; i < 200; i++ {
		s := time.Now()
		nt := tr.Begin("m")
		if nt == tc {
			t.Fatal("abandoned trace was recycled into a new request while a late recorder still holds it")
		}
		nt.Record(StageModelScore, s)
		tr.Finish(nt, "m", s, nil)
	}
	close(stop)
	wg.Wait()
	if n := tr.Open(); n != 0 {
		t.Errorf("Open = %d after FinishAbandoned, want 0", n)
	}
}

func TestHeadSamplingEveryN(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 4, Buffer: 64})
	sampled := 0
	for i := 0; i < 40; i++ {
		start := time.Now()
		tc := tr.Begin("m")
		if tc != nil {
			sampled++
		}
		tr.Finish(tc, "m", start, nil)
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 40 with SampleEvery=4, want 10", sampled)
	}
	if got, _ := tr.Counts(); got != 10 {
		t.Fatalf("Counts sampled = %d, want 10", got)
	}
	if n := len(tr.Traces()); n != 10 {
		t.Fatalf("retained %d traces, want 10", n)
	}
	if tr.Open() != 0 {
		t.Fatalf("Open = %d after all Finish, want 0", tr.Open())
	}
}

func TestSampleEveryOneRetainsSpans(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1, Buffer: 8})
	start := time.Now()
	tc := tr.Begin("m")
	if tc == nil {
		t.Fatal("Begin returned nil with SampleEvery=1")
	}
	s0 := time.Now()
	time.Sleep(time.Millisecond)
	tc.Record("step:a", s0)
	tc.Record("ifv:0", s0)
	tr.Finish(tc, "m", start, nil)

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(traces))
	}
	snap := traces[0]
	if !snap.Sampled || snap.Label != "m" || len(snap.Spans) != 2 {
		t.Fatalf("snapshot = %+v, want sampled label=m with 2 spans", snap)
	}
	if snap.Spans[0].Stage != "step:a" || snap.Spans[0].Dur <= 0 {
		t.Fatalf("span[0] = %+v, want step:a with positive duration", snap.Spans[0])
	}
	if snap.Total < snap.Spans[0].Dur {
		t.Fatalf("total %v < span dur %v", snap.Total, snap.Spans[0].Dur)
	}
	hists := tr.StageHists()
	if hists["step:a"].Count != 1 || hists["ifv:0"].Count != 1 {
		t.Fatalf("stage hists = %+v, want one observation each", hists)
	}
}

func TestTailSamplingSlowAndError(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1 << 30, Buffer: 8, SlowThreshold: time.Microsecond})
	// Slow unsampled request: retained spanless.
	start := time.Now().Add(-time.Millisecond)
	tr.Finish(nil, "m", start, nil)
	// Fast unsampled error: retained too.
	tr.Finish(nil, "m", time.Now(), errors.New("boom"))
	// Fast unsampled success with a generous threshold tracer: dropped.
	tr2 := NewTracer(Config{SampleEvery: 1 << 30})
	tr2.Finish(nil, "m", time.Now(), nil)

	slow := tr.Slow()
	if len(slow) != 2 {
		t.Fatalf("slow list has %d entries, want 2", len(slow))
	}
	if slow[0].Err != "boom" || slow[0].Sampled {
		t.Fatalf("newest slow entry = %+v, want unsampled error", slow[0])
	}
	if slow[1].Total < time.Millisecond {
		t.Fatalf("slow entry total = %v, want >= 1ms", slow[1].Total)
	}
	if _, tailed := tr.Counts(); tailed != 2 {
		t.Fatalf("tailed = %d, want 2", tailed)
	}
	if len(tr.Traces()) != 2 {
		t.Fatalf("tail-sampled entries missing from trace ring: %d", len(tr.Traces()))
	}
	if len(tr2.Slow()) != 0 {
		t.Fatal("fast successful request was tail-sampled")
	}
}

func TestRingEvictionNewestFirst(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1, Buffer: 4})
	for i := 0; i < 10; i++ {
		start := time.Now()
		tc := tr.Begin(fmt.Sprintf("m%d", i))
		tr.Finish(tc, "", start, nil)
	}
	traces := tr.Traces()
	if len(traces) != 4 {
		t.Fatalf("ring holds %d, want 4", len(traces))
	}
	for i, want := range []string{"m9", "m8", "m7", "m6"} {
		if traces[i].Label != want {
			t.Fatalf("traces[%d].Label = %q, want %q (newest first)", i, traces[i].Label, want)
		}
	}
}

func TestContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("FromContext on empty ctx should be nil")
	}
	if FromContext(nil) != nil { //nolint:staticcheck // nil ctx tolerated by design
		t.Fatal("FromContext(nil) should be nil")
	}
	ctx := context.Background()
	if NewContext(ctx, nil) != ctx {
		t.Fatal("NewContext with nil trace must return ctx unchanged")
	}
	tc := &Trace{start: time.Now()}
	if got := FromContext(NewContext(ctx, tc)); got != tc {
		t.Fatalf("FromContext = %p, want %p", got, tc)
	}
	// Record on the nil trace is a no-op, not a panic.
	var nilT *Trace
	nilT.Record("x", time.Now())
}

// TestOwnedContext pins the ownership mark the serving handler places on
// every request context — sampled (via the carried trace) or not (via
// MarkOwned) — so inner entry points skip their own Begin/Finish.
func TestOwnedContext(t *testing.T) {
	if Owned(nil) {
		t.Error("Owned(nil) = true")
	}
	if Owned(context.Background()) {
		t.Error("background context reported owned")
	}
	if !Owned(MarkOwned(context.Background())) {
		t.Error("MarkOwned context not reported owned")
	}
	tr := NewTracer(Config{SampleEvery: 1, Buffer: 8})
	start := time.Now()
	tc := tr.Begin("m")
	if !Owned(NewContext(context.Background(), tc)) {
		t.Error("trace-carrying context not reported owned")
	}
	tr.Finish(tc, "m", start, nil)
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tc := tr.Begin("m"); tc != nil {
		t.Fatal("nil tracer sampled a request")
	}
	tr.Finish(nil, "m", time.Now(), nil)
	if tr.Traces() != nil || tr.Slow() != nil || tr.Open() != 0 {
		t.Fatal("nil tracer retained state")
	}
	if s, tl := tr.Counts(); s != 0 || tl != 0 {
		t.Fatal("nil tracer counted")
	}
}

func TestConcurrentRecordAndFinish(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1, Buffer: 128})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				start := time.Now()
				tc := tr.Begin("m")
				// Parallel workers sharing one trace.
				var inner sync.WaitGroup
				for w := 0; w < 2; w++ {
					inner.Add(1)
					go func() {
						defer inner.Done()
						tc.Record("ifv:0", time.Now())
					}()
				}
				inner.Wait()
				tr.Finish(tc, "m", start, nil)
			}
		}()
	}
	wg.Wait()
	if tr.Open() != 0 {
		t.Fatalf("Open = %d after all goroutines finished, want 0", tr.Open())
	}
	if got := tr.TotalHist().Count; got != 8*200 {
		t.Fatalf("total hist count = %d, want %d", got, 8*200)
	}
}

// TestHistBuckets pins how the tracer's fine-grained histogram is folded
// under the 17 exposition bounds.
func TestHistBuckets(t *testing.T) {
	var h metrics.Hist
	h.Observe(5 * time.Microsecond)  // bucket 0 (<=10µs)
	h.Observe(30 * time.Microsecond) // bucket 2 (<=50µs)
	h.Observe(10 * time.Second)      // +Inf bucket
	s := snapshot(&h)
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.Counts[0] != 1 || s.Counts[2] != 1 || s.Counts[len(s.Counts)-1] != 1 {
		t.Fatalf("bucket counts = %v", s.Counts)
	}
	if s.SumSeconds < 10 || s.SumSeconds > 10.1 {
		t.Fatalf("sum = %v s, want ~10", s.SumSeconds)
	}
	if len(s.Bounds) != 17 || len(s.Bounds)+1 != len(s.Counts) {
		t.Fatalf("bounds/counts mismatch: %d vs %d", len(s.Bounds), len(s.Counts))
	}
	// A latency exactly on a bound counts under that bound's le.
	for i, b := range histBounds {
		h.Observe(b)
		if got := snapshot(&h).Counts[i]; got != s.Counts[i]+1 {
			t.Fatalf("observing %v moved bucket %d from %d to %d, want +1", b, i, s.Counts[i], got)
		}
	}
}

func TestBeginAllocFreeWhenUnsampled(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1 << 30, SlowThreshold: time.Hour})
	start := time.Now()
	allocs := testing.AllocsPerRun(200, func() {
		tc := tr.Begin("m")
		tr.Finish(tc, "m", start, nil)
	})
	if allocs != 0 {
		t.Fatalf("unsampled Begin/Finish allocates %.1f/op, want 0", allocs)
	}
}

package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"willump/internal/serving"
)

func steadyEvents(n int, gap time.Duration) []Event {
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{At: time.Duration(i) * gap, Key: int64(i)}
	}
	return events
}

// TestRunOpenLoopPin is the open-loop acceptance test: a server an order of
// magnitude slower than the offered rate must not reduce the number of
// request starts — every event is emitted on schedule, queues behind the
// slow workers, and its queueing delay is charged to measured latency
// (coordinated-omission correction).
func TestRunOpenLoopPin(t *testing.T) {
	const n = 100
	events := steadyEvents(n, time.Millisecond) // 1000 qps offered
	const svc = 20 * time.Millisecond
	target := TargetFunc(func(ctx context.Context, ev Event) error {
		time.Sleep(svc) // capacity 4 workers / 20ms = 200 qps, 5x oversubscribed
		return nil
	})
	res := Run(context.Background(), target, RunConfig{Events: events, Workers: 4})

	if res.Started != n {
		t.Fatalf("slow server reduced request starts: %d of %d", res.Started, n)
	}
	if res.Success != n {
		t.Fatalf("success %d, want %d (errors %d)", res.Success, n, res.Errors)
	}
	// A closed-loop driver would measure ~svc per request. Open-loop with a
	// 5x oversubscribed server, the tail must carry queueing delay many
	// times the service time.
	if p99 := res.Latency.Quantile(0.99); p99 < 5*svc {
		t.Errorf("p99 %s carries no queueing delay; want >> %s (closed-loop symptom)",
			p99, svc)
	}
	// The backlog (~80 events at 200/s) must drain after the 100ms horizon.
	if res.Elapsed < 300*time.Millisecond {
		t.Errorf("run finished in %s; the backlog should have taken ~500ms", res.Elapsed)
	}
}

// TestRunDispatchOnSchedule pins the other half of open-loop: with an
// unloaded server, workers receive events close to their scheduled times.
func TestRunDispatchOnSchedule(t *testing.T) {
	const n = 50
	events := steadyEvents(n, 2*time.Millisecond)
	start := time.Now()
	var maxSkew atomic.Int64
	target := TargetFunc(func(ctx context.Context, ev Event) error {
		skew := time.Since(start.Add(ev.At))
		for {
			cur := maxSkew.Load()
			if int64(skew) <= cur || maxSkew.CompareAndSwap(cur, int64(skew)) {
				return nil
			}
		}
	})
	res := Run(context.Background(), target, RunConfig{Events: events, Workers: 8})
	if res.Success != n {
		t.Fatalf("success %d, want %d", res.Success, n)
	}
	if skew := time.Duration(maxSkew.Load()); skew > 100*time.Millisecond {
		t.Errorf("max dispatch skew %s; events are not being fed on schedule", skew)
	}
}

// TestRunClassification pins the error taxonomy: nil → success,
// ErrOverloaded (however wrapped) → overloaded, anything else → errors, and
// the counts always balance.
func TestRunClassification(t *testing.T) {
	events := steadyEvents(90, 100*time.Microsecond)
	target := TargetFunc(func(ctx context.Context, ev Event) error {
		switch ev.Key % 3 {
		case 1:
			return fmt.Errorf("admission: %w", serving.ErrOverloaded)
		case 2:
			return errors.New("boom")
		}
		return nil
	})
	res := Run(context.Background(), target, RunConfig{Events: events, Workers: 4})
	if res.Success != 30 || res.Overloaded != 30 || res.Errors != 30 {
		t.Fatalf("got success=%d overloaded=%d errors=%d, want 30/30/30",
			res.Success, res.Overloaded, res.Errors)
	}
	if res.Completed != res.Success+res.Overloaded+res.Errors {
		t.Fatalf("accounting imbalance: completed %d != %d+%d+%d",
			res.Completed, res.Success, res.Overloaded, res.Errors)
	}
	if res.Latency.Count() != res.Success {
		t.Fatalf("success histogram holds %d samples, want %d", res.Latency.Count(), res.Success)
	}
	if res.FailureLat.Count() != res.Overloaded+res.Errors {
		t.Fatalf("failure histogram holds %d samples, want %d",
			res.FailureLat.Count(), res.Overloaded+res.Errors)
	}
}

// TestRunHooksFireOnOwnClock pins that chaos hooks fire near their offsets
// even when every worker is wedged, and that hook errors reach the result.
func TestRunHooksFireOnOwnClock(t *testing.T) {
	events := steadyEvents(8, time.Millisecond)
	start := time.Now()
	var firedAt atomic.Int64
	target := TargetFunc(func(ctx context.Context, ev Event) error {
		time.Sleep(150 * time.Millisecond) // wedge all workers past the hook offset
		return nil
	})
	res := Run(context.Background(), target, RunConfig{
		Events:  events,
		Workers: 2,
		Hooks: []Hook{
			{At: 50 * time.Millisecond, Name: "mark", Fn: func(context.Context) error {
				firedAt.Store(int64(time.Since(start)))
				return nil
			}},
			{At: 60 * time.Millisecond, Name: "fail", Fn: func(context.Context) error {
				return errors.New("hook exploded")
			}},
		},
	})
	at := time.Duration(firedAt.Load())
	if at == 0 || at > 140*time.Millisecond {
		t.Errorf("hook fired at %s, want ~50ms despite wedged workers", at)
	}
	if len(res.HookErrs) != 1 || res.HookErrs[0] != "fail: hook exploded" {
		t.Errorf("hook errors %v, want the failing hook recorded", res.HookErrs)
	}
}

// TestRunContextCancel pins that cancelling the run context stops emission
// and drains cleanly rather than hanging.
func TestRunContextCancel(t *testing.T) {
	events := steadyEvents(10000, time.Millisecond) // 10s schedule
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan *Result, 1)
	go func() {
		done <- Run(ctx, TargetFunc(func(context.Context, Event) error { return nil }),
			RunConfig{Events: events, Workers: 4})
	}()
	select {
	case res := <-done:
		if res.Started >= 10000 {
			t.Errorf("cancelled run started all %d events", res.Started)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled run did not finish")
	}
}

// TestBudgetCheck pins budget semantics: negative rate = unchecked, zero =
// strict, latency bounds only when set.
func TestBudgetCheck(t *testing.T) {
	res := &Result{
		Started: 100, Completed: 100, Success: 90, Overloaded: 8, Errors: 2,
		Elapsed: time.Second,
	}
	res.Latency.Observe(10 * time.Millisecond)

	strict := BuildReport("s", res, time.Second, Budget{MaxErrorRate: 0, MaxOverloadRate: 0})
	if len(strict.Violations) != 2 {
		t.Errorf("strict budget: %d violations, want 2 (errors and overload): %v",
			len(strict.Violations), strict.Violations)
	}
	loose := BuildReport("l", res, time.Second, Budget{MaxErrorRate: Unchecked, MaxOverloadRate: Unchecked})
	if !loose.Passed() {
		t.Errorf("unchecked budget violated: %v", loose.Violations)
	}
	lat := BuildReport("lat", res, time.Second, Budget{
		MaxErrorRate: Unchecked, MaxOverloadRate: Unchecked, MaxP99: time.Millisecond,
	})
	if lat.Passed() {
		t.Error("p99 budget of 1ms not violated by 10ms latency")
	}
}

package loadgen

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"willump/internal/metrics"
	"willump/internal/serving"
)

// Target issues one request on behalf of the runner. Implementations
// classify nothing — the runner maps the returned error (nil, ErrOverloaded,
// other) into the report.
type Target interface {
	Do(ctx context.Context, ev Event) error
}

// TargetFunc adapts a function to the Target interface.
type TargetFunc func(ctx context.Context, ev Event) error

// Do implements Target.
func (f TargetFunc) Do(ctx context.Context, ev Event) error { return f(ctx, ev) }

// Hook is a chaos action fired once at a scheduled offset inside a run —
// inject store tail latency, hot-swap the deployed model, drain the server.
type Hook struct {
	At   time.Duration
	Name string
	Fn   func(ctx context.Context) error
}

// RunConfig parameterizes one open-loop run.
type RunConfig struct {
	Events  []Event       // the full schedule, built before the run starts
	Workers int           // fixed worker-pool size (default 32)
	Timeout time.Duration // per-request deadline (default 5s)
	Hooks   []Hook        // chaos actions, fired at their offsets
}

// Result is the raw outcome of a run, before env-level enrichment.
type Result struct {
	Started    int64 // events emitted on schedule (the open-loop invariant)
	Completed  int64 // requests that finished (any outcome)
	Success    int64
	Overloaded int64 // shed with ErrOverloaded (HTTP 429)
	Errors     int64 // any other failure, including drain-window refusals
	Elapsed    time.Duration
	HookErrs   []string

	// Latency is measured from each event's *scheduled* start, so time a
	// request spends queued behind a slow server is charged to the server
	// (coordinated-omission corrected). Success and failure are kept in
	// separate histograms: shed requests return in microseconds and would
	// otherwise mask a collapsing success tail.
	Latency    metrics.Hist // successful requests only
	FailureLat metrics.Hist // overloaded + errored requests
}

type timedEvent struct {
	ev    Event
	sched time.Time
}

// Run executes the schedule against target. The dispatcher emits every
// event at start+ev.At into a queue buffered to hold the entire schedule,
// so emission can never block on slow workers: offered load is a property
// of the schedule alone. A fixed pool of cfg.Workers goroutines drains the
// queue and issues requests; late responses delay *completion*, never
// *arrival*.
//
// ctx cancels the run early (dispatcher stops emitting, workers drain).
func Run(ctx context.Context, target Target, cfg RunConfig) *Result {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 32
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	res := &Result{}

	queue := make(chan timedEvent, len(cfg.Events))
	start := time.Now()

	// Chaos hooks fire on their own clock, sorted by offset, so a hook is
	// never delayed by dispatch or worker backlog.
	hooks := append([]Hook(nil), cfg.Hooks...)
	sort.SliceStable(hooks, func(i, j int) bool { return hooks[i].At < hooks[j].At })
	var hookMu sync.Mutex
	var hookWG sync.WaitGroup
	hookWG.Add(1)
	go func() {
		defer hookWG.Done()
		for _, h := range hooks {
			select {
			case <-time.After(time.Until(start.Add(h.At))):
			case <-ctx.Done():
				return
			}
			if err := h.Fn(ctx); err != nil {
				hookMu.Lock()
				res.HookErrs = append(res.HookErrs, h.Name+": "+err.Error())
				hookMu.Unlock()
			}
		}
	}()

	// Dispatcher: one goroutine walking the schedule. The send never blocks
	// (buffer == len(events)), so Started counts exactly the on-schedule
	// emissions.
	var dispatchWG sync.WaitGroup
	dispatchWG.Add(1)
	go func() {
		defer dispatchWG.Done()
		defer close(queue)
		for _, ev := range cfg.Events {
			sched := start.Add(ev.At)
			select {
			case <-time.After(time.Until(sched)):
			case <-ctx.Done():
				return
			}
			queue <- timedEvent{ev: ev, sched: sched}
			atomic.AddInt64(&res.Started, 1)
		}
	}()

	var workerWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			for te := range queue {
				rctx, cancel := context.WithTimeout(ctx, timeout)
				err := target.Do(rctx, te.ev)
				cancel()
				lat := time.Since(te.sched)
				atomic.AddInt64(&res.Completed, 1)
				switch {
				case err == nil:
					atomic.AddInt64(&res.Success, 1)
					res.Latency.Observe(lat)
				case errors.Is(err, serving.ErrOverloaded):
					atomic.AddInt64(&res.Overloaded, 1)
					res.FailureLat.Observe(lat)
				default:
					atomic.AddInt64(&res.Errors, 1)
					res.FailureLat.Observe(lat)
				}
			}
		}()
	}

	dispatchWG.Wait()
	workerWG.Wait()
	hookWG.Wait()
	res.Elapsed = time.Since(start)
	return res
}

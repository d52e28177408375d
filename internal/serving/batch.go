package serving

import (
	"context"
	"errors"
	"fmt"
	"time"

	"willump/internal/cascade"
	"willump/internal/core"
	"willump/internal/trace"
	"willump/internal/value"
)

// Leader-executes batching. A version has no goroutine of its own: every
// batch is executed by the handler of one of the requests in it.
//
//   - A request that finds the version idle becomes the leader and executes
//     at once, alone, on its own goroutine under its own context — a lone
//     request pays no batching delay and no hand-off.
//   - Requests that arrive while a leader holds the version queue behind it
//     (bounded by QueueDepth; beyond it they are turned away overloaded).
//   - A leader that finishes hands the version to the oldest live waiter,
//     which takes everything queued behind it (up to MaxBatch rows) as one
//     merged batch, executes it, and answers the others. So no handler ever
//     runs a batch that does not contain its own request, and the version is
//     drained exactly when it has no leader and nothing queued.
//
// This is Clipper's adaptive batching with the serving loop folded into the
// callers: batches form only under concurrency, sized by how much work
// arrived while the previous batch ran.

// call is one predict-route request on its way through serve: what the
// client sent and what the path decided about it.
type call struct {
	ctx    context.Context // the originating request's context
	inputs map[string]value.Value
	n      int
	po     core.PredictOptions
	topK   bool
	// merge marks a mergeable request: a predict whose options are zero apart
	// from criticality. Only these share batches, route to a canary, feed the
	// arm's guard telemetry or touch the prediction cache.
	merge bool
	// degraded names the rung the ladder applied (admission.Degraded*); po
	// then carries what it changed. A merged batch executes small-only only
	// when every member was degraded to it: one full-fidelity request — e.g.
	// criticality-high traffic riding below the ladder — upgrades the batch.
	degraded string
	enq      time.Time // when the request was admitted (queue-wait spans)
}

// waiter is a call queued behind the version's current leader.
type waiter struct {
	call
	// done carries the one message a waiter ever gets: its answer, or its
	// promotion. Buffered, so nobody blocks on a waiter that gave up.
	done chan answer
	// promoted is set, under version.mu, when handoff names this waiter the
	// next leader.
	promoted bool
}

// answer is what serve returns for a call.
type answer struct {
	preds []float64 // predict
	idx   []int     // top-K
	err   error
	// degraded names the brownout rung that produced the answer
	// (admission.Degraded*); empty for full-fidelity results.
	degraded string
	// abandoned is set when the caller gave up (its context died, or a
	// force-close cancelled the registry's) on a call that is still queued: a
	// later leader may yet reach it, so whatever its context carries (its
	// trace) stays referenced.
	abandoned bool
	// lead is not a result: the waiter has been promoted and leads the next
	// batch itself.
	lead bool
}

// errBatchPanicked answers the followers of a merged batch whose execution
// panicked on its leader's goroutine.
var errBatchPanicked = errors.New("serving: batch execution panicked")

// timerFloor is the shortest straggler wait worth taking. A runtime timer
// set for less fires late by more than it was set for, so the wait would
// cost more than the execution it hopes to share.
const timerFloor = 100 * time.Microsecond

// submit runs one mergeable call through the version: at once as the leader
// when the version is idle, otherwise queued until a leader answers or
// promotes it.
func (v *version) submit(c call) answer {
	v.mu.Lock()
	queued := int(v.queued.Load())
	switch {
	case v.stopped:
		v.mu.Unlock()
		return answer{err: errVersionStopped}
	case !v.busy:
		v.busy = true
		v.mu.Unlock()
		v.batching.inline.Add(1)
		// Deferred, so that a predictor that panics — which net/http turns
		// into one failed request — cannot leave the version held forever.
		defer v.handoff()
		return v.runLone(&c)
	case queued == len(v.ring):
		v.mu.Unlock()
		return answer{err: ErrOverloaded}
	}
	w := &waiter{call: c, done: make(chan answer, 1)}
	v.ring[(v.head+queued)%len(v.ring)] = w
	v.queued.Add(1)
	v.queuedRows += c.n
	if v.need > 0 && v.queuedRows >= v.need {
		v.need = 0
		select {
		case v.full <- struct{}{}:
		default:
		}
	}
	v.mu.Unlock()

	a := answer{abandoned: true}
	select {
	case a = <-w.done:
		if a.lead {
			a = v.lead(w)
		}
		return a
	case <-c.ctx.Done():
		a.err = c.ctx.Err()
	case <-v.baseCtx.Done():
		a.err = errShuttingDown
	}
	v.mu.Lock()
	promoted := w.promoted
	v.mu.Unlock()
	if promoted {
		// Named leader in the instant it gave up: nobody else will pass the
		// version on.
		v.admit.CountExpired(1)
		v.handoff()
	}
	return a
}

// gone reports why a queued request must not execute: its own context died,
// or a force-close cancelled the registry's.
func (v *version) gone(c *call) error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	if v.baseCtx.Err() != nil {
		return errShuttingDown
	}
	return nil
}

// expire answers a waiter that is gone and counts it expired, so that a dead
// request never costs the batch any compute; it reports whether it did.
func (v *version) expire(w *waiter) bool {
	err := v.gone(&w.call)
	if err == nil {
		return false
	}
	v.admit.CountExpired(1)
	w.done <- answer{err: err}
	return true
}

// pop removes the oldest waiter. The caller holds v.mu and has checked the
// queue is not empty. A waiter that is gone is expired instead of returned.
func (v *version) pop() *waiter {
	w := v.ring[v.head]
	v.ring[v.head] = nil
	v.head = (v.head + 1) % len(v.ring)
	v.queued.Add(-1)
	v.queuedRows -= w.n
	if v.expire(w) {
		return nil
	}
	return w
}

// handoff ends a leader's turn: the oldest live waiter is promoted to lead
// the next batch, or, with nothing queued, the version goes idle (and, once
// stopped, is drained).
func (v *version) handoff() {
	v.mu.Lock()
	defer v.mu.Unlock()
	for v.queued.Load() > 0 {
		if w := v.pop(); w != nil {
			w.promoted = true
			w.done <- answer{lead: true}
			return
		}
	}
	v.busy = false
	if v.stopped {
		close(v.drained)
	}
}

// beginDrain stops admission to this version; what it already admitted is
// still served, by the leaders that hand it on.
func (v *version) beginDrain() {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.stopped {
		return
	}
	v.stopped = true
	if !v.busy {
		close(v.drained)
	}
}

// take moves queued requests into the batch, oldest first, until it holds
// MaxBatch rows.
func (v *version) take(batch []*waiter, rows int) ([]*waiter, int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.need = 0
	for rows < v.opts.MaxBatch && v.queued.Load() > 0 {
		if w := v.pop(); w != nil {
			batch, rows = append(batch, w), rows+w.n
		}
	}
	return batch, rows
}

// cull expires the followers that went while the batch was held open for
// stragglers. The leader stays whatever its context says: it holds the
// version, and the batch is the others' too.
func (v *version) cull(batch []*waiter, rows int) ([]*waiter, int) {
	live := batch[:1]
	for _, w := range batch[1:] {
		if v.expire(w) {
			rows -= w.n
			continue
		}
		live = append(live, w)
	}
	clear(batch[len(live):])
	return live, rows
}

// stragglerWait is how long holding a merged batch of rows open for more
// work can pay for itself: at most the batch's own forecast service time (so
// the wait can at worst double the batch's latency, and a batch twice the
// size breaks even), capped by BatchTimeout, and nothing at all when that is
// less than a timer can deliver — a microsecond model never sleeps.
func (v *version) stragglerWait(rows int) time.Duration {
	wait := min(v.admit.Forecast(rows), v.opts.BatchTimeout)
	if wait < timerFloor {
		return 0
	}
	return wait
}

// awaitStragglers sleeps for wait, or until the queue holds enough rows to
// fill a batch that has rows already.
func (v *version) awaitStragglers(wait time.Duration, rows int) {
	v.mu.Lock()
	v.need = v.opts.MaxBatch - rows
	filled := v.queuedRows >= v.need
	select {
	case <-v.full: // a wake-up nobody took
	default:
	}
	v.mu.Unlock()
	if filled {
		return
	}
	v.batching.waits.Add(1)
	t := time.NewTimer(wait)
	select {
	case <-t.C:
	case <-v.full:
	}
	t.Stop()
}

// lead runs the next batch on the promoted waiter's goroutine: the waiter's
// own request and whatever queued behind it.
func (v *version) lead(self *waiter) (a answer) {
	defer v.handoff() // even if the predictor panics, as in submit
	if err := v.gone(&self.call); err != nil {
		// Died between promotion and waking.
		v.admit.CountExpired(1)
		return answer{err: err}
	}
	batch, rows := v.take(append(v.batch[:0], self), self.n)
	if len(batch) > 1 && rows < v.opts.MaxBatch {
		if wait := v.stragglerWait(rows); wait > 0 {
			v.awaitStragglers(wait, rows)
			batch, rows = v.cull(batch, rows)
			batch, rows = v.take(batch, rows)
		}
	}
	answered := false
	defer func() {
		if !answered {
			// The predictor panicked under the leader; its followers must
			// not be left waiting for an answer nobody will send.
			for _, w := range batch[1:] {
				select {
				case w.done <- answer{err: errBatchPanicked}:
				default:
				}
			}
		}
		clear(batch)
		v.batch = batch[:0]
	}()
	if len(batch) == 1 {
		a = v.runLone(&self.call)
	} else {
		a = v.runMerged(batch, rows)
	}
	answered = true
	return a
}

// runLone executes one call alone, under its own context: client cancellation
// aborts the prediction itself, and so does a force-close, which kills every
// request context. It serves the idle version's leader, a promoted waiter
// with nothing behind it, and every call that never merges.
func (v *version) runLone(c *call) answer {
	if err := c.ctx.Err(); err != nil {
		v.admit.CountExpired(1)
		return answer{err: err}
	}
	trace.FromContext(c.ctx).Record(trace.StageQueueWait, c.enq)
	execStart := time.Now()
	a, cs := v.exec(c.ctx, c.inputs, c.n, c.po, c.topK)
	end := time.Now()
	v.executed(end.Sub(execStart), end.Sub(c.enq), c.n, cs, c.merge)
	a.degraded = c.degraded
	v.settle(c, &a, end)
	return a
}

// runMerged merges the batch's inputs, predicts once under the registry's
// execution context, answers the followers and returns the leader's own
// answer (batch[0] is the leader).
func (v *version) runMerged(batch []*waiter, rows int) answer {
	// Degrade to small-model-only scoring only when the whole batch was.
	var po core.PredictOptions
	degraded := batch[0].degraded
	for _, w := range batch {
		if w.degraded == "" {
			degraded = ""
		}
	}
	po.SmallOnly = degraded != ""
	// Record each member's queue wait; the first sampled member's trace
	// carries through the merged execution below, so weld/cascade stage
	// spans attach to it (the other members see only queue wait and total).
	var btr *trace.Trace
	for _, w := range batch {
		if tr := trace.FromContext(w.ctx); tr != nil {
			tr.Record(trace.StageQueueWait, w.enq)
			if btr == nil {
				btr = tr
			}
		}
	}
	var assembleStart time.Time
	if btr != nil {
		assembleStart = time.Now()
	}
	// Merge columns across the batch's requests, reusing the version's
	// leader-owned scratch maps (column names are stable across batches).
	if v.mergeCols == nil {
		v.mergeCols = make(map[string][]value.Value)
		v.mergeInput = make(map[string]value.Value)
	}
	merged := v.mergeCols
	for k, s := range merged {
		clear(s) // drop the previous batch's column references, not just the length
		merged[k] = s[:0]
	}
	for _, w := range batch {
		for k, val := range w.inputs {
			merged[k] = append(merged[k], val)
		}
	}
	inputs := v.mergeInput
	clear(inputs)
	for k, vs := range merged {
		if len(vs) == 0 {
			continue // column absent from this batch's requests
		}
		cat, err := concatValues(vs)
		if err != nil {
			return v.deliver(batch, answer{err: err}, time.Now())
		}
		inputs[k] = cat
	}
	if btr != nil {
		btr.Record(trace.StageBatchAssemble, assembleStart)
	}
	// A merged batch serves several independent requests, so one client's
	// cancellation must not abort the others: execute under the registry's
	// context, which only a force-close cancels. The sampled member's trace
	// is re-attached so execution spans still land on it.
	ectx := v.baseCtx
	if btr != nil {
		ectx = trace.NewContext(ectx, btr)
	}
	v.batching.mergedBatches.Add(1)
	v.batching.mergedRows.Add(int64(rows))
	execStart := time.Now()
	a, cs := v.exec(ectx, inputs, rows, po, false)
	end := time.Now()
	v.executed(end.Sub(execStart), end.Sub(batch[0].enq), rows, cs, true)
	a.degraded = degraded
	return v.deliver(batch, a, end)
}

// deliver settles every member's share of the merged answer, sends the
// followers theirs and returns the leader's.
func (v *version) deliver(batch []*waiter, all answer, end time.Time) (own answer) {
	off := 0
	for i, w := range batch {
		a := all
		if all.err == nil {
			a.preds = all.preds[off : off+w.n]
			off += w.n
		}
		v.settle(&w.call, &a, end)
		if i == 0 {
			own = a
		} else {
			w.done <- a
		}
	}
	return own
}

// executed feeds one execution — a lone call or a merged batch — to the arm's
// service forecast, successful or not (a failure consumed service time too),
// and counts how the cascade served it; the arm's guard telemetry sees
// mergeable traffic only.
func (v *version) executed(service, total time.Duration, rows int, cs cascade.ServeStats, merge bool) {
	v.admit.Observe(service, total, rows)
	v.stats.recordCascade(cs)
	if merge {
		v.arm.recordCascade(cs)
	}
}

// settle accounts one executed call's outcome: the degraded marker survives
// only on a success, where it is counted, and a mergeable call is one request
// of the arm's guard telemetry.
func (v *version) settle(c *call, a *answer, end time.Time) {
	if a.err != nil {
		a.degraded = ""
	} else if a.degraded != "" {
		v.admit.CountDegraded(a.degraded)
	}
	if c.merge {
		v.arm.record(c.enq, end, a.err)
	}
}

func concatValues(vs []value.Value) (value.Value, error) {
	if len(vs) == 1 {
		return vs[0], nil
	}
	switch vs[0].Kind {
	case value.Strings:
		var out []string
		for _, v := range vs {
			out = append(out, v.Strings...)
		}
		return value.NewStrings(out), nil
	case value.Floats:
		var out []float64
		for _, v := range vs {
			out = append(out, v.Floats...)
		}
		return value.NewFloats(out), nil
	case value.Ints:
		var out []int64
		for _, v := range vs {
			out = append(out, v.Ints...)
		}
		return value.NewInts(out), nil
	default:
		return value.Value{}, fmt.Errorf("serving: cannot merge %s columns", vs[0].Kind)
	}
}

package serving

import (
	"context"
	"errors"
	"fmt"
	"time"

	"willump/internal/admission"
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

// pending is one batchable request.
type pending struct {
	ctx    context.Context // the originating request's context
	inputs map[string]value.Value
	n      int
	enq    time.Time // when the request was submitted (queue-wait spans)
	// small asks for the degraded small-model-only path (set by the brownout
	// ladder at admission). A batch executes degraded only when every member
	// asks for it: one full-fidelity request — e.g. criticality-high traffic
	// riding below the ladder — upgrades the whole batch.
	small bool
}

// waiter is a pending queued behind the version's current leader.
type waiter struct {
	pending
	// done carries the one message a waiter ever gets: its result, or its
	// promotion. Buffered, so nobody blocks on a waiter that gave up.
	done chan batchResult
	// promoted is set, under version.mu, when handoff names this waiter the
	// next leader.
	promoted bool
}

type batchResult struct {
	preds []float64
	err   error
	// degraded names the brownout rung that produced the answer
	// (admission.Degraded*); empty for full-fidelity results.
	degraded string
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

// submit runs one request through the version: at once as the leader when
// the version is idle, otherwise queued until a leader answers or promotes
// it. delivered is false when the caller gave up (its context died, or a
// force-close cancelled the registry's) on a request that is still queued:
// a later leader may yet reach the pending, so whatever its context carries
// (its trace) stays referenced.
func (v *version) submit(p pending) (res batchResult, delivered bool) {
	v.mu.Lock()
	queued := int(v.queued.Load())
	switch {
	case v.stopped:
		v.mu.Unlock()
		return batchResult{err: errVersionStopped}, true
	case !v.busy:
		v.busy = true
		v.mu.Unlock()
		v.batching.inline.Add(1)
		// Deferred, so that a predictor that panics — which net/http turns
		// into one failed request — cannot leave the version held forever.
		defer v.handoff()
		return v.runLone(&p), true
	case queued == len(v.ring):
		v.mu.Unlock()
		return batchResult{err: ErrOverloaded}, true
	}
	w := &waiter{pending: p, done: make(chan batchResult, 1)}
	v.ring[(v.head+queued)%len(v.ring)] = w
	v.queued.Add(1)
	v.queuedRows += p.n
	if v.need > 0 && v.queuedRows >= v.need {
		v.need = 0
		select {
		case v.full <- struct{}{}:
		default:
		}
	}
	v.mu.Unlock()

	select {
	case res = <-w.done:
		if res.lead {
			res = v.lead(w)
		}
		return res, true
	case <-p.ctx.Done():
		res.err = p.ctx.Err()
	case <-v.baseCtx.Done():
		res.err = errShuttingDown
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
	return res, false
}

// gone reports why a queued request must not execute: its own context died,
// or a force-close cancelled the registry's.
func (v *version) gone(p *pending) error {
	if err := p.ctx.Err(); err != nil {
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
	err := v.gone(&w.pending)
	if err == nil {
		return false
	}
	v.admit.CountExpired(1)
	w.done <- batchResult{err: err}
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
			w.done <- batchResult{lead: true}
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
func (v *version) lead(self *waiter) (res batchResult) {
	defer v.handoff() // even if the predictor panics, as in submit
	if err := v.gone(&self.pending); err != nil {
		// Died between promotion and waking.
		v.admit.CountExpired(1)
		return batchResult{err: err}
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
				case w.done <- batchResult{err: errBatchPanicked}:
				default:
				}
			}
		}
		clear(batch)
		v.batch = batch[:0]
	}()
	if len(batch) == 1 {
		res = v.runLone(&self.pending)
	} else {
		res = v.runMerged(batch, rows)
	}
	answered = true
	return res
}

// runLone executes one request alone, under its own context: client
// cancellation aborts the prediction itself, and so does a force-close,
// which kills every request context. The completion feeds the admission
// controller's service forecast.
func (v *version) runLone(p *pending) batchResult {
	if err := p.ctx.Err(); err != nil {
		v.admit.CountExpired(1)
		return batchResult{err: err}
	}
	pred, degraded := v.pred, ""
	if p.small && v.predSmall != nil {
		pred, degraded = v.predSmall, admission.DegradedSmallOnly
	}
	trace.FromContext(p.ctx).Record(trace.StageQueueWait, p.enq)
	execStart := time.Now()
	preds, err := pred.PredictBatch(p.ctx, p.inputs)
	end := time.Now()
	v.admit.Observe(end.Sub(execStart), end.Sub(p.enq), p.n)
	v.guard.record(end.Sub(p.enq), err)
	if err == nil && degraded != "" {
		v.admit.CountDegraded(degraded)
	}
	return batchResult{preds: preds, err: err, degraded: degraded}
}

// runMerged merges the batch's inputs, predicts once under the registry's
// execution context, answers the followers and returns the leader's own
// result (batch[0] is the leader).
func (v *version) runMerged(batch []*waiter, rows int) batchResult {
	// Degrade to small-model-only scoring when the whole batch asked for it
	// and the deployment has a small model to degrade to.
	pred, degraded := v.pred, ""
	if v.predSmall != nil && allSmall(batch) {
		pred, degraded = v.predSmall, admission.DegradedSmallOnly
	}
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
			return v.deliver(batch, nil, err, "")
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
	preds, err := pred.PredictBatch(ectx, inputs)
	v.admit.Observe(time.Since(execStart), time.Since(batch[0].enq), rows)
	return v.deliver(batch, preds, err, degraded)
}

// deliver accounts every member's outcome, sends the followers their share
// of the merged predictions and returns the leader's.
func (v *version) deliver(batch []*waiter, preds []float64, err error, degraded string) (own batchResult) {
	off := 0
	for i, w := range batch {
		res := batchResult{err: err}
		if err == nil {
			res = batchResult{preds: preds[off : off+w.n], degraded: degraded}
			off += w.n
			if degraded != "" {
				v.admit.CountDegraded(degraded)
			}
		}
		v.guard.record(time.Since(w.enq), err)
		if i == 0 {
			own = res
		} else {
			w.done <- res
		}
	}
	return own
}

// allSmall reports whether every member of the batch accepted brownout
// degradation: one full-fidelity request upgrades the whole batch.
func allSmall(batch []*waiter) bool {
	for _, w := range batch {
		if !w.small {
			return false
		}
	}
	return true
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

package weld

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"willump/internal/feature"
	"willump/internal/parallel"
	"willump/internal/value"
)

// Query-aware parallelization (section 4.4) has one fan-out: a query splits
// into parts — row shards of a batch (Shards), feature-generator groups of a
// point (ComputeIFVsParallel) — which the calling goroutine and whichever
// pool workers come free claim one at a time. Nothing waits for a busy
// worker: the caller offers the parts beyond its own to the pool without
// blocking, runs every part nobody took, and then waits only for the parts
// workers are already running. A part that panics does not take down the
// worker it ran on: the fan-out still joins every part, and then re-raises
// the panic on its caller, where it would have surfaced sequentially. Once
// warm a fan-out allocates nothing: its state lives in the run, and the
// workers are started once and live as long as the process.

// minShardWork is the least profiled work, in seconds, one part of a fan-out
// must carry. Handing a part to a polling worker and joining it back costs
// 1.3 µs on a 2-core VM (BenchmarkFanOut: two 20 µs shards take 21.3 µs);
// a part of 20 times that keeps the hand-off within 5 % of it.
const minShardWork = 25e-6

// ForceFanOut makes p fan every query out as wide as workers allows (at most
// one part per row or generator), whatever its profiled work, until t — a
// test or benchmark — cleans up. Tests use it to run shards over fixtures too
// small to earn them; results are the same bits either way.
func ForceFanOut(t interface {
	Helper()
	Cleanup(func())
}, p *Program, workers int) {
	t.Helper()
	forced, w := p.fanOutForced, p.Workers
	p.fanOutForced, p.Workers = true, workers
	t.Cleanup(func() { p.fanOutForced, p.Workers = forced, w })
}

// ShardJob is the body of a batch path run through Shards.
type ShardJob interface {
	// RunShard runs the job end to end on sub, a run over rows [lo, hi) of
	// the rows being sharded, and writes its results at those positions
	// only: shards run concurrently.
	RunShard(sub *BatchRun, lo, hi int) error
}

// Shards runs job over contiguous shards of the given rows of r — every row
// of r, in order, when rows is nil — each shard end to end: features,
// assembly and scoring. It is the paper's batch mode of query-aware
// parallelization: different inputs on different threads. need names the
// IFVs the job computes; width sizes the fan-out from their profiled cost.
// At width 1 the job runs on r itself (rows nil) or on one SubsetRun — the
// sequential path; operators are row-local, so every width gives the same
// bits.
//
// Shards of every row of r view r's caller columns rather than copying them
// (subRun); shards of given rows gather them. Before fanning out, r joins the
// prefetches the job needs, so each key is still fetched once and the shards
// inherit the fetched IFVs. A job needing a remote lookup whose fetch is not
// in flight runs at width 1: its batch time is a store round trip, and
// shards would each make their own. When Shards returns, every shard's run
// is closed and every part, its trace spans included, has finished; the
// first error wins, and a shard's panic is re-raised here only then. r
// holds afterwards what it held before: what the shards computed went with
// them (ShardsKeep keeps it).
func (r *BatchRun) Shards(rows, need []int, job ShardJob) error {
	return r.shards(rows, need, job, false)
}

// ShardsKeep is Shards over every row of r that leaves the IFVs need in r,
// as if r had computed them, for a later SubsetRun of r to gather instead of
// computing them again (top-K's re-rank of the filter's candidates). The
// slots are decided before the fan-out: r owns one buffer per IFV root
// (BatchRun.kept). Each shard writes its rows of a dense root into it in
// place, by row range, as it finishes; a sparse root is stacked from the
// shards once they have all finished. A root of another kind, or one the job
// did not compute, stays with the shards, and r computes it when asked. At
// width 1 the job runs on r itself and there is nothing to copy.
func (r *BatchRun) ShardsKeep(need []int, job ShardJob) error {
	return r.shards(nil, need, job, true)
}

func (r *BatchRun) shards(rows, need []int, job ShardJob, keep bool) error {
	n := r.n
	if rows != nil {
		n = len(rows)
	}
	w := 1
	if !r.storeBound(need) {
		w = r.width(n, n, need)
	}
	if w <= 1 {
		if rows == nil {
			return job.RunShard(r, 0, n)
		}
		sub := r.SubsetRun(rows)
		defer sub.Close()
		return job.RunShard(sub, 0, n)
	}
	for _, i := range need {
		if r.late[i] {
			if err := r.computeIFV(i); err != nil {
				return err
			}
		}
	}
	f := &r.fan
	f.rows, f.contiguous, f.job = rows, rows == nil, job
	if rows == nil {
		for len(r.iota) < n {
			r.iota = append(r.iota, len(r.iota))
		}
		f.rows = r.iota[:n]
	}
	if !keep {
		return f.run(w)
	}
	f.keep = need
	f.subs = growScratch(f.subs, w)
	f.written = growScratch(f.written, len(need))
	clear(f.subs)
	clear(f.written)
	defer f.closeSubs()
	if err := f.run(w); err != nil {
		return err
	}
	r.joinKept()
	return nil
}

// keepDense writes a keeping part's rows [lo, hi) of each kept root that
// came out dense into r's buffer for it, which the first part to get there
// sizes.
func (f *fan) keepDense(sub *BatchRun, lo, hi int) {
	r := f.r
	for j, i := range f.keep {
		d, ok := sub.vals[r.p.A.IFVs[i].Root].Mat.(*feature.Dense)
		if !ok || r.ifvDone[i] || !sub.ifvDone[i] {
			continue
		}
		f.mu.Lock()
		if f.written[j] == 0 {
			prev, _ := r.kept[i].Mat.(*feature.Dense)
			r.kept[i] = value.NewMat(feature.GrowDense(prev, r.n, d.Cols()))
		}
		f.written[j] += hi - lo
		dst := r.kept[i].Mat.(*feature.Dense)
		f.mu.Unlock()
		copy(dst.Data()[lo*d.Cols():hi*d.Cols()], d.Data())
	}
}

// joinKept marks done in r each kept IFV whose root every part left in r's
// buffer — written in place when dense, stacked here when sparse.
func (r *BatchRun) joinKept() {
	f := &r.fan
	for j, i := range f.keep {
		root := r.p.A.IFVs[i].Root
		if r.ifvDone[i] || (f.written[j] != r.n && !r.stackKept(i)) {
			continue
		}
		r.vals[root], r.have[root], r.ifvDone[i] = r.kept[i], true, true
	}
}

// stackKept stacks IFV i's root from the parts into r's buffer for it,
// reporting false, and leaving it for r to compute, unless every part
// computed it as CSR.
func (r *BatchRun) stackKept(i int) bool {
	f := &r.fan
	defer func() { clear(f.csrs) }()
	f.csrs = f.csrs[:0]
	for _, sub := range f.subs {
		m, ok := sub.vals[r.p.A.IFVs[i].Root].Mat.(*feature.CSR)
		if !ok || !sub.ifvDone[i] {
			return false
		}
		f.csrs = append(f.csrs, m)
	}
	prev, _ := r.kept[i].Mat.(*feature.CSR)
	r.kept[i] = value.NewMat(feature.StackCSR(prev, f.csrs))
	return true
}

// closeSubs closes a keeping fan-out's part runs, on every path.
func (f *fan) closeSubs() {
	for k, sub := range f.subs {
		sub.Close()
		f.subs[k] = nil
	}
	f.keep = nil
}

// ComputeIFVsParallel computes the given IFVs of a point query with its
// feature generators spread over the fan-out (the paper's example-at-a-time
// mode), by LPT over their profiled costs: generators are disjoint
// subgraphs, so each part writes only its own generators' node slots and the
// shared state stays race-free, and static assignment avoids scheduling
// overhead. The remote cache misses are fetched together and the
// preprocessing the generators share runs before the fan-out, so the parts
// take only the IFVs left. Generators that look up a remote table stay off
// the pool, as in Shards: the caller computes them once the fan-out has
// joined, so no worker waits out a round trip. The width gate applies as to
// a batch, over the generators the pool would take, so a point whose
// generators cost microseconds never fans out. A batch computes sequentially
// here: its parallelism is Shards.
func (r *BatchRun) ComputeIFVsParallel(idx []int) error {
	// The width over every generator bounds the width over those the pool
	// may take, so a cheap point goes straight to the sequential path.
	if r.n != 1 || r.width(len(idx), 1, idx) <= 1 {
		return r.computeIFVs(idx)
	}
	if err := r.fillRemoteMisses(idx); err != nil {
		return err
	}
	f := &r.fan
	f.ifvs = f.ifvs[:0]
	for _, i := range idx {
		if !r.ifvDone[i] && !r.p.storeBound[i] {
			f.ifvs = append(f.ifvs, i)
		}
	}
	if w := r.width(len(f.ifvs), 1, f.ifvs); w > 1 {
		f.costs = f.costs[:0]
		for _, i := range f.ifvs {
			if err := r.runIFVSteps(i, true); err != nil {
				return err
			}
			f.costs = append(f.costs, r.p.ifvCost[i])
		}
		f.groups = f.assign.Assign(f.costs, w)
		for _, g := range f.groups {
			for j, k := range g {
				g[j] = f.ifvs[k]
			}
		}
		if err := f.run(len(f.groups)); err != nil {
			return err
		}
	}
	return r.computeEach(idx)
}

// storeBound reports whether some IFV in need, not yet computed and not
// prefetching, looks up a remote table.
func (r *BatchRun) storeBound(need []int) bool {
	for _, i := range need {
		if r.p.storeBound[i] && !r.ifvDone[i] && !r.late[i] {
			return true
		}
	}
	return false
}

// width is how many parts a fan-out of at most parts parts, over rows rows
// of a job computing IFVs need, should run as: the number of parts whose
// share of the profiled work — rows × the per-row cost of the needed IFVs
// the run does not hold yet — reaches minShardWork, capped at
// Program.Workers (0: GOMAXPROCS, read only for a query the gate lets
// through, as it takes a runtime lock). The gate changes speed only: every
// width gives the same bits.
func (r *BatchRun) width(parts, rows int, need []int) int {
	w := parts
	if !r.p.fanOutForced {
		var cost float64
		for _, i := range need {
			if !r.ifvDone[i] {
				cost += r.p.ifvCost[i]
			}
		}
		w = min(w, int(float64(rows)*cost/minShardWork))
	}
	if w <= 1 {
		return 1
	}
	limit := r.p.Workers
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, limit))
}

// fan is one run's fan-out, pooled with the run. Workers reach it through
// tasks carrying the epoch it was offered in; a task arriving after its
// fan-out finished (or while the run serves a later one) finds another epoch
// or a closed fan and is dropped, so the caller never waits for a worker
// that had not yet joined when it ran out of parts.
type fan struct {
	r *BatchRun

	mu       sync.Mutex
	epoch    uint64
	open     bool          // workers may still join
	active   atomic.Int32  // workers that joined and have not left
	done     chan struct{} // the last worker out signals a parked caller
	next     atomic.Int64  // next part to claim
	parts    int
	err      error // the first part's error
	panicked any   // the first part's panic, re-raised on the caller

	// A part is shard k of rows through job (contiguous: rows is a range of
	// r's), or, without a job, the point IFV group groups[k]. run clears
	// them.
	rows       []int
	contiguous bool
	job        ShardJob
	groups     [][]int

	// A keeping fan-out's (ShardsKeep) IFVs, its parts' runs — left open
	// until the roots are joined — the rows of each IFV's dense root written
	// into r, and the parts' sparse roots being stacked.
	keep    []int
	subs    []*BatchRun
	written []int
	csrs    []*feature.CSR

	// ComputeIFVsParallel's buffers: the IFVs it spreads, their costs and
	// their LPT assignment.
	ifvs   []int
	costs  []float64
	assign parallel.Assigner
}

// fanTask offers a worker fan f's parts in the given epoch.
type fanTask struct {
	f     *fan
	epoch uint64
}

// shardWorkers is the process-wide fan-out pool: GOMAXPROCS-1 goroutines,
// started on the first fan-out. A worker that finished a task polls for the
// next one if no other worker is polling (spinning), taking it from hot,
// where a fan-out offers its first task while a worker polls, or from tasks;
// otherwise it parks on tasks. tasks holds one task per worker, so an offer
// succeeds while some worker will come to it, and fails at once when all are
// busy with tasks in hand. hot exists because a send on tasks goes straight
// to a parked worker, which takes a wake-up to start, while the poller would
// take it at once.
var shardWorkers struct {
	once     sync.Once
	tasks    chan fanTask
	hot      chan fanTask
	spinning atomic.Bool
}

// spinFor bounds the polling that replaces parking on both sides of a
// fan-out: the one polling worker polls that long for its next task, and a
// caller that ran out of parts that long for the workers still running
// theirs. Waking a parked goroutine takes 60–300 µs on a 2-core VM — its
// idle core has to be woken — which is most of a shard's time, while a
// polling one reacts within a microsecond. 200 µs outlasts the caller's own
// work between back-to-back batches and between the two fan-outs of a top-K
// query (merging the filter shards' picks: ~5 µs for 2000 rows kept to 200),
// so a worker stays in the query. Polling yields the thread to any other
// runnable goroutine (runtime.Gosched), but it does spend CPU time where none
// is spare, as under a CPU quota: one worker polls at a time, so the pool's
// polling costs at most one core whatever its size, and a caller's at most
// spinFor per fan-out.
const spinFor = 200 * time.Microsecond

func startShardWorkers() {
	workers := runtime.GOMAXPROCS(0) - 1
	shardWorkers.tasks = make(chan fanTask, workers)
	shardWorkers.hot = make(chan fanTask, 1)
	for range workers {
		go func() {
			for t := range shardWorkers.tasks {
				for ok := true; ok; t, ok = pollTask() {
					t.f.join(t.epoch)
				}
			}
		}()
	}
}

// pollTask polls up to spinFor for an offered task, unless another worker is
// polling already: then it returns at once and its worker parks.
func pollTask() (fanTask, bool) {
	if !shardWorkers.spinning.CompareAndSwap(false, true) {
		return fanTask{}, false
	}
	defer shardWorkers.spinning.Store(false)
	for t0 := time.Now(); time.Since(t0) < spinFor; runtime.Gosched() {
		select {
		case t := <-shardWorkers.hot:
			return t, true
		case t := <-shardWorkers.tasks:
			return t, true
		default:
		}
	}
	return fanTask{}, false
}

// run executes parts parts, offering all but the first to the workers, and
// returns when every part has finished, with the first error; a part's panic
// is re-raised here instead. A task no worker takes in time is harmless: the
// caller claims its part meanwhile, and join drops a task whose fan-out has
// closed.
func (f *fan) run(parts int) error {
	shardWorkers.once.Do(startShardWorkers)
	f.mu.Lock()
	f.epoch++
	epoch := f.epoch
	f.parts, f.open, f.err, f.panicked = parts, true, nil, nil
	f.next.Store(0)
	f.mu.Unlock()
	for k := 1; k < parts && f.offer(epoch, k == 1); k++ {
	}
	f.claim()
	f.finish()
	err, panicked := f.err, f.panicked
	f.rows, f.job, f.groups, f.err, f.panicked = nil, nil, nil, nil, nil
	if panicked != nil {
		panic(panicked)
	}
	return err
}

// finish closes the fan-out to workers and returns once none that joined is
// still running a part, polling up to spinFor before it parks on done.
func (f *fan) finish() {
	f.mu.Lock()
	f.open = false
	f.mu.Unlock()
	for t0 := time.Now(); f.active.Load() > 0; runtime.Gosched() {
		if time.Since(t0) > spinFor {
			<-f.done
		}
	}
}

// offer queues a task for the workers — the first of a fan-out in hot when a
// worker is polling — reporting false when the queue is full: every worker
// is busy and has a task waiting already. A first task left in hot by a
// poller that stopped just then waits for the next poller, which drops it;
// its part is claimed meanwhile.
func (f *fan) offer(epoch uint64, first bool) bool {
	t := fanTask{f, epoch}
	if first && shardWorkers.spinning.Load() {
		select {
		case shardWorkers.hot <- t:
			return true
		default:
		}
	}
	select {
	case shardWorkers.tasks <- t:
		return true
	default:
		return false
	}
}

// join is a worker taking parts of the fan-out offered in epoch, if it is
// still open and has parts left. The last worker out leaves a token in done
// for a caller that stopped polling; a token nobody needed only makes a
// later wait look at active once more.
func (f *fan) join(epoch uint64) {
	f.mu.Lock()
	if !f.open || f.epoch != epoch || f.next.Load() >= int64(f.parts) {
		f.mu.Unlock()
		return
	}
	f.active.Add(1)
	f.mu.Unlock()
	f.claim()
	if f.active.Add(-1) == 0 {
		select {
		case f.done <- struct{}{}:
		default:
		}
	}
}

// errPartPanicked stops a fan-out whose part panicked; run re-raises the
// panic itself.
var errPartPanicked = errors.New("weld: a fan-out part panicked")

// claim runs parts until none is left unclaimed. A failed part, or the run's
// context ending, records the first error and leaves the remaining parts
// unclaimed.
func (f *fan) claim() {
	for {
		k := int(f.next.Add(1) - 1)
		if k >= f.parts {
			return
		}
		err := f.r.ctx.Err()
		if err == nil {
			err = f.part(k)
		}
		if err != nil {
			f.mu.Lock()
			if f.err == nil {
				f.err = err
			}
			f.mu.Unlock()
			f.next.Store(int64(f.parts))
		}
	}
}

// part runs part k, recycling the shard's run on every path — a keeping
// fan-out's once its roots are joined (closeSubs). A panic is recovered — on
// a worker it would end the process, on the caller skip the join — and kept
// for run to re-raise.
func (f *fan) part(k int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			f.mu.Lock()
			if f.panicked == nil {
				f.panicked = v
			}
			f.mu.Unlock()
			err = errPartPanicked
		}
	}()
	if f.job == nil {
		return f.r.computeEach(f.groups[k])
	}
	lo, hi := parallel.Shard(len(f.rows), f.parts, k)
	sub := f.r.subRun(f.rows[lo:hi], f.contiguous)
	if f.keep == nil {
		defer sub.Close()
		return f.job.RunShard(sub, lo, hi)
	}
	f.subs[k] = sub
	if err := f.job.RunShard(sub, lo, hi); err != nil {
		return err
	}
	f.keepDense(sub, lo, hi)
	return nil
}

package weld

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"willump/internal/feature"
	"willump/internal/graph"
	"willump/internal/model"
	"willump/internal/ops"
	"willump/internal/value"
)

// rowsJob is a ShardJob copying each shard's assembled rows of the IFVs idx
// to rows and, when m is set, m's scores of them to scores, at the shard's
// positions. It records the runs it was handed, counts the one-row shards
// that assembled dense, and counts the shards whose layout broke the
// assembler's rule: dense iff every root it concatenated is dense.
type rowsJob struct {
	idx    []int
	m      model.Model
	rows   [][]float64
	scores []float64

	mu        sync.Mutex
	subs      []*BatchRun
	denseOne  atomic.Int64
	badLayout atomic.Int64
}

func (j *rowsJob) RunShard(sub *BatchRun, lo, hi int) error {
	j.mu.Lock()
	j.subs = append(j.subs, sub)
	j.mu.Unlock()
	x, err := sub.MatrixShared(j.idx)
	if err != nil {
		return err
	}
	_, dense := x.(*feature.Dense)
	if dense != rootsDense(sub, j.idx) {
		j.badLayout.Add(1)
	}
	if dense && hi-lo == 1 {
		j.denseOne.Add(1)
	}
	s := model.GetScratch()
	defer model.PutScratch(s)
	for k := lo; k < hi; k++ {
		j.rows[k] = feature.RowDense(x, k-lo, nil)
		if j.m != nil {
			j.scores[k] = model.ScoreRow(j.m, x, k-lo, s)
		}
	}
	return nil
}

// rootsDense reports whether every root of the IFVs idx on r is a scalar
// column or a dense matrix.
func rootsDense(r *BatchRun, idx []int) bool {
	for _, i := range idx {
		if v := r.vals[r.p.A.IFVs[i].Root]; v.Kind == value.Mat {
			if _, ok := v.Mat.(*feature.Dense); !ok {
				return false
			}
		}
	}
	return true
}

// newRowsJob sizes a rowsJob for n rows.
func newRowsJob(n int, idx []int, m model.Model) *rowsJob {
	return &rowsJob{idx: idx, m: m, rows: make([][]float64, n), scores: make([]float64, n)}
}

// shardRows runs a rowsJob over the given rows of r (nil: all of them) and
// returns what it assembled as one dense matrix.
func shardRows(r *BatchRun, rows, idx []int) (feature.Matrix, error) {
	n := r.Len()
	if rows != nil {
		n = len(rows)
	}
	j := newRowsJob(n, idx, nil)
	if err := r.Shards(rows, idx, j); err != nil {
		return nil, err
	}
	return feature.DenseFromRows(j.rows), nil
}

// sameBits reports whether a and b are equal to the bit, row by row.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// csrPipeline builds two CSR generators over one text input: word and
// character TF-IDF behind a shared clean.
func csrPipeline(t *testing.T) (*graph.Graph, map[string]value.Value) {
	t.Helper()
	b := graph.NewBuilder()
	clean := b.Add("clean", ops.NewClean(), b.Input("text"))
	word := b.Add("word_tfidf", ops.NewTFIDF(64, ops.NormL2),
		b.Add("ngram", ops.NewWordNGrams(1, 2), b.Add("tok", ops.NewTokenize(), clean)))
	char := b.Add("char_tfidf", ops.NewTFIDF(64, ops.NormL2), b.Add("chars", ops.NewCharNGrams(2, 3), clean))
	b.SetOutput(b.Add("concat", ops.NewConcat(), word, char))
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	_, in := textPipeline(t)
	return g, in
}

// TestShardsMatchSequential: a fan-out of 1, 2, 3 and rows+16 shards
// assembles and scores every row to the bit like the sequential path, over
// dense, CSR and mixed IFV roots, cold and through feature caches. Every
// shard, one row or many, assembles dense iff the roots it concatenates are:
// a plan's own roots cold, and with IFV 0's cache hits (dense rows) in its
// place once cached.
func TestShardsMatchSequential(t *testing.T) {
	tg, tin := textPipeline(t)
	lg, lin, _, _ := lookupPipeline(t)
	cg, cin := csrPipeline(t)
	for _, plan := range []struct {
		name string
		g    *graph.Graph
		in   map[string]value.Value
	}{{"dense", lg, lin}, {"csr", cg, cin}, {"mixed", tg, tin}} {
		p, x := fitProgram(t, plan.g, plan.in)
		n := x.Rows()
		y := make([]float64, n)
		for i := range y {
			y[i] = float64(i % 2)
		}
		m := model.NewLogistic(model.LinearConfig{Seed: 1})
		if err := m.Train(x, y); err != nil {
			t.Fatal(err)
		}
		seq, err := p.RunBatch(context.Background(), plan.in)
		if err != nil {
			t.Fatal(err)
		}
		wantScores := m.Predict(seq)
		_, seqCSR := seq.(*feature.CSR)
		cold, err := p.NewRun(context.Background(), plan.in)
		if err != nil {
			t.Fatal(err)
		}
		if err := cold.computeIFVs(p.AllIFVs()); err != nil {
			t.Fatal(err)
		}
		othersDense := rootsDense(cold, p.AllIFVs()[1:])
		coldDense := othersDense && rootsDense(cold, []int{0})
		cold.Close()
		for _, cached := range []bool{false, true} {
			wantDenseOne := int64(0)
			if coldDense || cached && othersDense {
				wantDenseOne = int64(n)
			}
			if cached {
				p.EnableFeatureCachingSpecs([]CacheSpec{{IFV: 0}})
			}
			for _, shards := range []int{1, 2, 3, n + 16} {
				ForceFanOut(t, p, shards)
				for pass := 0; pass < 2; pass++ { // cold, then warm caches
					r, err := p.NewRun(context.Background(), plan.in)
					if err != nil {
						t.Fatal(err)
					}
					j := newRowsJob(n, p.AllIFVs(), m)
					if err := r.Shards(nil, p.AllIFVs(), j); err != nil {
						t.Fatal(err)
					}
					r.Close()
					for row := 0; row < n; row++ {
						if !sameBits(j.rows[row], feature.RowDense(seq, row, nil)) {
							t.Fatalf("%s cached=%v shards=%d: row %d differs from the sequential batch", plan.name, cached, shards, row)
						}
					}
					if !sameBits(j.scores, wantScores) {
						t.Fatalf("%s cached=%v shards=%d: scores %v, sequential %v", plan.name, cached, shards, j.scores, wantScores)
					}
					if bad := j.badLayout.Load(); bad != 0 {
						t.Fatalf("%s cached=%v shards=%d: %d shards assembled a layout their roots do not call for", plan.name, cached, shards, bad)
					}
					if shards > n && j.denseOne.Load() != wantDenseOne {
						t.Fatalf("%s cached=%v pass %d: %d of %d one-row shards assembled dense, want %d", plan.name, cached, pass, j.denseOne.Load(), n, wantDenseOne)
					}
				}
			}
		}
		p.DisableFeatureCaching()
		if plan.name == "csr" && !seqCSR {
			t.Fatal("the CSR plan's sequential batch did not assemble CSR")
		}
	}
}

// TestShardsKeep: a keeping fan-out of 2, 3 and rows+16 shards leaves the
// IFVs its job computed done in its run — dense roots written in place, CSR
// roots stacked, cold and through a feature cache (whose rows are dense) —
// so a sub-run gathers them and resumes to the sequential rows bit for bit;
// a scalar root stays with the shards, and the sub-run computes it. A
// fan-out that does not keep leaves the run as it was, and at width 1 the
// job ran on the run itself either way.
func TestShardsKeep(t *testing.T) {
	tg, tin := textPipeline(t)
	lg, lin, _, _ := lookupPipeline(t)
	cg, cin := csrPipeline(t)
	pg, pin := passthroughPipeline(t)
	for _, plan := range []struct {
		name string
		g    *graph.Graph
		in   map[string]value.Value
		kept bool // whether the plan's uncached roots are dense or CSR
	}{{"dense", lg, lin, true}, {"csr", cg, cin, true}, {"mixed", tg, tin, true}, {"scalar", pg, pin, false}} {
		p, want := fitProgram(t, plan.g, plan.in)
		n := want.Rows()
		odd := []int{}
		for row := 1; row < n; row += 2 {
			odd = append(odd, row)
		}
		for _, cached := range []bool{false, true} {
			if cached {
				p.EnableFeatureCachingSpecs([]CacheSpec{{IFV: 0}})
			}
			for _, shards := range []int{1, 2, 3, n + 16} {
				ForceFanOut(t, p, shards)
				for _, keep := range []bool{false, true, true} { // a second keep reuses the run's buffers
					r, err := p.NewRun(context.Background(), plan.in)
					if err != nil {
						t.Fatal(err)
					}
					j := newRowsJob(n, p.AllIFVs(), nil)
					if keep {
						err = r.ShardsKeep(p.AllIFVs(), j)
					} else {
						err = r.Shards(nil, p.AllIFVs(), j)
					}
					if err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("%s cached=%v shards=%d keep=%v", plan.name, cached, shards, keep)
					for i := range p.A.IFVs {
						done := shards == 1 || keep && (plan.kept || cached && i == 0)
						if r.ifvDone[i] != done {
							t.Errorf("%s: IFV %d done in the run: %v, want %v", what, i, r.ifvDone[i], done)
						}
					}
					if r.fan.keep != nil || slices.ContainsFunc(r.fan.subs, func(s *BatchRun) bool { return s != nil }) {
						t.Errorf("%s: the fan-out still holds its parts", what)
					}
					sub := r.SubsetRun(odd)
					x, err := sub.MatrixShared(p.AllIFVs())
					if err != nil {
						t.Fatal(err)
					}
					for k, row := range odd {
						if !sameBits(feature.RowDense(x, k, nil), feature.RowDense(want, row, nil)) {
							t.Fatalf("%s: resumed row %d differs from the sequential batch", what, row)
						}
					}
					sub.Close()
					r.Close()
				}
			}
		}
		p.DisableFeatureCaching()
	}
}

// TestShardsLifecycle: a sharded batch joins its prefetch on the parent, so
// the remote IFV's keys are fetched once; a failing shard fails the batch,
// and afterwards every run a shard was handed has been closed and no
// prefetch handle is left neither joined nor cancelled.
func TestShardsLifecycle(t *testing.T) {
	rows := make(map[int64][]float64, 16)
	for k := int64(0); k < 16; k++ {
		rows[k] = []float64{float64(k), float64(2 * k)}
	}
	table := &countingAsyncTable{LocalTable: ops.NewLocalTable(2, rows)}
	b := graph.NewBuilder()
	b.SetOutput(b.Add("concat", ops.NewConcat(),
		b.Add("remote_features", ops.NewLookup("remote", table), b.Input("rid")),
		b.Add("checked", failOn{poison: -1}, b.Input("x"))))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	good := map[string]value.Value{
		"rid": value.NewInts([]int64{1, 2, 3, 4, 5, 6, 7}),
		"x":   value.NewFloats([]float64{10, 20, 30, 40, 50, 60, 70}),
	}
	p, want := fitProgram(t, g, good)
	ForceFanOut(t, p, 3)
	run := func(in map[string]value.Value) (*rowsJob, error) {
		r, err := p.NewRun(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		j := newRowsJob(r.Len(), p.AllIFVs(), nil)
		return j, r.Shards(nil, p.AllIFVs(), j)
	}

	j, err := run(good)
	if err != nil {
		t.Fatal(err)
	}
	matricesClose(t, feature.DenseFromRows(j.rows), want, 0)
	if s, w, c := table.started.Load(), table.waited.Load(), table.cancelled.Load(); s != 1 || w != 1 || c != 0 {
		t.Errorf("healthy sharded batch: %d fetches started, %d joined, %d cancelled; want 1, 1, 0", s, w, c)
	}
	if len(j.subs) != 3 {
		t.Errorf("healthy batch ran %d shards, want 3", len(j.subs))
	}

	bad := map[string]value.Value{"rid": good["rid"], "x": value.NewFloats([]float64{10, 20, 30, -1, 50, 60, 70})}
	j, err = run(bad)
	if err == nil {
		t.Fatal("poisoned shard did not fail the batch")
	}
	for _, sub := range j.subs {
		if sub.ctx != nil {
			t.Error("a shard's run was not closed after the batch failed")
		}
	}
	if s, w, c := table.started.Load(), table.waited.Load(), table.cancelled.Load(); s != w+c {
		t.Errorf("after a failed shard: %d fetches started but only %d joined + %d cancelled", s, w, c)
	}

	// Cached, the remote IFV no longer prefetches, and shards would each
	// fetch their own misses: the batch runs unsharded.
	remote := slices.IndexFunc(p.A.IFVs, func(ifv graph.IFV) bool { return p.G.Node(ifv.Root).Label == "remote_features" })
	p.EnableFeatureCachingSpecs([]CacheSpec{{IFV: remote}})
	if j, err = run(good); err != nil {
		t.Fatal(err)
	}
	if len(j.subs) != 1 {
		t.Errorf("cached remote batch ran %d shards, want 1", len(j.subs))
	}
}

// TestShardsConcurrentCallers: callers sharing the pool — and the stale
// tasks their fan-outs leave in its queue — each get their own batch's rows,
// point queries spreading their generators among them.
func TestShardsConcurrentCallers(t *testing.T) {
	g, in, _ := sharedCleanPipeline(t)
	p, want := fitProgram(t, g, in)
	ForceFanOut(t, p, 3)
	point := map[string]value.Value{"text": value.NewStrings(in["text"].Strings[1:2])}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				r, err := p.NewRun(context.Background(), in)
				if err != nil {
					t.Error(err)
					return
				}
				m, err := shardRows(r, nil, p.AllIFVs())
				r.Close()
				if err != nil || !feature.Equal(m, want) {
					t.Errorf("caller %d rep %d: sharded batch differs (%v)", c, rep, err)
					return
				}
				pr, err := p.NewRun(context.Background(), point)
				if err == nil {
					if err = pr.ComputeIFVsParallel(p.AllIFVs()); err == nil {
						m, err = pr.PointMatrix(p.AllIFVs())
					}
				}
				if err != nil || !sameBits(feature.RowDense(m, 0, nil), feature.RowDense(want, 1, nil)) {
					t.Errorf("caller %d rep %d: parallel point differs (%v)", c, rep, err)
					pr.Close()
					return
				}
				pr.Close()
			}
		}(c)
	}
	wg.Wait()
}

// holdWorkers parks every pool worker in a part of a fan-out of its own
// that blocks until the returned release is called, and returns once all of
// them are held.
func holdWorkers(t *testing.T, p *Program, in map[string]value.Value) (release func()) {
	t.Helper()
	shardWorkers.once.Do(startShardWorkers)
	workers := runtime.GOMAXPROCS(0) - 1
	r, err := p.NewRun(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	held, gate := make(chan struct{}), make(chan struct{})
	f := &r.fan
	f.rows, f.job = make([]int, workers), gateJob{held, gate}
	f.mu.Lock()
	f.epoch++
	epoch := f.epoch
	f.parts, f.open = workers, true
	f.next.Store(0)
	f.mu.Unlock()
	for k := 0; k < workers; k++ {
		shardWorkers.tasks <- fanTask{f, epoch} // blocks until a worker takes it
	}
	for k := 0; k < workers; k++ {
		<-held
	}
	return func() {
		close(gate)
		f.finish()
		f.rows, f.job = nil, nil
		r.Close()
	}
}

// gateJob is a shard that reports itself held and blocks until gate closes.
type gateJob struct{ held, gate chan struct{} }

func (g gateJob) RunShard(*BatchRun, int, int) error {
	g.held <- struct{}{}
	<-g.gate
	return nil
}

// TestShardsNoWait: with every pool worker held, a sharded batch — both
// cascade stages per shard — completes on its caller alone before the
// workers are released, and equals the sequential result.
func TestShardsNoWait(t *testing.T) {
	g, in, _ := sharedCleanPipeline(t)
	p, want := fitProgram(t, g, in)
	n := want.Rows()
	ForceFanOut(t, p, n)
	release := holdWorkers(t, p, in)
	defer release()
	done := make(chan error, 1)
	j := newRowsJob(n, p.AllIFVs(), nil)
	go func() {
		r, err := p.NewRun(context.Background(), in)
		if err != nil {
			done <- err
			return
		}
		defer r.Close()
		done <- r.Shards(nil, p.AllIFVs(), cascadeShaped{j})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a sharded batch waited for a held worker")
	}
	matricesClose(t, feature.DenseFromRows(j.rows), want, 0)
}

// TestShardsLeaveNoStaleHotTask: a fan-out whose first task went to hot for
// a poller that stopped just then — spinning is set here with no poller, so
// nobody reads hot — leaves no task there when it returns, so its run, which
// such a task would pin through the fan, can be collected once closed.
func TestShardsLeaveNoStaleHotTask(t *testing.T) {
	g, in := passthroughPipeline(t)
	p, _ := fitProgram(t, g, in)
	ForceFanOut(t, p, 2)
	shardWorkers.once.Do(startShardWorkers)
	for t0 := time.Now(); !shardWorkers.spinning.CompareAndSwap(false, true); runtime.Gosched() {
		if time.Since(t0) > 10*time.Second {
			t.Fatal("a pool worker kept polling for 10 s")
		}
	}
	defer shardWorkers.spinning.Store(false)

	r, err := p.NewRun(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Shards(nil, nil, spinJob(0)); err != nil {
		t.Fatal(err)
	}
	if n := len(shardWorkers.hot); n != 0 {
		t.Fatalf("%d task(s) left in hot after the fan-out returned", n)
	}
	run := weak.Make(r)
	r.Close()
	r = nil
	// The program's run pool lets go of a recycled run within two cycles.
	for range 5 {
		runtime.GC()
	}
	if run.Value() != nil {
		t.Fatal("a closed run is still reachable after five GCs")
	}
}

// meetJob runs rowsJob's shards, except that when meet is set its first
// shard waits for a second one to start, so that at least one of the two
// runs on a pool worker; with panics set, every shard then panics with
// errShardPanic instead.
type meetJob struct {
	*rowsJob
	meet    chan struct{}
	panics  bool
	entered atomic.Int32
}

var errShardPanic = errors.New("shard panic")

func (j *meetJob) RunShard(sub *BatchRun, lo, hi int) error {
	if j.meet != nil {
		switch j.entered.Add(1) {
		case 1:
			<-j.meet
		case 2:
			close(j.meet)
		}
	}
	if !j.panics {
		return j.rowsJob.RunShard(sub, lo, hi)
	}
	j.mu.Lock()
	j.subs = append(j.subs, sub)
	j.mu.Unlock()
	panic(errShardPanic)
}

// TestShardsPanic: a shard that panics — on a pool worker, or on the caller
// while every worker is held — neither ends the process nor skips the join:
// the batch re-raises the panic on its caller once every shard has finished
// and been closed — a keeping batch's parts too — and the recycled run
// keeps nothing of it. Afterwards the workers still take shards, and the
// next batch and the next parallel point are correct.
func TestShardsPanic(t *testing.T) {
	g, in, _ := sharedCleanPipeline(t)
	p, want := fitProgram(t, g, in)
	n := want.Rows()
	shardWorkers.once.Do(startShardWorkers)
	if cap(shardWorkers.tasks) == 0 {
		t.Skip("GOMAXPROCS is 1: the pool has no workers")
	}
	ForceFanOut(t, p, n)
	point := map[string]value.Value{"text": value.NewStrings(in["text"].Strings[1:2])}
	// batch runs j over the shards of a fresh run, keeping their roots when
	// keep is set, closed on the way out as the predict paths do, and returns
	// the run and what the batch returned or panicked with.
	keep := false
	batch := func(j ShardJob) (r *BatchRun, err error, panicked any) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer func() { panicked = recover() }()
			if r, err = p.NewRun(context.Background(), in); err != nil {
				return
			}
			defer r.Close()
			if keep {
				err = r.ShardsKeep(p.AllIFVs(), j)
			} else {
				err = r.Shards(nil, p.AllIFVs(), j)
			}
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("a sharded batch never returned")
		}
		return r, err, panicked
	}
	// A keeping batch runs with the workers held: its parts' runs stay open
	// past the shards, so the caller panicking in every one of them is the
	// case to close.
	for _, c := range []struct{ held, keep bool }{{false, false}, {true, false}, {true, true}} {
		held, name := c.held, fmt.Sprintf("workers held=%v keep=%v", c.held, c.keep)
		keep = c.keep
		j := &meetJob{rowsJob: newRowsJob(n, p.AllIFVs(), nil), panics: true}
		var r *BatchRun
		var err error
		var v any
		if held {
			release := holdWorkers(t, p, in)
			r, err, v = batch(j)
			release()
		} else {
			j.meet = make(chan struct{})
			r, err, v = batch(j)
		}
		if v != any(errShardPanic) {
			t.Fatalf("%s: the batch returned %v and panicked with %v, want the shard's panic", name, err, v)
		}
		for _, sub := range j.subs {
			if sub.ctx != nil {
				t.Errorf("%s: a panicked shard's run was not closed", name)
			}
		}
		if f := &r.fan; f.job != nil || f.rows != nil || f.groups != nil || f.err != nil || f.panicked != nil || f.active.Load() != 0 ||
			f.keep != nil || slices.ContainsFunc(f.subs, func(s *BatchRun) bool { return s != nil }) {
			t.Errorf("%s: the recycled run's fan-out still holds the panicked batch", name)
		}

		ok := &meetJob{rowsJob: newRowsJob(n, p.AllIFVs(), nil), meet: make(chan struct{})}
		if _, err, v := batch(ok); err != nil || v != nil {
			t.Fatalf("%s: the next batch returned %v and panicked with %v", name, err, v)
		}
		matricesClose(t, feature.DenseFromRows(ok.rows), want, 0)
		pr, err := p.NewRun(context.Background(), point)
		if err != nil {
			t.Fatal(err)
		}
		if err = pr.ComputeIFVsParallel(p.AllIFVs()); err == nil {
			var m feature.Matrix
			if m, err = pr.PointMatrix(p.AllIFVs()); err == nil && !sameBits(feature.RowDense(m, 0, nil), feature.RowDense(want, 1, nil)) {
				t.Errorf("%s: the next parallel point differs from the batch", name)
			}
		}
		pr.Close()
		if err != nil {
			t.Fatalf("%s: the next parallel point: %v", name, err)
		}
	}
}

// fanWatchTable is a context-aware lookup table — a synchronous remote store
// — that records whether run's fan-out was still open when it was asked.
type fanWatchTable struct {
	*ops.LocalTable
	run          *BatchRun
	asked, inFan atomic.Int64
}

func (t *fanWatchTable) LookupBatchCtx(_ context.Context, keys []int64) ([][]float64, error) {
	t.asked.Add(1)
	t.run.fan.mu.Lock()
	if t.run.fan.open {
		t.inFan.Add(1)
	}
	t.run.fan.mu.Unlock()
	return t.LookupBatch(keys)
}

// TestParallelPointKeepsStoreOffPool: a point whose generators are spread
// over the fan-out computes a generator that looks up a remote table on its
// caller, after the fan-out, so no pool worker waits out a round trip; its
// features are the batch's.
func TestParallelPointKeepsStoreOffPool(t *testing.T) {
	table := &fanWatchTable{LocalTable: ops.NewLocalTable(2, map[int64][]float64{
		0: {0.5, 1.5}, 1: {2.5, 3.5},
	})}
	b := graph.NewBuilder()
	clean := b.Add("clean", ops.NewClean(), b.Input("text"))
	word := b.Add("word_tfidf", ops.NewTFIDF(64, ops.NormL2), b.Add("tok", ops.NewTokenize(), clean))
	char := b.Add("char_tfidf", ops.NewTFIDF(64, ops.NormL2), b.Add("chars", ops.NewCharNGrams(2, 3), clean))
	remote := b.Add("remote_features", ops.NewLookup("remote", table), b.Input("id"))
	b.SetOutput(b.Add("concat", ops.NewConcat(), word, char, remote))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, text := textPipeline(t)
	docs := text["text"].Strings
	ids := make([]int64, len(docs))
	for i := range ids {
		ids[i] = int64(i % 2)
	}
	in := map[string]value.Value{"text": text["text"], "id": value.NewInts(ids)}
	p, want := fitProgram(t, g, in)
	ForceFanOut(t, p, 3)
	for row := range docs {
		r, err := p.NewRun(context.Background(), map[string]value.Value{
			"text": value.NewStrings(docs[row : row+1]),
			"id":   value.NewInts(ids[row : row+1]),
		})
		if err != nil {
			t.Fatal(err)
		}
		table.run = r
		epoch := r.fan.epoch
		err = r.ComputeIFVsParallel(p.AllIFVs())
		var m feature.Matrix
		if err == nil {
			m, err = r.PointMatrix(p.AllIFVs())
		}
		if err != nil {
			t.Fatal(err)
		}
		if r.fan.epoch != epoch+1 {
			t.Fatalf("row %d: the point's generators did not fan out", row)
		}
		if !sameBits(feature.RowDense(m, 0, nil), feature.RowDense(want, row, nil)) {
			t.Fatalf("row %d: the parallel point differs from the batch", row)
		}
		r.Close()
	}
	if table.asked.Load() != int64(len(docs)) || table.inFan.Load() != 0 {
		t.Errorf("the remote table was asked %d times, %d of them inside the fan-out; want %d, 0", table.asked.Load(), table.inFan.Load(), len(docs))
	}
}

// TestParallelPointZeroAllocs: once warm, spreading a point's generators over
// the fan-out — the LPT assignment, the offers, the join — allocates nothing.
func TestParallelPointZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g, in, _, _ := lookupPipeline(t)
	p, _ := fitProgram(t, g, in)
	ForceFanOut(t, p, 2)
	point := map[string]value.Value{"user": value.NewInts([]int64{1}), "song": value.NewInts([]int64{0})}
	fanned := 0
	query := func() {
		r, err := p.NewRun(context.Background(), point)
		if err != nil {
			t.Fatal(err)
		}
		epoch := r.fan.epoch
		if err := r.ComputeIFVsParallel(p.AllIFVs()); err != nil {
			t.Fatal(err)
		}
		if _, err := r.PointMatrix(p.AllIFVs()); err != nil {
			t.Fatal(err)
		}
		fanned += int(r.fan.epoch - epoch)
		r.Close()
	}
	for range 10 {
		query()
	}
	if allocs := testing.AllocsPerRun(100, query); allocs != 0 {
		t.Errorf("a warm parallel point allocates %.1f objects, want 0", allocs)
	}
	if fanned != 111 {
		t.Errorf("%d of 111 points fanned out", fanned)
	}
}

// cascadeShaped runs a cascade's two stages on each shard: the last IFV
// alone, then every IFV on the shard's odd rows and the rest on the shard
// itself.
type cascadeShaped struct{ *rowsJob }

func (c cascadeShaped) RunShard(sub *BatchRun, lo, hi int) error {
	last := []int{len(sub.p.A.IFVs) - 1}
	if _, err := sub.MatrixShared(last); err != nil {
		return err
	}
	hard := sub.RowScratch(hi - lo)[:0]
	for k := 1; k < hi-lo; k += 2 {
		hard = append(hard, k)
	}
	hs := sub.SubsetRun(hard)
	defer hs.Close()
	x, err := hs.MatrixShared(c.idx)
	if err != nil {
		return err
	}
	for k, row := range hard {
		c.rows[lo+row] = feature.RowDense(x, k, nil)
	}
	if x, err = sub.MatrixShared(c.idx); err != nil {
		return err
	}
	for k := 0; k < hi-lo; k += 2 {
		c.rows[lo+k] = feature.RowDense(x, k, nil)
	}
	return nil
}

// TestShardWidth pins the width rule: Workers caps it (0 meaning
// GOMAXPROCS), so does the row count, and each shard must carry
// minShardWork of profiled work, counted over the needed IFVs the run does
// not hold yet.
func TestShardWidth(t *testing.T) {
	g, in := textPipeline(t)
	p, _ := fitProgram(t, g, in)
	p.ifvCost = []float64{2e-6, 1e-6} // seconds per row
	r, err := p.NewRun(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// rowsFor(k) rows of both IFVs carry k and a half shards' worth of work.
	rowsFor := func(k float64) int { return int((k + 0.5) * minShardWork / 3e-6) }
	big := rowsFor(1 << 16)
	for _, c := range []struct {
		workers, parts, rows int
		need                 []int
		want                 int
	}{
		{1, big, big, []int{0, 1}, 1},
		{0, big, big, []int{0, 1}, runtime.GOMAXPROCS(0)},
		{3, big, big, []int{0, 1}, 3},
		{8, rowsFor(5), rowsFor(5), []int{0, 1}, 5},
		{8, rowsFor(6), rowsFor(6), []int{1}, 2}, // IFV 1 alone is a third of the work
		{8, rowsFor(1), rowsFor(1), []int{0, 1}, 1},
		{8, 4, 1, []int{0, 1}, 1}, // a point's four generators, 3 µs in all
		{8, big, big, nil, 1},     // nothing to compute
		{8, 0, 0, []int{0, 1}, 1}, // no rows at all
	} {
		p.Workers = c.workers
		if got := r.width(c.parts, c.rows, c.need); got != c.want {
			t.Errorf("width(workers=%d, parts=%d, rows=%d, need=%v) = %d, want %d", c.workers, c.parts, c.rows, c.need, got, c.want)
		}
	}
	r.ifvDone[0] = true
	p.Workers = 8
	if got := r.width(rowsFor(6), rowsFor(6), []int{0, 1}); got != 2 {
		t.Errorf("with IFV 0 held, width = %d, want 2 (IFV 1's cost alone)", got)
	}
}

// BenchmarkFanOut is the hand-off cost minShardWork is derived from: a job
// spinning 20 µs per row over two rows, sequential and as two shards (the
// second offered to a parked worker). Two shards' time over 20 µs is what
// the hand-off and the join cost.
func BenchmarkFanOut(b *testing.B) {
	gb := graph.NewBuilder()
	gb.SetOutput(gb.Add("concat", ops.NewConcat(), gb.Add("px", passthrough{}, gb.Input("x"))))
	g, err := gb.Build()
	if err != nil {
		b.Fatal(err)
	}
	p, err := Compile(g)
	if err != nil {
		b.Fatal(err)
	}
	in := map[string]value.Value{"x": value.NewFloats([]float64{0.5, -0.5})}
	if _, err := p.Fit(context.Background(), in); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(map[int]string{1: "sequential", 2: "two-shards"}[workers], func(b *testing.B) {
			ForceFanOut(b, p, workers)
			r, err := p.NewRun(context.Background(), in)
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			b.ReportAllocs()
			for b.Loop() {
				if err := r.Shards(nil, nil, spinJob(20*time.Microsecond)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// spinJob keeps its thread busy for the given time per row.
type spinJob time.Duration

func (d spinJob) RunShard(_ *BatchRun, lo, hi int) error {
	for t0 := time.Now(); time.Since(t0) < time.Duration(hi-lo)*time.Duration(d); {
	}
	return nil
}

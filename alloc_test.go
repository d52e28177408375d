package willump_test

import (
	"context"
	"math"
	"runtime"
	"testing"

	"willump/internal/core"
	"willump/internal/fixture"
	"willump/internal/model"
	"willump/internal/value"
	"willump/internal/weld"
)

// allocFixture builds one optimized pipeline for the allocation-regression
// tests (small data: the assertions are about steady-state allocation, not
// model quality).
func allocFixture(t *testing.T, opts core.Options) (*core.Optimized, *fixture.Classification) {
	t.Helper()
	fx, err := fixture.NewClassification(3, 600, 200, 200, 0.7, 10)
	if err != nil {
		t.Fatal(err)
	}
	p := &core.Pipeline{Graph: fx.Prog.G, Model: fx.Model}
	train := core.Dataset{Inputs: fx.Train.Inputs, Y: fx.Train.Y}
	valid := core.Dataset{Inputs: fx.Valid.Inputs, Y: fx.Valid.Y}
	o, _, err := core.Optimize(context.Background(), p, train, valid, opts)
	if err != nil {
		t.Fatal(err)
	}
	return o, fx
}

// skipIfRace skips allocation-count assertions under the race detector,
// whose instrumentation allocates shadow state of its own.
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}

func onePoint() map[string]value.Value {
	return map[string]value.Value{
		"cheap_id": value.NewInts([]int64{41}),
		"heavy_id": value.NewInts([]int64{13}),
	}
}

// TestPredictPointZeroAllocs is the build-failing regression guard for the
// pooled executor: a warm compiled point query must not touch the heap.
func TestPredictPointZeroAllocs(t *testing.T) {
	skipIfRace(t)
	o, _ := allocFixture(t, core.Options{})
	ctx := context.Background()
	in := onePoint()
	// Warm the program's state pool and every ApplyInto scratch buffer.
	for i := 0; i < 10; i++ {
		if _, err := o.PredictPoint(ctx, in); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := o.PredictPoint(ctx, in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm compiled PredictPoint allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPredictPointTracedUnsampledZeroAllocs asserts the observability
// guarantee: with tracing enabled, an unsampled request pays one atomic add
// for the sampling decision plus a histogram observation and otherwise runs
// the exact untraced code path — the warm compiled point query stays
// allocation-free. A huge sampling interval makes every test request the
// unsampled case.
func TestPredictPointTracedUnsampledZeroAllocs(t *testing.T) {
	skipIfRace(t)
	o, _ := allocFixture(t, core.Options{})
	o.EnableTracing(1<<30, 8)
	ctx := context.Background()
	in := onePoint()
	for i := 0; i < 10; i++ {
		if _, err := o.PredictPoint(ctx, in); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := o.PredictPoint(ctx, in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm traced-unsampled PredictPoint allocates %.1f objects/op, want 0", allocs)
	}
	sampled, tailed := o.Tracer().Counts()
	if sampled != 0 || tailed != 0 {
		t.Fatalf("sampled=%d tailed=%d, want 0/0 (warm µs-scale queries, huge interval)", sampled, tailed)
	}
	if hs := o.Tracer().TotalHist(); hs.Count == 0 {
		t.Fatal("total latency histogram saw no requests")
	}
}

// TestPredictPointCascadeTracedUnsampledZeroAllocs extends the guard to the
// cascade point path.
func TestPredictPointCascadeTracedUnsampledZeroAllocs(t *testing.T) {
	skipIfRace(t)
	o, _ := allocFixture(t, core.Options{Cascades: true})
	if o.Cascade == nil {
		t.Fatal("fixture did not build a cascade")
	}
	o.EnableTracing(1<<30, 8)
	ctx := context.Background()
	in := onePoint()
	for i := 0; i < 10; i++ {
		if _, err := o.PredictPoint(ctx, in); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := o.PredictPoint(ctx, in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm traced-unsampled cascade PredictPoint allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPredictPointCascadeZeroAllocs asserts the cascade point path — small
// model on the efficient IFVs, full-model resume on unconfident queries —
// is also allocation-free once warm, for both routing outcomes.
func TestPredictPointCascadeZeroAllocs(t *testing.T) {
	skipIfRace(t)
	o, fx := allocFixture(t, core.Options{Cascades: true})
	if o.Cascade == nil {
		t.Fatal("fixture did not build a cascade")
	}
	ctx := context.Background()
	in := onePoint()
	for i := 0; i < 10; i++ {
		if _, err := o.PredictPoint(ctx, in); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := o.PredictPoint(ctx, in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm cascade PredictPoint allocates %.1f objects/op, want 0", allocs)
	}
	// Force the full-model resume with an impossible threshold: still zero.
	hard := core.WithCascadeThreshold(1.5)
	for i := 0; i < 10; i++ {
		if _, err := o.PredictPoint(ctx, in, hard); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(200, func() {
		if _, err := o.PredictPoint(ctx, in, hard); err != nil {
			t.Fatal(err)
		}
	})
	// The threshold override itself materializes one options struct (it is
	// a non-default request); the execution underneath must stay clean.
	if allocs > 2 {
		t.Fatalf("warm full-resume PredictPoint allocates %.1f objects/op, want <= 2", allocs)
	}
	_ = fx
}

// TestPredictPointCachedZeroAllocs extends the zero-alloc guard to the
// feature-cached point path: once the key is cached, a warm hit — key
// encoding, inline hashing, sharded lookup, and the copy into the pooled
// feature vector — must not touch the heap.
func TestPredictPointCachedZeroAllocs(t *testing.T) {
	skipIfRace(t)
	o, _ := allocFixture(t, core.Options{FeatureCache: true, FeatureCacheBudget: 1024})
	ctx := context.Background()
	in := onePoint()
	// Warm the state pool and populate the caches (first calls miss).
	for i := 0; i < 10; i++ {
		if _, err := o.PredictPoint(ctx, in); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := o.PredictPoint(ctx, in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm cache-hit PredictPoint allocates %.1f objects/op, want 0", allocs)
	}
	if st, ok := o.FeatureCacheStats(); !ok || st.Hits == 0 {
		t.Fatalf("cache stats = %+v, ok=%v; want hits recorded", st, ok)
	}
}

// TestPredictBatchCachedAllocBound: an all-hit cached batch must stay at the
// compiled batch budget (the result slice), since hit rows copy from the
// cache into pooled buffers without allocating.
func TestPredictBatchCachedAllocBound(t *testing.T) {
	skipIfRace(t)
	o, fx := allocFixture(t, core.Options{FeatureCache: true, FeatureCacheCapacity: 0})
	ctx := context.Background()
	for i := 0; i < 5; i++ { // first run misses and fills; the rest all hit
		if _, err := o.PredictBatch(ctx, fx.Test.Inputs); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := o.PredictBatch(ctx, fx.Test.Inputs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("warm all-hit cached PredictBatch allocates %.1f objects/op, want <= 2", allocs)
	}
}

// TestPredictBatchAllocBound guards the pooled batch path: the compiled
// batch predict may allocate only its result slice, and the cascade batch
// path only results plus routing state — far below the pre-pooling
// dozens-of-allocations regime.
func TestPredictBatchAllocBound(t *testing.T) {
	skipIfRace(t)
	ctx := context.Background()

	o, fx := allocFixture(t, core.Options{})
	for i := 0; i < 5; i++ {
		if _, err := o.PredictBatch(ctx, fx.Test.Inputs); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := o.PredictBatch(ctx, fx.Test.Inputs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("warm compiled PredictBatch allocates %.1f objects/op, want <= 2", allocs)
	}

	oc, fxc := allocFixture(t, core.Options{Cascades: true})
	for i := 0; i < 5; i++ {
		if _, err := oc.PredictBatch(ctx, fxc.Test.Inputs); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(50, func() {
		if _, err := oc.PredictBatch(ctx, fxc.Test.Inputs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("warm cascade PredictBatch allocates %.1f objects/op, want <= 8", allocs)
	}
}

// TestTextPipelineAllocBounds pins the steady-state allocations of the
// paper's own text pipelines (Toxic cascade, Product top-K), whose operators
// run as allocation-free kernels over reused scratch.
func TestTextPipelineAllocBounds(t *testing.T) {
	skipIfRace(t)
	ctx := context.Background()

	// Two workers, on any machine: the ledgers below count per shard.
	o, bm := textFixture(t, "toxic", core.Options{Cascades: true, Workers: 2})
	if o.Cascade == nil {
		t.Fatal("toxic: no cascade was built")
	}
	// A row the small model answers computes the efficient IFV alone: the
	// shared clean never runs for it, and nothing touches the heap.
	small, err := o.Approx.SmallOnlyPredict(ctx, bm.Test.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	easy := -1
	for i, p := range small {
		if model.Confidence(p) > o.Cascade.Threshold {
			easy = i
			break
		}
	}
	if easy < 0 {
		t.Fatal("toxic: the small model answers no test row")
	}
	point := bm.Test.Row(easy).Inputs
	if allocs := leastAllocs(t, 200, func() error { _, err := o.PredictPoint(ctx, point); return err }); allocs != 0 {
		t.Errorf("warm small-model toxic PredictPoint allocates %.1f objects/op, want 0", allocs)
	}

	// A 1024-row cascaded batch on two row shards (7010 allocations before
	// the kernels, 5 on one thread before the shards, 3 while each shard's
	// Clean step converted its byte buffer to a string): measured 1, the
	// result. Scores are written into the result in place, the hard-row
	// index and the hard rows' copy of the caller's text column live in
	// pooled run state.
	batch := firstRows(bm.Test, 1024)
	if allocs := leastAllocs(t, 20, func() error { _, err := o.PredictBatch(ctx, batch); return err }); allocs > 1 {
		t.Errorf("warm 1024-row toxic PredictBatch allocates %.1f objects/op, want <= 1", allocs)
	}

	// TopK(20) over 2000 candidates, both passes on two row shards (4411
	// before the kernels, 7 before the shards, 4 while the kept candidates
	// were a fresh slice and each re-rank shard's Clean step allocated a
	// string): measured 1, the top 20 mapped to their rows. The filter and
	// re-rank scores, the shards' picks and the merged candidates are pooled.
	op, bp := textFixture(t, "product", core.Options{TopK: true, Workers: 2})
	cands := firstRows(bp.Test, 2000)
	if allocs := leastAllocs(t, 20, func() error { _, err := op.TopK(ctx, cands, 20); return err }); allocs > 1 {
		t.Errorf("warm TopK(20) over 2000 product rows allocates %.1f objects/op, want <= 1", allocs)
	}
}

// TestShardedCascadeAllocsAtMostSequential: fanning a warm cascaded batch
// out over row shards allocates nothing of its own — no goroutine, closure,
// WaitGroup or slice per call — so over operators that allocate nothing
// per call it costs exactly the allocations of the same batch at Workers: 1.
func TestShardedCascadeAllocsAtMostSequential(t *testing.T) {
	skipIfRace(t)
	ctx := context.Background()
	o, fx := allocFixture(t, core.Options{Cascades: true})
	hard := core.WithCascadeThreshold(0.9) // both routes on the fixture rows
	allocs := make(map[int]float64)
	for _, workers := range []int{1, 2, 3} {
		weld.ForceFanOut(t, o.Prog, workers)
		allocs[workers] = leastAllocs(t, 50, func() error {
			_, err := o.PredictBatch(ctx, fx.Test.Inputs, hard)
			return err
		})
	}
	for _, workers := range []int{2, 3} {
		if allocs[workers] > allocs[1] {
			t.Errorf("warm cascaded batch on %d shards allocates %.1f objects/op, at Workers: 1 %.1f", workers, allocs[workers], allocs[1])
		}
	}
}

// leastAllocs warms f up and returns the least of three AllocsPerRun counts
// of it: AllocsPerRun counts the whole process, and a goroutine an earlier
// test left behind can allocate during one of them.
func leastAllocs(t *testing.T, runs int, f func() error) float64 {
	t.Helper()
	runtime.GC() // no cycle from set-up empties the pools mid-count
	for i := 0; i < 5; i++ {
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}
	least := math.Inf(1)
	for range 3 {
		least = min(least, testing.AllocsPerRun(runs, func() {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		}))
	}
	return least
}

// TestShardedBatchMatchesSequential pins the data-parallel compiled batch
// path bit-identically to the sequential one across worker counts,
// including the default and more workers than rows.
func TestShardedBatchMatchesSequential(t *testing.T) {
	ctx := context.Background()
	o, fx := allocFixture(t, core.Options{Workers: 1})
	want, err := o.PredictBatch(ctx, fx.Test.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	rows := len(want)
	for _, workers := range []int{0, 2, runtime.NumCPU(), rows + 16} {
		ow, _ := allocFixture(t, core.Options{Workers: workers})
		weld.ForceFanOut(t, ow.Prog, workers)
		got, err := ow.PredictBatch(ctx, fx.Test.Inputs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d preds, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
				t.Fatalf("workers=%d: pred[%d] = %v, want bit-identical %v", workers, i, got[i], want[i])
			}
		}
	}
}

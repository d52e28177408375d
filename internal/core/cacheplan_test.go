package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"willump/internal/artifact"
	"willump/internal/cache"
	"willump/internal/fixture"
	"willump/internal/graph"
	"willump/internal/model"
	"willump/internal/ops"
	"willump/internal/value"
	"willump/internal/weld"
)

// cachePlanFixture builds the asymmetric pipeline the planner exists for:
//
//   - a cheap lookup over a huge key space (training keys nearly unique, so
//     caching it is almost worthless);
//   - an expensive lookup (HeavyOp) over a small key space with skewed
//     (Zipfian) training keys, so a cache absorbs most of its cost.
//
// It returns the pipeline, train/valid datasets, and a Zipfian serving
// workload drawn from the same distributions.
func cachePlanFixture(t *testing.T, nTrain, nServe int) (*Pipeline, Dataset, Dataset, []map[string]value.Value) {
	t.Helper()
	const (
		cheapKeys = 100000
		heavyKeys = 2048
	)
	rng := rand.New(rand.NewSource(11))
	cheapRows := make(map[int64][]float64, cheapKeys)
	for k := int64(0); k < cheapKeys; k++ {
		cheapRows[k] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	heavyRows := make(map[int64][]float64, heavyKeys)
	for k := int64(0); k < heavyKeys; k++ {
		heavyRows[k] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	cheapTable := ops.NewLocalTable(2, cheapRows)
	heavyTable := ops.NewLocalTable(2, heavyRows)

	b := graph.NewBuilder()
	cheapID := b.Input("cheap_id")
	heavyID := b.Input("heavy_id")
	cf := b.Add("cheap_features", ops.NewLookup("cheap", cheapTable), cheapID)
	hf := b.Add("heavy_features", fixture.NewHeavyOp("heavy", heavyTable, 200), heavyID)
	cat := b.Add("concat", ops.NewConcat(), cf, hf)
	b.SetOutput(cat)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	zipf := rand.NewZipf(rng, 1.1, 1, heavyKeys-1)
	gen := func(n int) Dataset {
		cheap := make([]int64, n)
		heavy := make([]int64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			cheap[i] = rng.Int63n(cheapKeys) // near-unique
			heavy[i] = int64(zipf.Uint64())  // skewed
			hvec := heavyRows[heavy[i]]
			if hvec[0] > 0 {
				y[i] = 1
			}
		}
		return Dataset{
			Inputs: map[string]value.Value{
				"cheap_id": value.NewInts(cheap),
				"heavy_id": value.NewInts(heavy),
			},
			Y: y,
		}
	}
	train := gen(nTrain)
	valid := gen(nTrain / 4)
	serve := make([]map[string]value.Value, nServe)
	for i := range serve {
		serve[i] = map[string]value.Value{
			"cheap_id": value.NewInts([]int64{rng.Int63n(cheapKeys)}),
			"heavy_id": value.NewInts([]int64{int64(zipf.Uint64())}),
		}
	}
	p := &Pipeline{
		Graph: g,
		Model: model.NewGBDT(model.GBDTConfig{Task: model.Classification, Trees: 10, MaxDepth: 3, Seed: 11}),
	}
	return p, train, valid, serve
}

// TestCachePlanBudgetSplit checks the planner's decisions on the asymmetric
// fixture: the heavy, high-reuse IFV gets (nearly) the whole budget and the
// cheap, no-reuse IFV gets (nearly) none.
func TestCachePlanBudgetSplit(t *testing.T) {
	p, train, valid, _ := cachePlanFixture(t, 2000, 0)
	const budget = 512
	o, rep, err := Optimize(context.Background(), p, train, valid,
		Options{FeatureCache: true, FeatureCacheBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CachePlan) != 2 {
		t.Fatalf("CachePlan has %d entries, want 2: %+v", len(rep.CachePlan), rep.CachePlan)
	}
	var cheap, heavy IFVCacheStat
	for _, st := range rep.CachePlan {
		// IFV order follows leaf order: cheap_features first.
		if st.IFV == 0 {
			cheap = st
		} else {
			heavy = st
		}
	}
	if heavy.EstimatedHitRate < 0.3 {
		t.Errorf("heavy (Zipfian) estimated hit rate = %.3f, want substantial", heavy.EstimatedHitRate)
	}
	if cheap.EstimatedHitRate > 0.15 {
		t.Errorf("cheap (near-unique) estimated hit rate = %.3f, want near zero", cheap.EstimatedHitRate)
	}
	if heavy.Cost <= cheap.Cost {
		t.Errorf("profiled heavy cost %.3g not above cheap cost %.3g", heavy.Cost, cheap.Cost)
	}
	if !heavy.Cached {
		t.Fatal("heavy IFV not cached")
	}
	if heavy.Capacity < budget/2 {
		t.Errorf("heavy IFV got %d of %d entries, want the dominant share", heavy.Capacity, budget)
	}
	if cheap.Cached && cheap.Capacity > budget/8 {
		t.Errorf("cheap IFV got %d entries, want a trivial share", cheap.Capacity)
	}
	specs := o.Prog.CacheSpecs()
	if len(specs) == 0 {
		t.Fatal("program has no cache plan installed")
	}
	if _, ok := o.FeatureCacheStats(); !ok {
		t.Error("FeatureCacheStats reports caching off")
	}
}

// TestCachePlanBudgetNeverExceeded: the planned capacities must sum within
// the user's global budget — low-score IFVs are dropped, not padded up to a
// floor that would overrun the memory bound the operator set.
func TestCachePlanBudgetNeverExceeded(t *testing.T) {
	p, train, valid, _ := cachePlanFixture(t, 2000, 0)
	for _, budget := range []int{16, 32, 64, 512} {
		o, rep, err := Optimize(context.Background(), p, train, valid,
			Options{FeatureCache: true, FeatureCacheBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, sp := range o.Prog.CacheSpecs() {
			if sp.Capacity <= 0 {
				t.Fatalf("budget %d: unbounded spec %+v", budget, sp)
			}
			total += sp.Capacity
		}
		if total > budget {
			t.Errorf("budget %d: planned capacities sum to %d (%+v)", budget, total, rep.CachePlan)
		}
		if total == 0 {
			t.Errorf("budget %d: nothing cached despite a scorable heavy IFV", budget)
		}
	}
}

// TestCachePlanCapsAtKeySpace: an IFV over 8 keys reuses them almost every
// row, so its score would claim most of the budget, but it gets no more
// entries than hold all 8 keys; the entries that frees go to the Zipfian
// IFV over thousands of keys, and the plan stays within the budget.
func TestCachePlanCapsAtKeySpace(t *testing.T) {
	const (
		budget   = 1024
		fewKeys  = 8
		manyKeys = 50000
		n        = 4096
	)
	rng := rand.New(rand.NewSource(5))
	rows := func(keys int64) map[int64][]float64 {
		m := make(map[int64][]float64, keys)
		for k := int64(0); k < keys; k++ {
			m[k] = []float64{rng.NormFloat64()}
		}
		return m
	}
	b := graph.NewBuilder()
	few := b.Add("few_features", ops.NewLookup("few", ops.NewLocalTable(1, rows(fewKeys))), b.Input("few_id"))
	many := b.Add("many_features", ops.NewLookup("many", ops.NewLocalTable(1, rows(manyKeys))), b.Input("many_id"))
	b.SetOutput(b.Add("concat", ops.NewConcat(), few, many))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	zipf := rand.NewZipf(rng, 1.1, 1, manyKeys-1)
	fewIDs, manyIDs, y := make([]int64, n), make([]int64, n), make([]float64, n)
	for i := range y {
		fewIDs[i], manyIDs[i] = rng.Int63n(fewKeys), int64(zipf.Uint64())
		y[i] = float64((fewIDs[i] + manyIDs[i]) % 2)
	}
	train := Dataset{Inputs: map[string]value.Value{
		"few_id": value.NewInts(fewIDs), "many_id": value.NewInts(manyIDs),
	}, Y: y}
	p := &Pipeline{Graph: g, Model: model.NewLogistic(model.LinearConfig{Seed: 5})}
	o, rep, err := Optimize(context.Background(), p, train, Dataset{},
		Options{FeatureCache: true, FeatureCacheBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CachePlan) != 2 {
		t.Fatalf("CachePlan = %+v, want two IFVs", rep.CachePlan)
	}
	fewSt, manySt := rep.CachePlan[0], rep.CachePlan[1] // leaf order
	t.Logf("plan %+v", rep.CachePlan)
	if fewSt.KeySpace != fewKeys || manySt.KeySpace < budget {
		t.Fatalf("key spaces %d and %d, want exactly %d and at least the budget %d", fewSt.KeySpace, manySt.KeySpace, fewKeys, budget)
	}
	if !fewSt.Cached || !manySt.Cached {
		t.Fatalf("both IFVs reuse keys and should be cached: %+v", rep.CachePlan)
	}
	if limit := cache.CapacityFor(fewKeys); fewSt.Capacity > limit {
		t.Errorf("8-key IFV got %d entries, want at most CapacityFor(8) = %d", fewSt.Capacity, limit)
	}
	if manySt.Capacity != budget-fewSt.Capacity {
		t.Errorf("Zipfian IFV got %d entries, want the rest of the budget, %d", manySt.Capacity, budget-fewSt.Capacity)
	}
	total := 0
	for _, sp := range o.Prog.CacheSpecs() {
		total += sp.Capacity
	}
	if total > budget {
		t.Errorf("planned capacities sum to %d, over the budget %d", total, budget)
	}
}

// TestCachePlanZeroReuseFallbackHonorsBudget: when no training reuse is
// measurable anywhere, the even-split fallback must still keep the planned
// total within the budget, caching fewer (most expensive first) IFVs rather
// than padding every one up to the floor.
func TestCachePlanZeroReuseFallbackHonorsBudget(t *testing.T) {
	p, train, valid, _ := cachePlanFixture(t, 2000, 0)
	// Make both IFVs' keys unique in training so every score is zero.
	n := train.Len()
	uniq := make([]int64, n)
	for i := range uniq {
		uniq[i] = int64(i) % 2048
	}
	perm := rand.New(rand.NewSource(3)).Perm(n)
	shuffled := make([]int64, n)
	for i, pi := range perm {
		shuffled[i] = uniq[pi]
	}
	train.Inputs = map[string]value.Value{
		"cheap_id": train.Inputs["cheap_id"],
		"heavy_id": value.NewInts(shuffled),
	}
	cheap := make([]int64, n)
	for i := range cheap {
		cheap[i] = int64(i) * 13 % 100000
	}
	train.Inputs["cheap_id"] = value.NewInts(cheap)

	const budget = 12 // below 2 x selection threshold: only one IFV may be cached
	o, rep, err := Optimize(context.Background(), p, train, valid,
		Options{FeatureCache: true, FeatureCacheBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sp := range o.Prog.CacheSpecs() {
		total += sp.Capacity
	}
	if total > budget || total == 0 {
		t.Errorf("fallback planned %d entries for budget %d (%+v)", total, budget, rep.CachePlan)
	}
	if len(o.Prog.CacheSpecs()) != 1 {
		t.Errorf("fallback cached %d IFVs, want 1 (most expensive)", len(o.Prog.CacheSpecs()))
	}
	// The surviving cache belongs to the expensive generator.
	if sp := o.Prog.CacheSpecs()[0]; sp.IFV != 1 {
		t.Errorf("fallback cached IFV %d, want the heavy generator (1)", sp.IFV)
	}
}

// TestApplyLoadedCachePlan pins the artifact-ambiguity fix: a planner
// artifact with an empty plan means "cache nothing" and must not fall back
// to flat caching on every IFV, while genuine pre-planner artifacts still
// get the legacy flat layout.
func TestApplyLoadedCachePlan(t *testing.T) {
	p, train, valid, _ := cachePlanFixture(t, 500, 0)
	o, _, err := Optimize(context.Background(), p, train, valid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog := o.Prog

	applyLoadedCachePlan(prog, artifact.Options{FeatureCache: true, FeatureCachePlanned: true})
	if n := len(prog.CacheSpecs()); n != 0 {
		t.Errorf("planner artifact with empty plan installed %d caches, want 0", n)
	}

	applyLoadedCachePlan(prog, artifact.Options{
		FeatureCache: true, FeatureCachePlanned: true,
		FeatureCachePlan: []artifact.CacheSpec{{IFV: 1, Capacity: 32}},
	})
	if specs := prog.CacheSpecs(); len(specs) != 1 || specs[0] != (weld.CacheSpec{IFV: 1, Capacity: 32}) {
		t.Errorf("planner artifact plan replayed as %+v", prog.CacheSpecs())
	}

	// Pre-planner artifact: legacy flat layout over all IFVs.
	applyLoadedCachePlan(prog, artifact.Options{FeatureCache: true, FeatureCacheCapacity: 64})
	if n := len(prog.CacheSpecs()); n != 2 {
		t.Errorf("legacy artifact installed %d caches, want 2", n)
	}
}

// TestCachePlanArtifactRoundTrip: the plan chosen from training statistics
// must survive Save/Load byte-for-byte, since deployment processes cannot
// re-derive it (they never see training data).
func TestCachePlanArtifactRoundTrip(t *testing.T) {
	// Registered (serializable) operators only: two plain lookups with
	// asymmetric key reuse.
	rng := rand.New(rand.NewSource(7))
	rows := func(n int64) map[int64][]float64 {
		m := make(map[int64][]float64, n)
		for k := int64(0); k < n; k++ {
			m[k] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		}
		return m
	}
	aTable := ops.NewLocalTable(2, rows(4096))
	bTable := ops.NewLocalTable(2, rows(64))
	b := graph.NewBuilder()
	aID := b.Input("a_id")
	bID := b.Input("b_id")
	af := b.Add("a_features", ops.NewLookup("a", aTable), aID)
	bf := b.Add("b_features", ops.NewLookup("b", bTable), bID)
	cat := b.Add("concat", ops.NewConcat(), af, bf)
	b.SetOutput(cat)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	n := 800
	aKeys, bKeys, y := make([]int64, n), make([]int64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		aKeys[i] = rng.Int63n(4096)
		bKeys[i] = rng.Int63n(64)
		if aKeys[i]%2 == 0 {
			y[i] = 1
		}
	}
	train := Dataset{Inputs: map[string]value.Value{
		"a_id": value.NewInts(aKeys), "b_id": value.NewInts(bKeys),
	}, Y: y}
	p := &Pipeline{Graph: g, Model: model.NewGBDT(model.GBDTConfig{Task: model.Classification, Trees: 5, MaxDepth: 3, Seed: 7})}
	o, _, err := Optimize(context.Background(), p, train, Dataset{},
		Options{FeatureCache: true, FeatureCacheBudget: 256})
	if err != nil {
		t.Fatal(err)
	}
	want := o.Prog.CacheSpecs()
	if len(want) == 0 {
		t.Fatal("no plan to round-trip")
	}
	var buf bytes.Buffer
	if err := Save(o, &buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	loaded, err := Load(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Prog.CacheSpecs()
	if len(got) != len(want) {
		t.Fatalf("loaded plan has %d specs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("spec %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if loaded.opts.FeatureCacheBudget != 256 {
		t.Errorf("budget = %d, want 256", loaded.opts.FeatureCacheBudget)
	}

	// The same artifact as a pre-planner build wrote it — flat fields only,
	// no plan — loads through the spec path: one cache of the flat capacity
	// per IFV, and predictions bit-identical to the pipeline that was saved.
	art, err := artifact.Read(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	art.Options.FeatureCachePlanned, art.Options.FeatureCachePlan = false, nil
	art.Options.FeatureCacheBudget, art.Options.FeatureCacheCapacity = 0, 64
	var legacyBuf bytes.Buffer
	if err := artifact.Write(&legacyBuf, art); err != nil {
		t.Fatal(err)
	}
	legacy, err := Load(&legacyBuf, nil)
	if err != nil {
		t.Fatal(err)
	}
	specs := legacy.Prog.CacheSpecs()
	if len(specs) != 2 || specs[0] != (weld.CacheSpec{IFV: 0, Capacity: 64}) || specs[1] != (weld.CacheSpec{IFV: 1, Capacity: 64}) {
		t.Errorf("legacy flat artifact installed %+v, want capacity 64 on both IFVs", specs)
	}
	wantPreds, err := o.PredictBatch(context.Background(), train.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ { // cold caches, then warm
		gotPreds, err := legacy.PredictBatch(context.Background(), train.Inputs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantPreds {
			if math.Float64bits(gotPreds[i]) != math.Float64bits(wantPreds[i]) {
				t.Fatalf("pass %d: legacy pred[%d] = %v, want bit-identical %v", pass, i, gotPreds[i], wantPreds[i])
			}
		}
	}
}

// TestCachePlanSplitBeatsFlat serves the same Zipfian point-query stream
// through the profile-driven budget split and through a flat split of the
// identical total budget, and requires the statistically-aware layout to
// absorb strictly more of the expensive generator's work — the property the
// paper's section 4.5 caching optimization is built on. Everything involved
// (workload, CLOCK eviction, single-threaded serving) is deterministic.
func TestCachePlanSplitBeatsFlat(t *testing.T) {
	p, train, valid, serve := cachePlanFixture(t, 2000, 3000)
	const budget = 512
	o, rep, err := Optimize(context.Background(), p, train, valid,
		Options{FeatureCache: true, FeatureCacheBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	heavyIFV := 1 // leaf order: cheap_features is IFV 0
	runWorkload := func() (heavyHits, heavyMisses int64) {
		for _, q := range serve {
			if _, err := o.PredictPoint(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		st, ok := o.Prog.IFVCacheStats(heavyIFV)
		if !ok {
			t.Fatal("heavy IFV has no cache")
		}
		return st.Hits, st.Misses
	}

	// Profile-driven split (installed by Optimize).
	splitHits, splitMisses := runWorkload()

	// Flat split of the same total budget, on the same optimized pipeline.
	o.Prog.EnableFeatureCachingSpecs([]weld.CacheSpec{
		{IFV: 0, Capacity: budget / 2},
		{IFV: 1, Capacity: budget / 2},
	})
	flatHits, flatMisses := runWorkload()

	splitRate := float64(splitHits) / float64(splitHits+splitMisses)
	flatRate := float64(flatHits) / float64(flatHits+flatMisses)
	t.Logf("heavy-IFV hit rate: split %.3f (plan %+v), flat %.3f", splitRate, rep.CachePlan, flatRate)
	if splitHits <= flatHits {
		t.Errorf("profile-driven split served %d heavy hits, flat split %d; want split > flat", splitHits, flatHits)
	}
}

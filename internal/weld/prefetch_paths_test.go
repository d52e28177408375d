package weld_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"willump/internal/cascade"
	"willump/internal/core"
	"willump/internal/graph"
	"willump/internal/model"
	"willump/internal/ops"
	"willump/internal/store"
	"willump/internal/value"
	"willump/internal/weld"
)

// TestPrefetchCachedMissesConcurrent drives the concurrent fill of a point
// query's remote cache misses through both point paths that reach it: a
// cascade's PredictPointThreshold (the efficient IFV first, the rest on a
// hard row) and a Workers: 4 compiled point predict, whose generator-parallel
// workers share the run with the fill. Eight goroutines send seeded Zipfian
// queries over 16-entry caches, so fills coalesce and entries evict under
// them. Every answer must equal PredictBatch's to the bit, and with one
// caller the stores see exactly one request per remote cache miss.
func TestPrefetchCachedMissesConcurrent(t *testing.T) {
	const nKeys, nTrain, nQueries = 64, 512, 512
	ctx := context.Background()

	// Three remote lookups, k0..k2, and two local ones over k0 and k1 for
	// the workers to take.
	b := graph.NewBuilder()
	var remotes []*store.Client
	var keys, feats []graph.NodeID
	for j := 0; j < 3; j++ {
		_, c := weld.StartRemoteStore(t, nKeys, 0, store.Config{})
		remotes = append(remotes, c)
		name := "k" + strconv.Itoa(j)
		keys = append(keys, b.Input(name))
		feats = append(feats, b.Add("remote_"+name, ops.NewLookup(name, c), keys[j]))
	}
	local := make(map[int64][]float64, nKeys)
	for k := int64(0); k < nKeys; k++ {
		local[k] = []float64{float64(k%7) - 3}
	}
	for j := 0; j < 2; j++ {
		feats = append(feats, b.Add("local_k"+strconv.Itoa(j), ops.NewLookup("local", ops.NewLocalTable(1, local)), keys[j]))
	}
	b.SetOutput(b.Add("concat", ops.NewConcat(), feats...))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	column := func(n int, draw func() int64) value.Value {
		col := make([]int64, n)
		for i := range col {
			col[i] = draw()
		}
		return value.NewInts(col)
	}
	uniform := func() int64 { return rng.Int63n(nKeys) }
	train := core.Dataset{Inputs: map[string]value.Value{}}
	for j := 0; j < 3; j++ {
		train.Inputs["k"+strconv.Itoa(j)] = column(nTrain, uniform)
	}
	train.Y = make([]float64, nTrain)
	for i := range train.Y {
		if in := train.Inputs; in["k0"].Ints[i]+in["k1"].Ints[i] > in["k2"].Ints[i]+nKeys/2 {
			train.Y[i] = 1
		}
	}
	o, _, err := core.Optimize(ctx, &core.Pipeline{Graph: g, Model: model.NewLogistic(model.LinearConfig{Seed: 1})},
		train, core.Dataset{}, core.Options{FeatureCache: true, FeatureCacheCapacity: 16, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The remote IFVs, by root label; remote_k0 is the cascade's efficient
	// set.
	var remoteIFVs, rest []int
	eff := -1
	for i, ifv := range o.Prog.A.IFVs {
		label := o.Prog.G.Node(ifv.Root).Label
		if strings.HasPrefix(label, "remote_") {
			remoteIFVs = append(remoteIFVs, i)
		}
		if label == "remote_k0" {
			eff = i
		} else {
			rest = append(rest, i)
		}
		if _, ok := o.Prog.IFVCacheStats(i); !ok {
			t.Fatalf("IFV %d (%s) has no cache", i, label)
		}
	}
	run, err := o.Prog.NewRun(ctx, train.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	effX, err := run.MatrixShared([]int{eff})
	if err != nil {
		t.Fatal(err)
	}
	small := o.Model.Fresh()
	if err := small.Train(effX, train.Y); err != nil {
		t.Fatal(err)
	}
	run.Close()
	c := &cascade.Cascade{Approx: &cascade.Approx{Prog: o.Prog, Small: small, Efficient: []int{eff}, Rest: rest}, Full: o.Model}

	// Zipfian queries; the threshold is the small model's median confidence
	// over them, so about half the rows resume into the remaining IFVs.
	queries := map[string]value.Value{}
	for j := 0; j < 3; j++ {
		z := rand.NewZipf(rng, 1.1, 4, nKeys-1)
		queries["k"+strconv.Itoa(j)] = column(nQueries, func() int64 { return int64(z.Uint64()) })
	}
	smallPreds, err := c.SmallOnlyPredict(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	conf := make([]float64, len(smallPreds))
	for i, p := range smallPreds {
		conf[i] = model.Confidence(p)
	}
	slices.Sort(conf)
	c.Threshold = conf[len(conf)/2]
	wantCascade, _, err := c.PredictBatchThreshold(ctx, queries, c.Threshold)
	if err != nil {
		t.Fatal(err)
	}
	wantFull, err := o.PredictBatch(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	point := func(i int) map[string]value.Value {
		in := make(map[string]value.Value, len(queries))
		for k, col := range queries {
			in[k] = value.NewInts(col.Ints[i : i+1])
		}
		return in
	}
	// ask sends query i down the cascade or the Workers path and checks the
	// answer; a cascade answer reports which model gave it.
	ask := func(i int, viaCascade bool) (cascade.ServeStats, bool) {
		var got, want float64
		var st cascade.ServeStats
		var err error
		if viaCascade {
			got, st, err = c.PredictPointThreshold(ctx, point(i), c.Threshold)
			want = wantCascade[i]
		} else {
			got, err = o.PredictPoint(ctx, point(i))
			want = wantFull[i]
		}
		if err != nil {
			t.Errorf("query %d (cascade %v): %v", i, viaCascade, err)
			return st, false
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("query %d (cascade %v): point %v, PredictBatch %v", i, viaCascade, got, want)
			return st, false
		}
		return st, true
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 150; n++ {
				if _, ok := ask((w*131+n*7)%nQueries, (w+n)%2 == 1); !ok {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s := o.Prog.FeatureCacheStats(); s.Evictions == 0 {
		t.Errorf("cache stats %+v: the 16-entry caches never evicted", s)
	}

	// One caller: every remote cache miss is one store request, no more.
	remoteMisses := func() (n int64) {
		for _, i := range remoteIFVs {
			s, _ := o.Prog.IFVCacheStats(i)
			n += s.Misses
		}
		return n
	}
	requests := func() (n int64) {
		for _, r := range remotes {
			n += r.Requests()
		}
		return n
	}
	misses0, reqs0 := remoteMisses(), requests()
	var smallOnly, cascaded int
	for i := 0; i < nQueries; i++ {
		st, ok := ask(i, i%2 == 1)
		if !ok {
			break
		}
		smallOnly += st.SmallOnly
		cascaded += st.Cascaded
	}
	misses, reqs := remoteMisses()-misses0, requests()-reqs0
	if misses == 0 || reqs != misses {
		t.Errorf("single caller: %d store requests for %d remote cache misses, want equal and > 0", reqs, misses)
	}
	if smallOnly == 0 || cascaded == 0 {
		t.Errorf("cascade answered %d small-only and %d resumed; want both", smallOnly, cascaded)
	}
}

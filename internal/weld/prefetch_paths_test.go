package weld_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"willump/internal/cache"
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
	// Microsecond lookups never earn a fan-out; force it, as a costly
	// generator would.
	weld.ForceFanOut(t, o.Prog, 4)
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

// gatedTable is a local table behind the remote-table interfaces whose
// lookups block while gate is non-nil, until it is closed, and are counted.
type gatedTable struct {
	*ops.LocalTable
	gate     chan struct{}
	requests atomic.Int64
}

func (t *gatedTable) LookupBatchCtx(ctx context.Context, keys []int64) ([][]float64, error) {
	t.requests.Add(1)
	if t.gate != nil {
		select {
		case <-t.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return t.LocalTable.LookupBatch(keys)
}

func (t *gatedTable) LookupBatch(keys []int64) ([][]float64, error) {
	return t.LookupBatchCtx(context.Background(), keys)
}

func (t *gatedTable) StartLookup(ctx context.Context, keys []int64) ops.PendingLookup {
	return gatedLookup{t: t, keys: keys}
}

type gatedLookup struct {
	t    *gatedTable
	keys []int64
}

func (g gatedLookup) Wait(ctx context.Context) ([][]float64, error) {
	return g.t.LookupBatchCtx(ctx, g.keys)
}
func (g gatedLookup) Cancel() {}

// TestCoalescedWaitersSurviveDeclinedPut: a full feature cache holds a hot
// set looked up as often as admission counts, and 8 concurrent point
// queries miss on one cold remote key. The leader's Put is declined — the
// cold key does not out-count the victim — yet the 7 waiters take the
// leader's vector instead of fetching again: exactly one store request, and
// every answer equals PredictBatch's to the bit.
func TestCoalescedWaitersSurviveDeclinedPut(t *testing.T) {
	const (
		capacity = 7 // below 8, so one shard on any machine
		cold     = int64(40)
		queries  = 8
	)
	ctx := context.Background()
	rows := make(map[int64][]float64, 64)
	for k := int64(0); k < 64; k++ {
		rows[k] = []float64{float64(k%5) - 2, float64(k%3) - 1}
	}
	table := &gatedTable{LocalTable: ops.NewLocalTable(2, rows)}
	b := graph.NewBuilder()
	b.SetOutput(b.Add("concat", ops.NewConcat(),
		b.Add("remote_k", ops.NewLookup("remote", table), b.Input("k")),
		b.Add("local_j", ops.NewLookup("local", ops.NewLocalTable(2, rows)), b.Input("j"))))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	train := core.Dataset{Inputs: map[string]value.Value{}, Y: make([]float64, 256)}
	ks, js := make([]int64, 256), make([]int64, 256)
	for i := range ks {
		ks[i], js[i] = rng.Int63n(64), rng.Int63n(64)
		train.Y[i] = float64((ks[i] + js[i]) % 2)
	}
	train.Inputs["k"], train.Inputs["j"] = value.NewInts(ks), value.NewInts(js)
	o, _, err := core.Optimize(ctx, &core.Pipeline{Graph: g, Model: model.NewLogistic(model.LinearConfig{Seed: 2})},
		train, core.Dataset{}, core.Options{FeatureCache: true, FeatureCacheCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	remote := -1
	for i, ifv := range o.Prog.A.IFVs {
		if o.Prog.G.Node(ifv.Root).Label == "remote_k" {
			remote = i
		}
	}
	stats := func() cache.Stats {
		st, ok := o.Prog.IFVCacheStats(remote)
		if !ok {
			t.Fatal("remote IFV has no cache")
		}
		return st
	}
	point := func(k int64) map[string]value.Value {
		return map[string]value.Value{"k": value.NewInts([]int64{k}), "j": value.NewInts([]int64{k + 1})}
	}
	// Thirteen rounds over a hot set that fills the cache: the sketch ages
	// (halves) after 10 rounds, leaving each hot key counted 8 times, and the
	// burst's 8 lookups of the cold key come before the next aging.
	for round := 0; round < 13; round++ {
		for k := int64(0); k < capacity; k++ {
			if _, err := o.PredictPoint(ctx, point(k)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := stats(); st.Misses != capacity || st.Rejected != 0 {
		t.Fatalf("warm-up stats %+v, want the %d hot keys resident", st, capacity)
	}

	before, reqs0 := stats(), table.requests.Load()
	table.gate = make(chan struct{})
	got := make([]float64, queries)
	var wg sync.WaitGroup
	for q := 0; q < queries; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			var err error
			if got[q], err = o.PredictPoint(ctx, point(cold)); err != nil {
				t.Error(err)
			}
		}(q)
	}
	// Every query has probed once its miss is counted; the grace period lets
	// the last of them reach the flight before the leader's fetch returns.
	for stats().Misses-before.Misses < queries {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(table.gate)
	wg.Wait()
	table.gate = nil

	after := stats()
	if n := table.requests.Load() - reqs0; n != 1 {
		t.Errorf("%d concurrent queries for one cold key made %d store requests, want 1", queries, n)
	}
	if after.Rejected-before.Rejected != 1 || after.Coalesced-before.Coalesced != queries-1 {
		t.Errorf("burst stats %+v (before %+v): want the leader's Put declined and %d waiters coalesced", after, before, queries-1)
	}
	want, err := o.PredictBatch(ctx, point(cold))
	if err != nil {
		t.Fatal(err)
	}
	for q, p := range got {
		if math.Float64bits(p) != math.Float64bits(want[0]) {
			t.Errorf("query %d: point %v, PredictBatch %v", q, p, want[0])
		}
	}
}

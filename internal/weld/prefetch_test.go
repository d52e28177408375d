package weld

import (
	"context"
	"errors"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"willump/internal/feature"
	"willump/internal/graph"
	"willump/internal/kvstore"
	"willump/internal/ops"
	"willump/internal/store"
	"willump/internal/trace"
	"willump/internal/value"
)

// sleepLookup is a local lookup with a fixed per-batch compute delay,
// standing in for an expensive local feature generator in overlap tests.
type sleepLookup struct {
	inner *ops.Lookup
	d     time.Duration
}

func newSleepLookup(name string, table ops.Table, d time.Duration) *sleepLookup {
	return &sleepLookup{inner: ops.NewLookup(name, table), d: d}
}

func (s *sleepLookup) Name() string      { return "sleep_" + s.inner.Name() }
func (s *sleepLookup) Compilable() bool  { return true }
func (s *sleepLookup) Commutative() bool { return false }

func (s *sleepLookup) Apply(ins []value.Value) (value.Value, error) {
	time.Sleep(s.d)
	return s.inner.Apply(ins)
}

func (s *sleepLookup) ApplyBoxed(ins []any) (any, error) {
	time.Sleep(s.d)
	return s.inner.ApplyBoxed(ins)
}

// startRemoteStore spins up a kvstore server with nKeys rows of width 2
// (row k = [k, 2k]) and dials a production store client against it.
func startRemoteStore(t *testing.T, nKeys int, latency time.Duration, cfg store.Config) (*kvstore.Server, *store.Client) {
	t.Helper()
	srv := kvstore.NewServer(2, latency)
	rows := make(map[int64][]float64, nKeys)
	for k := int64(0); k < int64(nKeys); k++ {
		rows[k] = []float64{float64(k), float64(2 * k)}
	}
	if err := srv.Load(rows); err != nil {
		t.Fatalf("Load: %v", err)
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	cfg.Addr = addr
	c, err := store.Dial(context.Background(), cfg)
	if err != nil {
		t.Fatalf("store.Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

// StartRemoteStore is startRemoteStore for the external test package, whose
// tests drive the cascade and core predict paths weld cannot import.
var StartRemoteStore = startRemoteStore

// remotePipeline builds and fits
//
//	rid -> lookup(remote store)  \
//	                              concat
//	lid -> slow local lookup     /
//
// so the remote round trip and the local compute can overlap.
func remotePipeline(t *testing.T, remote ops.Table, localDelay time.Duration) (*Program, map[string]value.Value) {
	t.Helper()
	localRows := make(map[int64][]float64, 64)
	for k := int64(0); k < 64; k++ {
		localRows[k] = []float64{float64(k) / 2}
	}
	local := ops.NewLocalTable(1, localRows)

	b := graph.NewBuilder()
	rid := b.Input("rid")
	lid := b.Input("lid")
	rf := b.Add("remote_features", ops.NewLookup("remote", remote), rid)
	lf := b.Add("local_features", newSleepLookup("local", local, localDelay), lid)
	cat := b.Add("concat", ops.NewConcat(), rf, lf)
	b.SetOutput(cat)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	p, err := Compile(g)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	inputs := map[string]value.Value{
		"rid": value.NewInts([]int64{3, 7, 11, 20}),
		"lid": value.NewInts([]int64{1, 2, 3, 4}),
	}
	if _, err := p.Fit(context.Background(), inputs); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	return p, inputs
}

// TestPrefetchIndexSelectsRemoteLookups: only source-keyed lookups against
// async-capable tables become prefetch specs; local tables never do.
func TestPrefetchIndexSelectsRemoteLookups(t *testing.T) {
	_, client := startRemoteStore(t, 64, 0, store.Config{})
	p, _ := remotePipeline(t, client, 0)
	if len(p.prefetch) != 1 {
		t.Fatalf("prefetch specs = %d, want 1 (the remote lookup only)", len(p.prefetch))
	}
	if got := p.prefetch[0].at; got != ops.AsyncTable(client) {
		t.Errorf("prefetch table = %v, want the store client", got)
	}
	// A plan with only local tables carries an empty index and an all-skip
	// map, keeping the non-remote path zero-overhead.
	localOnly, localInputs := remotePipeline(t, ops.NewLocalTable(2, map[int64][]float64{3: {3, 6}, 7: {7, 14}, 11: {11, 22}, 20: {20, 40}}), 0)
	if len(localOnly.prefetch) != 0 {
		t.Errorf("local-table plan has %d prefetch specs, want 0", len(localOnly.prefetch))
	}
	r, err := localOnly.NewRun(context.Background(), localInputs)
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	defer r.Close()
	for _, pd := range r.pending {
		if pd != nil {
			t.Error("local-table run reports pending prefetches")
		}
	}
}

// TestPrefetchOverlapsRemoteFetchWithLocalCompute pins the latency win the
// async prefetch exists for: with a 30ms store round trip and 30ms of local
// compute, the fused run must finish well under their 60ms sum because the
// fetch is in flight while the local feature computes.
func TestPrefetchOverlapsRemoteFetchWithLocalCompute(t *testing.T) {
	const lat = 30 * time.Millisecond
	_, client := startRemoteStore(t, 64, lat, store.Config{})
	p, inputs := remotePipeline(t, client, lat)

	// One warm run to populate pools and the connection pool.
	warm, err := p.NewRun(context.Background(), inputs)
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	if _, err := warm.MatrixShared(p.AllIFVs()); err != nil {
		t.Fatalf("warm MatrixShared: %v", err)
	}
	warm.Close()

	start := time.Now()
	r, err := p.NewRun(context.Background(), inputs)
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	defer r.Close()
	m, err := r.MatrixShared(p.AllIFVs())
	if err != nil {
		t.Fatalf("MatrixShared: %v", err)
	}
	elapsed := time.Since(start)

	if elapsed < lat {
		t.Errorf("run finished in %v, faster than one %v round trip — latency injection broken", elapsed, lat)
	}
	if limit := lat * 8 / 5; elapsed >= limit {
		t.Errorf("fused run took %v; want < %v (remote fetch must overlap local compute, sequential sum is %v)", elapsed, limit, 2*lat)
	}
	// Correctness under overlap: remote columns then the local column.
	if m.Rows() != 4 || m.Cols() != 3 {
		t.Fatalf("matrix shape %dx%d, want 4x3", m.Rows(), m.Cols())
	}
	if m.At(1, 0) != 7 || m.At(1, 1) != 14 || m.At(1, 2) != 1 {
		t.Errorf("row 1 = [%v %v %v], want [7 14 1]", m.At(1, 0), m.At(1, 1), m.At(1, 2))
	}
}

// TestPrefetchSkipsCachedIFVs: an IFV with a feature cache must not
// prefetch — the cached path fetches only its misses, and a warm cache
// makes zero remote requests.
func TestPrefetchSkipsCachedIFVs(t *testing.T) {
	_, client := startRemoteStore(t, 64, 0, store.Config{})
	p, inputs := remotePipeline(t, client, 0)

	remoteIFV := p.prefetch[0].ifv
	p.EnableFeatureCachingSpecs([]CacheSpec{{IFV: remoteIFV, Capacity: 128}})
	client.ResetRequests()

	run := func() {
		t.Helper()
		r, err := p.NewRun(context.Background(), inputs)
		if err != nil {
			t.Fatalf("NewRun: %v", err)
		}
		defer r.Close()
		if _, err := r.MatrixShared(p.AllIFVs()); err != nil {
			t.Fatalf("MatrixShared: %v", err)
		}
	}
	run()
	if n := client.Requests(); n != 1 {
		t.Errorf("cold cached run made %d remote requests, want 1 (miss fill only, no prefetch)", n)
	}
	run()
	if n := client.Requests(); n != 1 {
		t.Errorf("warm cached run made %d total remote requests, want still 1 (all hits, prefetch gated off)", n)
	}
}

// TestPrefetchCachedMissesOverlap pins what a point query's cache misses on
// remote IFVs cost: with three cached remote lookups at 30ms each, a cold
// query pays about one round trip, not three, because the misses are
// fetched together; it still makes exactly one request per miss, and a
// sampled query's store spans overlap in its trace.
func TestPrefetchCachedMissesOverlap(t *testing.T) {
	const lat = 30 * time.Millisecond
	var clients [3]*store.Client
	b := graph.NewBuilder()
	var feats []graph.NodeID
	for j := range clients {
		_, clients[j] = startRemoteStore(t, 64, lat, store.Config{})
		name := "k" + strconv.Itoa(j)
		feats = append(feats, b.Add(name+"_features", ops.NewLookup(name, clients[j]), b.Input(name)))
	}
	b.SetOutput(b.Add("concat", ops.NewConcat(), feats...))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	point := func(k0, k1, k2 int64) map[string]value.Value {
		return map[string]value.Value{
			"k0": value.NewInts([]int64{k0}),
			"k1": value.NewInts([]int64{k1}),
			"k2": value.NewInts([]int64{k2}),
		}
	}
	p, _ := fitProgram(t, g, point(0, 0, 0))
	if len(p.prefetch) != 3 {
		t.Fatalf("prefetch specs = %d, want 3", len(p.prefetch))
	}
	ctx := context.Background()
	uncached := func(in map[string]value.Value) feature.Matrix {
		t.Helper()
		m, err := p.RunBatch(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	wantA, wantB, wantC := uncached(point(1, 2, 3)), uncached(point(1, 5, 6)), uncached(point(1, 2, 7))
	p.EnableFeatureCachingSpecs([]CacheSpec{{IFV: 0, Capacity: 64}, {IFV: 1, Capacity: 64}, {IFV: 2, Capacity: 64}})

	tracer := trace.NewTracer(trace.Config{SampleEvery: 1})
	// query runs one sampled point query and returns its features, wall
	// time, store requests and trace.
	query := func(in map[string]value.Value, want feature.Matrix) (time.Duration, int64, trace.Snapshot) {
		t.Helper()
		var reqs int64
		for _, c := range clients {
			reqs -= c.Requests()
		}
		tr := tracer.Begin("point")
		start := time.Now()
		r, err := p.NewRun(trace.NewContext(ctx, tr), in)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.PointMatrix(p.AllIFVs())
		if err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		matricesClose(t, m, want, 0)
		r.Close()
		tracer.Finish(tr, "point", start, nil)
		for _, c := range clients {
			reqs += c.Requests()
		}
		return elapsed, reqs, tracer.Traces()[0]
	}

	elapsed, reqs, _ := query(point(1, 2, 3), wantA)
	if elapsed < lat {
		t.Errorf("cold query took %v, faster than one %v round trip — latency injection broken", elapsed, lat)
	}
	if limit := lat * 8 / 5; elapsed >= limit {
		t.Errorf("cold query took %v; want < %v (three misses fetched together, one after another is %v)", elapsed, limit, 3*lat)
	}
	if reqs != 3 {
		t.Errorf("cold query made %d store requests, want 3 (one per miss)", reqs)
	}
	if _, reqs, _ = query(point(1, 2, 3), wantA); reqs != 0 {
		t.Errorf("warm repeat made %d store requests, want 0", reqs)
	}
	if _, reqs, _ = query(point(1, 2, 7), wantC); reqs != 1 {
		t.Errorf("one miss, two hits made %d store requests, want 1", reqs)
	}

	_, reqs, snap := query(point(1, 5, 6), wantB)
	if reqs != 2 {
		t.Errorf("two misses made %d store requests, want 2", reqs)
	}
	count := map[string]int{}
	var mgets []trace.Span
	for _, s := range snap.Spans {
		count[s.Stage]++
		if s.Stage == trace.StageStoreMGet {
			mgets = append(mgets, s)
		}
	}
	for stage, want := range map[string]int{"ifv:0": 1, "ifv:1": 1, "ifv:2": 1, trace.StageCacheLookup: 3, trace.StageCacheFill: 2, trace.StageStoreMGet: 2} {
		if count[stage] != want {
			t.Errorf("two-miss trace has %d %q spans, want %d (spans %+v)", count[stage], stage, want, snap.Spans)
		}
	}
	if len(mgets) == 2 {
		a, b := mgets[0], mgets[1]
		if a.Offset >= b.Offset+b.Dur || b.Offset >= a.Offset+a.Dur {
			t.Errorf("store spans [%v +%v] and [%v +%v] do not overlap", a.Offset, a.Dur, b.Offset, b.Dur)
		}
	}
}

// TestBreakerOpenDegradesPredictionsEndToEnd: with the store stalled past
// its request timeout, every fused run still succeeds — the circuit breaker
// opens and predictions degrade to last-known feature values instead of
// failing.
func TestBreakerOpenDegradesPredictionsEndToEnd(t *testing.T) {
	srv, client := startRemoteStore(t, 64, 0, store.Config{
		RequestTimeout:   20 * time.Millisecond,
		Retries:          -1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute, // stays open for the whole test
	})
	p, inputs := remotePipeline(t, client, 0)

	// Stall the store: every attempt now times out.
	srv.SetLatencyFunc(func() time.Duration { return time.Second })

	for i := 0; i < 20; i++ {
		r, err := p.NewRun(context.Background(), inputs)
		if err != nil {
			t.Fatalf("run %d: NewRun: %v", i, err)
		}
		m, err := r.MatrixShared(p.AllIFVs())
		if err != nil {
			t.Fatalf("run %d failed; breaker must degrade, not error: %v", i, err)
		}
		// Keys were fetched healthy during Fit, so degraded rows carry their
		// last-known values.
		if m.At(0, 0) != 3 || m.At(0, 1) != 6 {
			t.Errorf("run %d degraded row 0 = [%v %v], want last-known [3 6]", i, m.At(0, 0), m.At(0, 1))
		}
		r.Close()
	}
	st := client.StoreStats()
	if st.BreakerState != "open" {
		t.Errorf("breaker state = %q, want open", st.BreakerState)
	}
	if st.Degraded < 19 {
		t.Errorf("degraded lookups = %d, want >= 19 (every run after the breaker opened)", st.Degraded)
	}
}

// countingAsyncTable is a local table behind the async interface whose
// handles count how they ended, so a test can tell a joined or cancelled
// fetch from one left running.
type countingAsyncTable struct {
	*ops.LocalTable
	started, waited, cancelled atomic.Int64
}

type countingHandle struct {
	t    *countingAsyncTable
	keys []int64
}

func (t *countingAsyncTable) StartLookup(_ context.Context, keys []int64) ops.PendingLookup {
	t.started.Add(1)
	return &countingHandle{t: t, keys: keys}
}

func (h *countingHandle) Wait(context.Context) ([][]float64, error) {
	h.t.waited.Add(1)
	return h.t.LookupBatch(h.keys)
}

func (h *countingHandle) Cancel() { h.t.cancelled.Add(1) }

// failOn is a compilable Apply-only operator that fails on a batch holding
// the poison value.
type failOn struct{ poison float64 }

func (failOn) Name() string      { return "fail_on" }
func (failOn) Compilable() bool  { return true }
func (failOn) Commutative() bool { return false }
func (f failOn) Apply(ins []value.Value) (value.Value, error) {
	for _, x := range ins[0].Floats {
		if x == f.poison {
			return value.Value{}, errors.New("poisoned row")
		}
	}
	return ins[0], nil
}
func (f failOn) ApplyBoxed(ins []any) (any, error) { return ins[0], nil }

// TestRowParallelFailedShardCancelsPrefetch: when one row shard of a
// parallel batch fails, every shard still goes back to the pool and no
// prefetch handle is left neither joined nor cancelled. A healthy sharded
// batch fetches each key once, on the parent run.
func TestRowParallelFailedShardCancelsPrefetch(t *testing.T) {
	rows := make(map[int64][]float64, 16)
	for k := int64(0); k < 16; k++ {
		rows[k] = []float64{float64(k), float64(2 * k)}
	}
	table := &countingAsyncTable{LocalTable: ops.NewLocalTable(2, rows)}
	b := graph.NewBuilder()
	cat := b.Add("concat", ops.NewConcat(),
		b.Add("remote_features", ops.NewLookup("remote", table), b.Input("rid")),
		b.Add("checked", failOn{poison: -1}, b.Input("x")))
	b.SetOutput(cat)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	good := map[string]value.Value{
		"rid": value.NewInts([]int64{1, 2, 3, 4, 5, 6}),
		"x":   value.NewFloats([]float64{10, 20, 30, 40, 50, 60}),
	}
	p, want := fitProgram(t, g, good)
	if len(p.prefetch) != 1 {
		t.Fatalf("prefetch specs = %d, want 1", len(p.prefetch))
	}
	run := func(in map[string]value.Value) (feature.Matrix, error) {
		r, err := p.NewRun(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := r.ComputeIFVsParallel(p.AllIFVs(), 3); err != nil {
			return nil, err
		}
		m, err := r.MatrixShared(p.AllIFVs())
		if err != nil {
			return nil, err
		}
		return owned(m), nil
	}

	got, err := run(good)
	if err != nil {
		t.Fatal(err)
	}
	matricesClose(t, got, want, 0)
	if s, w, c := table.started.Load(), table.waited.Load(), table.cancelled.Load(); s != 1 || w != 1 || c != 0 {
		t.Errorf("healthy sharded batch: %d fetches started, %d joined, %d cancelled; want 1, 1, 0", s, w, c)
	}

	bad := map[string]value.Value{
		"rid": good["rid"],
		"x":   value.NewFloats([]float64{10, 20, 30, 40, 50, -1}), // the last shard fails
	}
	if _, err := run(bad); err == nil {
		t.Fatal("poisoned shard did not fail the batch")
	}
	if s, w, c := table.started.Load(), table.waited.Load(), table.cancelled.Load(); s != w+c {
		t.Errorf("after a failed shard: %d fetches started but only %d joined + %d cancelled", s, w, c)
	}
}

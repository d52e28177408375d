package main

// The five workloads. Each builds one of the paper's pipelines through the
// repo's public functions, pre-generates its request stream from the seed
// (the program under test only ever sees the generated inputs), computes
// reference outputs, and exposes one operation that runs a request and
// checks its reply.
//
// The data sets and the trained pipelines are fixed (dataSeed); --seed draws
// the request stream: batch membership, candidate sets, row order and the
// Poisson schedule. A seed-dependent data set would make the cascade plan,
// and with it every timing, differ between seeds for reasons no later change
// can act on.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"willump/internal/cache"
	"willump/internal/cascade"
	"willump/internal/core"
	"willump/internal/kvstore"
	"willump/internal/model"
	"willump/internal/ops"
	"willump/internal/pipeline"
	"willump/internal/serving"
	"willump/internal/store"
	"willump/internal/topk"
	"willump/internal/value"
)

const (
	dataSeed     = 1
	datasetRows  = 8000 // rows per pipeline across train/valid/test
	batchRows    = 1024 // toxic-batch rows per PredictBatch
	batchPool    = 32   // pre-generated batches, cycled
	candidates   = 2000 // product-topk candidates per query
	candidateSet = 16   // pre-generated candidate sets, cycled
	qualitySets  = 32   // seed-independent candidate sets top-K precision is measured on
	topK         = 20
	pointStream  = 1 << 16 // pre-generated point-query row order, cycled
	gateRows     = 256     // rows in each correctness-gate sample
	storeLatency = 500 * time.Microsecond
	cacheBudget  = 1024
	musicTarget  = 0.015
	// musicRequests is the length of the generated music request stream.
	musicRequests = 1 << 14
	httpModel     = "credit"
	httpConns     = 2
)

// musicZipf is the exponent of the Zipfian music keys (rand.NewZipf with
// v = musicZipfV); tables not listed are keyed uniformly. The skew is milder
// than the data set's own (1.3 and 1.2 with v = 1), under which half the
// requests are served from the cache alone and the median latency sits on
// the edge between a cache hit and a store round trip.
var musicZipf = map[string]float64{"users": 1.1, "songs": 1.1}

const musicZipfV = 16

// tableColumn names the input column that keys a music table ("users" is
// keyed by "user").
func tableColumn(table string) string { return strings.TrimSuffix(table, "s") }

// workload names one benchmark workload and how to set it up.
type workload struct {
	name string
	why  string
	// plan is the reference cascade/filter plan. core.Optimize chooses plans
	// from profiled costs, so the choice can differ between two set-ups of
	// the same code (music flips between two efficient sets about evenly);
	// only set-ups that come up with the reference plan are driven, so that a
	// plan flip is never read as a speed change.
	plan  string
	setup func(ctx context.Context, seed int64) (*instance, error)
}

var workloads = []workload{
	{"toxic-batch", "Fig. 5: 1024-row PredictBatch; weld batch driver and the cascade split do the work, store/cache/serving do none",
		"efficient=[2] threshold=0.8",
		func(ctx context.Context, seed int64) (*instance, error) { return setupToxic(ctx, seed, false) }},
	{"toxic-point", "Fig. 6: same pipeline one row per PredictPoint; weld point driver and per-call fixed cost instead of vector loops",
		"efficient=[2] threshold=0.8",
		func(ctx context.Context, seed int64) (*instance, error) { return setupToxic(ctx, seed, true) }},
	{"music-remote-point", "Tables 2-3: five remote tables at 500us behind the hedged store client, 1024-entry feature cache under Zipfian keys, cascade short-circuit",
		"efficient=[0 1] threshold=0.6",
		setupMusic},
	{"product-topk", "Table 4: TopK(20) over 2000 candidates; filter model plus subset re-rank, cascade threshold path bypassed",
		"efficient=[2] subset=200",
		setupProduct},
	{"serve-http-point", "Layered latency budget: 2us credit predict behind the HTTP serving tier, closed loop over 2 connections; the traced run adds open loop at 1000/2000/4000 QPS",
		"none",
		setupHTTP},
}

// instance is a workload that has been set up and has answered its first
// request correctly.
type instance struct {
	callers int
	batch   bool // operations are whole batches, not single rows
	op      opFunc
	// The traced pass runs operation i as a root span named root and then has
	// layers re-issue the same input through the layers' public functions as
	// child spans. mark, when set, is called just before the root span.
	root   string
	layers func(ctx context.Context, rec *recorder, req, root, i int) error
	mark   func()
	// gate is the correctness gate on a gateRows-row sample; it returns the
	// number of rows checked and how many were wrong.
	gate func(ctx context.Context) (checked, wrong int, err error)
	// counters reads the layers' public stats accessors (and resets the
	// baseline when called with reset), reporting them per query.
	counters func(reset bool, queries int) map[string]float64
	// evaluate, when set, measures quality; it is called once per run, on the
	// instance that is then driven.
	evaluate func(ctx context.Context) error
	// layerMetrics adds per-layer metrics the workload measured itself
	// during or after the traced pass.
	layerMetrics func(l map[string]float64)
	// http is set by the serving workload, which is driven open-loop.
	http *httpLoad

	setupS       float64 // build + optimize (+ servers) + first correct reply
	buildS       float64
	optimizeS    float64
	reportOptS   float64 // core.Report.OptimizeTime, cross-check for optimizeS
	quality      float64 // test-split accuracy (or top-K precision) of the served path
	accuracyLoss float64 // PredictFull accuracy minus served accuracy; NaN when not cascaded
	plan         string  // the statistically chosen plan, compared with workload.plan
	planDetail   string  // parts of the plan that vary a little from run to run (cache split)
	static       map[string]float64
	digest       string
	close        func()
}

// traced runs operation i as a root span and re-issues it through the layers.
func (inst *instance) traced(ctx context.Context, rec *recorder, req, i int) (rows int, err error) {
	if inst.mark != nil {
		inst.mark()
	}
	root := rec.begin(req, 0, inst.root)
	rows, err = inst.op(ctx, 0, i)
	rec.end(root)
	if err != nil {
		return 0, err
	}
	return rows, inst.layers(ctx, rec, req, root, i)
}

// stopwatch accumulates the time of the set-up steps that belong to the
// program, leaving out the benchmark's own input generation in between.
type stopwatch struct{ ns int64 }

func (s *stopwatch) run(fn func() error) error {
	t0 := now()
	err := fn()
	s.ns += now() - t0
	return err
}

// built is a pipeline that has been assembled and optimized.
type built struct {
	b   *pipeline.Benchmark
	o   *core.Optimized
	rep *core.Report
}

func buildPipeline(ctx context.Context, sw *stopwatch, inst *instance, name string, backend pipeline.Backend, opts core.Options) (*built, error) {
	p := &built{}
	t0 := now()
	err := sw.run(func() (err error) {
		p.b, err = pipeline.ByName(name, pipeline.Config{Seed: dataSeed, N: datasetRows, Backend: backend})
		return err
	})
	if err != nil {
		return nil, err
	}
	t1 := now()
	err = sw.run(func() (err error) {
		p.o, p.rep, err = core.Optimize(ctx, p.b.Pipeline, p.b.Train, p.b.Valid, opts)
		return err
	})
	if err != nil {
		p.b.Close()
		return nil, err
	}
	inst.buildS = float64(t1-t0) / 1e9
	inst.optimizeS = float64(now()-t1) / 1e9
	inst.reportOptS = p.rep.OptimizeTime.Seconds()
	return p, nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkRow compares one prediction against the per-test-row reference.
func checkRow(got float64, want []float64, row int) error {
	if !sameBits(got, want[row]) {
		return fmt.Errorf("row %d: got %v, reference %v", row, got, want[row])
	}
	return nil
}

// checkRows compares a reply against the per-test-row reference.
func checkRows(got []float64, want []float64, rows []int) error {
	if len(got) != len(rows) {
		return fmt.Errorf("reply has %d predictions for %d rows", len(got), len(rows))
	}
	for j, r := range rows {
		if err := checkRow(got[j], want, r); err != nil {
			return err
		}
	}
	return nil
}

// pointInputs splits a data set into single-row requests.
func pointInputs(d core.Dataset) []map[string]value.Value {
	out := make([]map[string]value.Value, d.Len())
	for i := range out {
		out[i] = d.Row(i).Inputs
	}
	return out
}

// drawStream draws the row served by each point query.
func drawStream(rng *rand.Rand, n int, dg *digest) []int {
	s := make([]int, pointStream)
	for i := range s {
		s[i] = rng.Intn(n)
	}
	dg.ints(s...)
	return s
}

// cascadeRefs holds the per-test-row references of a cascaded pipeline.
type cascadeRefs struct {
	served []float64 // cascade output
	full   []float64 // PredictFull
	small  []float64 // small model alone
	hard   []bool    // the cascade sends the row to the full model
	stats  cascade.ServeStats
}

func newCascadeRefs(ctx context.Context, p *built) (*cascadeRefs, error) {
	r := &cascadeRefs{}
	var err error
	in := p.b.Test.Inputs
	if r.served, r.stats, err = p.o.PredictBatchOptions(ctx, in, core.PredictOptions{}); err != nil {
		return nil, err
	}
	if r.full, err = p.o.PredictFull(ctx, in); err != nil {
		return nil, err
	}
	if r.small, err = p.o.Approx.SmallOnlyPredict(ctx, in); err != nil {
		return nil, err
	}
	r.hard = make([]bool, len(r.small))
	for i, s := range r.small {
		r.hard[i] = !(model.Confidence(s) > p.o.Cascade.Threshold)
	}
	return r, nil
}

// cascadeGate checks, on a seeded sample of test rows, that the compiled
// full path is bit-equal to the interpreted one, that rows the cascade sends
// to the full model equal PredictFull, and that the rest equal the small
// model.
func cascadeGate(p *built, r *cascadeRefs, sample []int) func(context.Context) (int, int, error) {
	return func(ctx context.Context) (checked, wrong int, err error) {
		in := p.b.Test.Gather(sample).Inputs
		interp, err := p.o.PredictInterpreted(ctx, in)
		if err != nil {
			return 0, 0, err
		}
		served, err := p.o.PredictBatch(ctx, in)
		if err != nil {
			return 0, 0, err
		}
		for j, row := range sample {
			want := r.small[row]
			if r.hard[row] {
				want = r.full[row]
			}
			if !sameBits(interp[j], r.full[row]) || !sameBits(served[j], want) {
				wrong++
			}
		}
		return len(sample), wrong, nil
	}
}

func cascadeQuality(inst *instance, p *built, r *cascadeRefs) {
	inst.quality = model.Accuracy(r.served, p.b.Test.Y)
	inst.accuracyLoss = model.Accuracy(r.full, p.b.Test.Y) - inst.quality
	inst.static = map[string]float64{
		"cascade.small_only_frac": float64(r.stats.SmallOnly) / float64(r.stats.Total),
		"cascade.full_rows":       float64(r.stats.Cascaded),
		"cascade.threshold":       p.rep.CascadeThreshold,
		"cascade.efficient_ifvs":  float64(len(p.rep.EfficientIFVs)),
	}
}

func gateSample(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed ^ 0x6a7e)).Perm(n)[:gateRows]
}

func setupToxic(ctx context.Context, seed int64, point bool) (*instance, error) {
	inst := &instance{callers: 1, batch: !point}
	var sw stopwatch
	p, err := buildPipeline(ctx, &sw, inst, "toxic", pipeline.LocalBackend{}, core.Options{Cascades: true})
	if err != nil {
		return nil, err
	}
	inst.close = func() { p.b.Close() }
	if p.o.Cascade == nil {
		return nil, fmt.Errorf("toxic: no cascade was built")
	}
	n := p.b.Test.Len()
	rng := rand.New(rand.NewSource(seed))
	dg := newDigest()
	var refs *cascadeRefs // set below, before any reply is checked

	if point {
		inputs := pointInputs(p.b.Test)
		stream := drawStream(rng, n, dg)
		run := func(ctx context.Context, i int) (float64, error) {
			return p.o.PredictPoint(ctx, inputs[stream[i%len(stream)]])
		}
		check := func(i int, got float64) error { return checkRow(got, refs.served, stream[i%len(stream)]) }
		var first float64
		if err := sw.run(func() (err error) { first, err = run(ctx, 0); return err }); err != nil {
			return nil, err
		}
		if refs, err = newCascadeRefs(ctx, p); err != nil {
			return nil, err
		}
		if err := check(0, first); err != nil {
			return nil, fmt.Errorf("first reply: %w", err)
		}
		inst.op = func(ctx context.Context, _, i int) (int, error) {
			got, err := run(ctx, i)
			if err != nil {
				return 0, err
			}
			return 1, check(i, got)
		}
		inst.root = "core.predict_point"
		inst.layers = func(ctx context.Context, rec *recorder, req, root, i int) error {
			return cascadePointLayers(ctx, rec, req, root, p.o, inputs[stream[i%len(stream)]])
		}
	} else {
		type batch struct {
			rows []int
			in   map[string]value.Value
		}
		pool := make([]batch, batchPool)
		for k := range pool {
			rows := rng.Perm(n)[:batchRows]
			dg.ints(rows...)
			pool[k] = batch{rows, p.b.Test.Gather(rows).Inputs}
		}
		var first []float64
		if err := sw.run(func() (err error) { first, err = p.o.PredictBatch(ctx, pool[0].in); return err }); err != nil {
			return nil, err
		}
		if refs, err = newCascadeRefs(ctx, p); err != nil {
			return nil, err
		}
		if err := checkRows(first, refs.served, pool[0].rows); err != nil {
			return nil, fmt.Errorf("first reply: %w", err)
		}
		inst.op = func(ctx context.Context, _, i int) (int, error) {
			b := pool[i%len(pool)]
			got, err := p.o.PredictBatch(ctx, b.in)
			if err != nil {
				return 0, err
			}
			return len(b.rows), checkRows(got, refs.served, b.rows)
		}
		inst.root = "core.predict_batch"
		inst.layers = func(ctx context.Context, rec *recorder, req, root, i int) error {
			return cascadeBatchLayers(ctx, rec, req, root, p.o, pool[i%len(pool)].in)
		}
	}
	inst.setupS = float64(sw.ns) / 1e9
	inst.gate = cascadeGate(p, refs, gateSample(seed, n))
	cascadeQuality(inst, p, refs)
	inst.plan = fmt.Sprintf("efficient=%v threshold=%g", p.rep.EfficientIFVs, p.rep.CascadeThreshold)
	inst.digest = dg.String()
	return inst, nil
}

// remoteBackend is a pipeline.Backend that puts every table on its own
// kvstore server with injected latency, reached through the production
// store client with hedging on.
type remoteBackend struct {
	ctx     context.Context
	names   []string
	sizes   []int // keys per table
	servers []*kvstore.Server
	clients []*store.Client
}

func (b *remoteBackend) Table(name string, dim int, rows map[int64][]float64) (ops.Table, error) {
	srv := kvstore.NewServer(dim, storeLatency)
	if err := srv.Load(rows); err != nil {
		return nil, err
	}
	addr, err := srv.Start()
	if err != nil {
		return nil, err
	}
	b.names = append(b.names, name)
	b.sizes = append(b.sizes, len(rows))
	b.servers = append(b.servers, srv)
	cli, err := store.Dial(b.ctx, store.Config{Addr: addr, ExpectDim: dim, Hedge: true})
	if err != nil {
		return nil, err
	}
	b.clients = append(b.clients, cli)
	return cli, nil
}

func (b *remoteBackend) Close() error {
	for _, c := range b.clients {
		c.Close()
	}
	for _, s := range b.servers {
		s.Close()
	}
	return nil
}

func (b *remoteBackend) requests() (total int64) {
	for _, s := range b.servers {
		total += s.Requests()
	}
	return total
}

func setupMusic(ctx context.Context, seed int64) (*instance, error) {
	inst := &instance{callers: 2}
	var sw stopwatch
	backend := &remoteBackend{ctx: ctx}
	p, err := buildPipeline(ctx, &sw, inst, "music", backend, core.Options{
		Cascades: true, AccuracyTarget: musicTarget, FeatureCache: true, FeatureCacheBudget: cacheBudget,
	})
	if err != nil {
		backend.Close()
		return nil, err
	}
	inst.close = func() { p.b.Close() }
	if p.o.Cascade == nil {
		return nil, fmt.Errorf("music: no cascade was built")
	}
	n := p.b.Test.Len()
	rng := rand.New(rand.NewSource(seed))
	dg := newDigest()
	// Requests are drawn over the tables' whole key spaces (users and songs
	// Zipfian, the rest uniform), not from the 2400 test rows, whose ~1.2 k
	// distinct keys would nearly fit the 1024-entry cache: the stream must
	// overflow it so that hits, fills and evictions all occur and most
	// requests pay at least one round trip.
	cols := map[string]value.Value{}
	for t, name := range backend.names {
		keys := make([]int64, musicRequests)
		var z *rand.Zipf
		if s, ok := musicZipf[name]; ok {
			z = rand.NewZipf(rng, s, musicZipfV, uint64(backend.sizes[t]-1))
		}
		for i := range keys {
			if z != nil {
				keys[i] = int64(z.Uint64())
			} else {
				keys[i] = rng.Int63n(int64(backend.sizes[t]))
			}
			dg.ints(int(keys[i]))
		}
		cols[tableColumn(name)] = value.NewInts(keys)
	}
	inputs := pointInputs(core.Dataset{Inputs: cols})
	var want []float64 // batch-path prediction of every request
	run := func(ctx context.Context, i int) (float64, error) {
		return p.o.PredictPoint(ctx, inputs[i%len(inputs)])
	}
	check := func(i int, got float64) error { return checkRow(got, want, i%len(inputs)) }
	var first float64
	if err := sw.run(func() (err error) { first, err = run(ctx, 0); return err }); err != nil {
		return nil, err
	}
	refs, err := newCascadeRefs(ctx, p)
	if err != nil {
		return nil, err
	}
	if want, err = p.o.PredictBatch(ctx, cols); err != nil {
		return nil, err
	}
	if err := check(0, first); err != nil {
		return nil, fmt.Errorf("first reply: %w", err)
	}
	inst.op = func(ctx context.Context, _, i int) (int, error) {
		got, err := run(ctx, i)
		if err != nil {
			return 0, err
		}
		return 1, check(i, got)
	}
	layers := newMusicLayers(backend, inputs)
	inst.root, inst.mark, inst.layers = "core.predict_point", layers.mark, layers.reissue
	inst.setupS = float64(sw.ns) / 1e9
	inst.gate = cascadeGate(p, refs, gateSample(seed, n))
	cascadeQuality(inst, p, refs)
	distinct := make(map[[2]int64]struct{})
	for _, in := range inputs {
		for t, col := range layers.cols {
			distinct[[2]int64{int64(t), in[col].Ints[0]}] = struct{}{}
		}
	}
	inst.static["bench.distinct_keys"] = float64(len(distinct))
	var split []string
	for _, st := range p.rep.CachePlan {
		if st.Cached {
			split = append(split, fmt.Sprintf("ifv%d:%d", st.IFV, st.Capacity))
		}
	}
	inst.plan = fmt.Sprintf("efficient=%v threshold=%g", p.rep.EfficientIFVs, p.rep.CascadeThreshold)
	inst.planDetail = fmt.Sprintf("cache=[%s]", strings.Join(split, " "))
	inst.digest = dg.String()

	inst.layerMetrics = func(l map[string]float64) {
		slices.Sort(layers.lookupNs)
		l["store.lookup_p50_us"] = float64(percentile(layers.lookupNs, 50)) / 1e3
		l["store.lookup_p99_us"] = float64(percentile(layers.lookupNs, min(99, supportedTail(len(layers.lookupNs))))) / 1e3
		l["cache.probe_ns"], l["cache.fill_ns"] = layers.cacheMicro()
	}

	var cache0 cache.Stats
	var store0 ops.StoreStats
	var req0 int64
	inst.counters = func(reset bool, queries int) map[string]float64 {
		cs, _ := p.o.FeatureCacheStats()
		ss, _ := p.o.FeatureStoreStats()
		reqs := backend.requests()
		if reset {
			cache0, store0, req0 = cs, ss, reqs
			return nil
		}
		q := float64(max(queries, 1))
		hits, misses := cs.Hits-cache0.Hits, cs.Misses-cache0.Misses
		out := map[string]float64{
			"cache.evictions_per_query":  float64(cs.Evictions-cache0.Evictions) / q,
			"cache.coalesced_per_query":  float64(cs.Coalesced-cache0.Coalesced) / q,
			"store.requests_per_query":   float64(ss.Requests-store0.Requests) / q,
			"store.retries":              float64(ss.Retries - store0.Retries),
			"store.hedges_issued":        float64(ss.HedgesIssued - store0.HedgesIssued),
			"store.hedges_won":           float64(ss.HedgesWon - store0.HedgesWon),
			"store.degraded":             float64(ss.Degraded - store0.Degraded),
			"kvstore.requests_per_query": float64(reqs-req0) / q,
		}
		if hits+misses > 0 {
			out["cache.hit_frac"] = float64(hits) / float64(hits+misses)
		}
		return out
	}
	return inst, nil
}

func setupProduct(ctx context.Context, seed int64) (*instance, error) {
	inst := &instance{callers: 1, batch: true, accuracyLoss: math.NaN()}
	var sw stopwatch
	p, err := buildPipeline(ctx, &sw, inst, "product", pipeline.LocalBackend{}, core.Options{TopK: true})
	if err != nil {
		return nil, err
	}
	inst.close = func() { p.b.Close() }
	n := p.b.Test.Len()
	rng := rand.New(rand.NewSource(seed))
	dg := newDigest()
	type query struct {
		rows   []int
		in     map[string]value.Value
		served []int     // reference: the filter's answer at set-up
		scores []float64 // full-model score of every candidate
	}
	pool := make([]query, candidateSet)
	for k := range pool {
		rows := rng.Perm(n)[:candidates]
		dg.ints(rows...)
		pool[k].rows, pool[k].in = rows, p.b.Test.Gather(rows).Inputs
	}
	var first []int
	if err := sw.run(func() (err error) { first, err = p.o.TopK(ctx, pool[0].in, topK); return err }); err != nil {
		return nil, err
	}
	// The reply must list topK distinct candidates in descending full-model
	// score order (ties by index): the re-rank is the full model's.
	check := func(q *query, got []int) error {
		if len(got) != topK {
			return fmt.Errorf("top-K reply has %d rows, want %d", len(got), topK)
		}
		for j, g := range got {
			if g < 0 || g >= candidates {
				return fmt.Errorf("top-K reply names row %d of %d", g, candidates)
			}
			if q.served != nil && g != q.served[j] {
				return fmt.Errorf("top-K rank %d: got row %d, reference %d", j, g, q.served[j])
			}
			if j > 0 {
				a, b := q.scores[got[j-1]], q.scores[g]
				if a < b || (a == b && got[j-1] >= g) {
					return fmt.Errorf("top-K ranks %d,%d are not in full-model order", j-1, j)
				}
			}
		}
		return nil
	}
	// The full model scores a row the same in whatever batch it arrives, so
	// one exact pass over the test split gives every candidate set's scores.
	_, testScores, err := p.o.TopKExact(ctx, p.b.Test.Inputs, topK)
	if err != nil {
		return nil, err
	}
	for k := range pool {
		q := &pool[k]
		q.scores = make([]float64, candidates)
		for j, r := range q.rows {
			q.scores[j] = testScores[r]
		}
		served := first
		if k > 0 {
			if served, err = p.o.TopK(ctx, q.in, topK); err != nil {
				return nil, err
			}
		}
		if err := check(q, served); err != nil {
			return nil, fmt.Errorf("candidate set %d: %w", k, err)
		}
		q.served = served
	}
	subset := p.o.Filter.SubsetSize(candidates, topK)
	// Quality is a property of the filter, not of the request stream: it is
	// the precision against TopKExact over candidate sets that do not depend
	// on --seed, computed once per run.
	inst.evaluate = func(ctx context.Context) error {
		rng := rand.New(rand.NewSource(dataSeed))
		var hits int
		scores := make([]float64, candidates)
		for k := 0; k < qualitySets; k++ {
			rows := rng.Perm(n)[:candidates]
			for j, r := range rows {
				scores[j] = testScores[r]
			}
			exact := topk.TopIndices(scores, topK) // as TopKExact ranks them
			served, err := p.o.TopK(ctx, p.b.Test.Gather(rows).Inputs, topK)
			if err != nil {
				return err
			}
			for _, s := range served {
				if slices.Contains(exact, s) {
					hits++
				}
			}
		}
		inst.quality = float64(hits) / float64(qualitySets*topK)
		inst.static = map[string]float64{
			"topk.subset_frac": float64(subset) / candidates,
			"topk.precision":   inst.quality,
		}
		return nil
	}
	inst.op = func(ctx context.Context, _, i int) (int, error) {
		q := &pool[i%len(pool)]
		got, err := p.o.TopK(ctx, q.in, topK)
		if err != nil {
			return 0, err
		}
		return candidates, check(q, got)
	}
	inst.root = "core.topk"
	inst.layers = func(ctx context.Context, rec *recorder, req, root, i int) error {
		return topKLayers(ctx, rec, req, root, p.o, pool[i%len(pool)].in)
	}
	// Gate: compiled full path bit-equal to the interpreted one.
	sample := gateSample(seed, n)
	inst.gate = func(ctx context.Context) (int, int, error) {
		return compiledGate(ctx, p, sample)
	}
	inst.setupS = float64(sw.ns) / 1e9
	inst.plan = fmt.Sprintf("efficient=%v subset=%d", p.rep.EfficientIFVs, subset)
	inst.digest = dg.String()
	return inst, nil
}

// compiledGate checks PredictFull against PredictInterpreted on the sample.
func compiledGate(ctx context.Context, p *built, sample []int) (checked, wrong int, err error) {
	in := p.b.Test.Gather(sample).Inputs
	interp, err := p.o.PredictInterpreted(ctx, in)
	if err != nil {
		return 0, 0, err
	}
	full, err := p.o.PredictFull(ctx, in)
	if err != nil {
		return 0, 0, err
	}
	for j := range sample {
		if !sameBits(interp[j], full[j]) {
			wrong++
		}
	}
	return len(sample), wrong, nil
}

// countingTransport counts the bytes of every request and reply body.
type countingTransport struct {
	next  http.RoundTripper
	bytes atomic.Int64
	reqs  atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.reqs.Add(1)
	t.bytes.Add(r.ContentLength)
	resp, err := t.next.RoundTrip(r)
	if err == nil && resp.ContentLength > 0 {
		t.bytes.Add(resp.ContentLength)
	}
	return resp, err
}

// httpLoad is what the open-loop driver needs from the serving workload.
type httpLoad struct {
	send   func(ctx context.Context, i int) error
	o      *core.Optimized // answers the same rows in process
	inputs []map[string]value.Value
	stream []int
	reg    *serving.Registry
	rt     *countingTransport
	seed   int64
}

func setupHTTP(ctx context.Context, seed int64) (*instance, error) {
	inst := &instance{callers: httpConns, accuracyLoss: math.NaN()}
	var sw stopwatch
	p, err := buildPipeline(ctx, &sw, inst, "credit", pipeline.LocalBackend{}, core.Options{})
	if err != nil {
		return nil, err
	}
	var srv *serving.Server
	var client *serving.Client
	reg := serving.NewRegistry(serving.Options{})
	rt := &countingTransport{next: &http.Transport{MaxConnsPerHost: httpConns, MaxIdleConnsPerHost: httpConns}}
	err = sw.run(func() error {
		if err := reg.Deploy(httpModel, "v1", p.o); err != nil {
			return err
		}
		srv = serving.NewRegistryServer(reg)
		url, err := srv.Start()
		if err != nil {
			return err
		}
		client = serving.NewClient(url, serving.WithHTTPClient(&http.Client{Transport: rt, Timeout: 10 * time.Second}))
		return nil
	})
	inst.close = func() {
		if srv != nil {
			srv.Close()
		} else {
			reg.Close(ctx)
		}
		rt.next.(*http.Transport).CloseIdleConnections()
		p.b.Close()
	}
	if err != nil {
		inst.close()
		return nil, err
	}
	n := p.b.Test.Len()
	rng := rand.New(rand.NewSource(seed))
	dg := newDigest()
	inputs := pointInputs(p.b.Test)
	stream := drawStream(rng, n, dg)
	var want []float64 // in-process PredictBatch per test row
	run := func(ctx context.Context, i int) ([]float64, error) {
		return client.PredictModel(ctx, httpModel, inputs[stream[i%len(stream)]])
	}
	check := func(i int, got []float64) error {
		return checkRows(got, want, stream[i%len(stream):i%len(stream)+1])
	}
	var first []float64
	if err := sw.run(func() (err error) { first, err = run(ctx, 0); return err }); err != nil {
		inst.close()
		return nil, err
	}
	if want, err = p.o.PredictBatch(ctx, p.b.Test.Inputs); err != nil {
		inst.close()
		return nil, err
	}
	if err := check(0, first); err != nil {
		inst.close()
		return nil, fmt.Errorf("first reply: %w", err)
	}
	send := func(ctx context.Context, i int) error {
		got, err := run(ctx, i)
		if err != nil {
			return err
		}
		return check(i, got)
	}
	inst.op = func(ctx context.Context, _, i int) (int, error) { return 1, send(ctx, i) }
	inst.http = &httpLoad{send: send, o: p.o, inputs: inputs, stream: stream, reg: reg, rt: rt, seed: seed}
	sample := gateSample(seed, n)
	inst.gate = func(ctx context.Context) (int, int, error) {
		// Compiled vs interpreted, then the whole sample as one HTTP batch
		// against in-process PredictBatch.
		checked, wrong, err := compiledGate(ctx, p, sample)
		if err != nil {
			return 0, 0, err
		}
		got, err := client.PredictModel(ctx, httpModel, p.b.Test.Gather(sample).Inputs)
		if err != nil {
			return 0, 0, err
		}
		if err := checkRows(got, want, sample); err != nil {
			wrong++
		}
		return checked + 1, wrong, nil
	}
	// Quality of a regression served without a cascade: 1 - test MSE / label
	// variance (R^2), identical for the served and the full path.
	inst.quality = rSquared(want, p.b.Test.Y)
	inst.setupS = float64(sw.ns) / 1e9
	inst.plan = "none"
	inst.digest = dg.String()
	return inst, nil
}

func rSquared(pred, y []float64) float64 {
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var ssRes, ssTot float64
	for i, v := range y {
		ssRes += (v - pred[i]) * (v - pred[i])
		ssTot += (v - mean) * (v - mean)
	}
	return 1 - ssRes/ssTot
}

package main

// Re-issue of a traced operation's input through the layers' public
// functions. Each helper mirrors what the served path did for that input,
// one span per call into a layer, all children of the operation's root span;
// what the root spent outside them is its self time.

import (
	"context"
	"sync"

	"willump/internal/cache"
	"willump/internal/core"
	"willump/internal/model"
	"willump/internal/store"
	"willump/internal/topk"
	"willump/internal/value"
)

// cascadeBatchLayers mirrors cascade batch serving: efficient features and
// the small model on every row, remaining features and the full model on the
// rows the small model is not confident about.
func cascadeBatchLayers(ctx context.Context, rec *recorder, req, root int, o *core.Optimized, in map[string]value.Value) error {
	a, prog := o.Approx, o.Approx.Prog
	id := rec.begin(req, root, "weld.batch_features")
	run, err := prog.NewRun(ctx, in)
	if err != nil {
		return err
	}
	defer run.Close()
	effX, err := run.MatrixShared(a.Efficient)
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin(req, root, "model.small_score")
	small := a.Small.Predict(effX)
	rec.end(id)

	id = rec.begin(req, root, "cascade.route")
	hard := make([]int, 0, len(small))
	for i, p := range small {
		if !(model.Confidence(p) > o.Cascade.Threshold) {
			hard = append(hard, i)
		}
	}
	rec.end(id)
	if len(hard) == 0 {
		return nil
	}
	id = rec.begin(req, root, "weld.batch_features_rest")
	sub := run.SubsetRun(hard)
	defer sub.Close()
	fullX, err := sub.MatrixShared(prog.AllIFVs())
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin(req, root, "model.score")
	o.Model.Predict(fullX)
	rec.end(id)
	return nil
}

// cascadePointLayers mirrors cascade point serving on the pooled point path.
func cascadePointLayers(ctx context.Context, rec *recorder, req, root int, o *core.Optimized, in map[string]value.Value) error {
	a, prog := o.Approx, o.Approx.Prog
	s := model.GetScratch()
	defer model.PutScratch(s)
	id := rec.begin(req, root, "weld.point_features")
	run, err := prog.NewRun(ctx, in)
	if err != nil {
		return err
	}
	defer run.Close()
	effX, err := run.PointMatrix(a.Efficient)
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin(req, root, "model.small_score")
	p := model.ScoreRow(a.Small, effX, 0, s)
	rec.end(id)
	if model.Confidence(p) > o.Cascade.Threshold {
		return nil
	}
	id = rec.begin(req, root, "weld.point_features_rest")
	fullX, err := run.PointMatrix(prog.AllIFVs())
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin(req, root, "model.score")
	model.ScoreRow(o.Model, fullX, 0, s)
	rec.end(id)
	return nil
}

// topKLayers mirrors filtered top-K serving: efficient features, the filter
// model and its candidate selection, then full features and the full model
// on the kept subset and the final ranking.
func topKLayers(ctx context.Context, rec *recorder, req, root int, o *core.Optimized, in map[string]value.Value) error {
	a, prog := o.Approx, o.Approx.Prog
	id := rec.begin(req, root, "weld.batch_features")
	run, err := prog.NewRun(ctx, in)
	if err != nil {
		return err
	}
	defer run.Close()
	effX, err := run.MatrixShared(a.Efficient)
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin(req, root, "model.small_score")
	approx := a.Small.Predict(effX)
	rec.end(id)
	id = rec.begin(req, root, "topk.filter")
	kept := topk.TopIndices(approx, o.Filter.SubsetSize(len(approx), topK))
	rec.end(id)

	id = rec.begin(req, root, "weld.batch_features_rest")
	sub := run.SubsetRun(kept)
	defer sub.Close()
	fullX, err := sub.MatrixShared(prog.AllIFVs())
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin(req, root, "model.score")
	full := o.Model.Predict(fullX)
	rec.end(id)
	id = rec.begin(req, root, "topk.rerank")
	topk.TopIndices(full, topK)
	rec.end(id)
	return nil
}

// predictBatchLayers mirrors the compiled, uncascaded batch path (the credit
// pipeline behind the serving tier): features, then the model.
func predictBatchLayers(ctx context.Context, rec *recorder, req, parent int, o *core.Optimized, in map[string]value.Value) error {
	id := rec.begin(req, parent, "weld.batch_features")
	x, err := o.Features(ctx, in)
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin(req, parent, "model.score")
	o.Model.Predict(x)
	rec.end(id)
	return nil
}

// musicLayers re-issues a music request's remote and cache work. The served
// path cannot be replayed through the pipeline (the root call has just
// filled the feature cache), so the benchmark watches each table server's
// request counter across the root call, looks the row's keys up again on
// exactly the tables that were contacted — concurrently, as the pipeline's
// prefetch does, so the span lasts as long as the slowest — and replays the
// row's keys against a private cache of the same budget.
type musicLayers struct {
	servers []interface{ Requests() int64 }
	clients []*store.Client
	cols    []string // input column keyed by each table, in table order
	inputs  []map[string]value.Value
	before  []int64 // request counts at mark
	local   *cache.Sharded
	keyBuf  []byte
	vec     []float64
	// lookupNs collects every directly issued store lookup, for the store's
	// own p50/p99.
	lookupNs []int64
}

func newMusicLayers(b *remoteBackend, inputs []map[string]value.Value) *musicLayers {
	l := &musicLayers{clients: b.clients, inputs: inputs,
		local: cache.NewSharded(cacheBudget, 0), vec: make([]float64, 16)}
	for i, name := range b.names {
		l.servers = append(l.servers, b.servers[i])
		l.cols = append(l.cols, tableColumn(name))
	}
	return l
}

// mark notes every table server's request count, just before a root call.
func (l *musicLayers) mark() {
	l.before = l.before[:0]
	for _, s := range l.servers {
		l.before = append(l.before, s.Requests())
	}
}

func (l *musicLayers) reissue(ctx context.Context, rec *recorder, req, root, i int) error {
	in := l.inputs[i%len(l.inputs)]
	var contacted []int
	for t, s := range l.servers {
		if s.Requests() > l.before[t] {
			contacted = append(contacted, t)
		}
	}
	if len(contacted) > 0 {
		durs := make([]int64, len(contacted))
		errs := make([]error, len(contacted))
		var wg sync.WaitGroup
		id := rec.begin(req, root, "store.lookup")
		for j, t := range contacted {
			wg.Add(1)
			go func(j, t int) {
				defer wg.Done()
				t0 := now()
				_, errs[j] = l.clients[t].LookupBatchCtx(ctx, in[l.cols[t]].Ints)
				durs[j] = now() - t0
			}(j, t)
		}
		wg.Wait()
		rec.end(id)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		l.lookupNs = append(l.lookupNs, durs...)
	}
	// One probe per table against the private cache; a miss is filled.
	probe := rec.begin(req, root, "cache.probe")
	var missed []int
	for t, col := range l.cols {
		if !l.local.CopyInto(l.key(t, in[col])) {
			missed = append(missed, t)
		}
	}
	rec.end(probe)
	fill := rec.begin(req, root, "cache.fill")
	for _, t := range missed {
		h, k, _ := l.key(t, in[l.cols[t]])
		l.local.Put(h, k, l.vec[:8])
	}
	rec.end(fill)
	return nil
}

func (l *musicLayers) key(table int, col value.Value) (uint64, []byte, []float64) {
	l.keyBuf = append(l.keyBuf[:0], byte(table))
	l.keyBuf = cache.AppendRowKey(l.keyBuf, []value.Value{col}, 0)
	return cache.Hash64(l.keyBuf), l.keyBuf, l.vec[:8]
}

// cacheMicro times cache.Sharded.Put and CopyInto over the workload's own
// key stream on one goroutine, in bulk so the clock is read twice per pass
// rather than twice per 50 ns call.
func (l *musicLayers) cacheMicro() (probeNs, fillNs float64) {
	c := cache.NewSharded(cacheBudget, 0)
	col := l.cols[0]
	type hk struct {
		h uint64
		k []byte
	}
	keys := make([]hk, len(l.inputs))
	for i, in := range l.inputs {
		k := cache.AppendRowKey(nil, []value.Value{in[col]}, 0)
		keys[i] = hk{cache.Hash64(k), k}
	}
	val := make([]float64, 8)
	t0 := now()
	for _, k := range keys {
		c.Put(k.h, k.k, val)
	}
	t1 := now()
	for _, k := range keys {
		c.CopyInto(k.h, k.k, val)
	}
	t2 := now()
	n := float64(len(keys))
	return float64(t2-t1) / n, float64(t1-t0) / n
}

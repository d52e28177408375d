package main

// How each kind of run spends its --seconds, and which metric names it
// reports. The lists here and BENCHMARK.json must agree (contract_test.go).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// metricSpec names one reported metric.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"rows_per_s", "1/s", "higher"},
	{"p50_us", "us", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"heap_mb", "MiB", "lower"},
	{"quality", "ratio", "higher"},
}

// perLayer are the metrics of single layers, reported with --trace 1. A
// metric that does not apply to a workload reads 0 there.
var perLayer = []metricSpec{
	{"pipeline.build_s", "s", "lower"},
	{"core.optimize_s", "s", "lower"},
	{"core.report_optimize_s", "s", "lower"},
	{"core.predict_self_us", "us", "lower"},
	{"weld.batch_features_us_per_row", "us", "lower"},
	{"weld.point_features_us", "us", "lower"},
	{"model.score_us_per_row", "us", "lower"},
	{"model.small_score_us_per_row", "us", "lower"},
	{"cascade.small_only_frac", "ratio", "higher"},
	{"cascade.full_rows", "count", "lower"},
	{"cascade.threshold", "ratio", "lower"},
	{"cascade.efficient_ifvs", "count", "lower"},
	{"topk.subset_frac", "ratio", "lower"},
	{"topk.filter_us_per_row", "us", "lower"},
	{"topk.rerank_us_per_row", "us", "lower"},
	{"topk.precision", "ratio", "higher"},
	{"cache.hit_frac", "ratio", "higher"},
	{"cache.evictions_per_query", "count", "lower"},
	{"cache.coalesced_per_query", "count", "higher"},
	{"cache.probe_ns", "ns", "lower"},
	{"cache.fill_ns", "ns", "lower"},
	{"store.lookup_p50_us", "us", "lower"},
	{"store.lookup_p99_us", "us", "lower"},
	{"store.requests_per_query", "count", "lower"},
	{"store.retries", "count", "lower"},
	{"store.hedges_issued", "count", "lower"},
	{"store.hedges_won", "count", "higher"},
	{"store.degraded", "count", "lower"},
	{"kvstore.requests_per_query", "count", "lower"},
	{"serving.client_rtt_p50_us", "us", "lower"},
	{"serving.server_p50_us", "us", "lower"},
	{"serving.server_p99_us", "us", "lower"},
	{"serving.transport_self_us", "us", "lower"},
	{"serving.tier_self_us", "us", "lower"},
	{"serving.wire_bytes_per_req", "count", "lower"},
	{"serving.sat_qps", "1/s", "higher"},
	{"serving.p99_us_r2000", "us", "lower"},
	{"serving.p99_us_r4000", "us", "lower"},
	{"serving.max_rate_qps", "1/s", "higher"},
	{"serving.rejected", "count", "lower"},
	{"serving.errors", "count", "lower"},
	{"waterfall.weld_frac", "ratio", "lower"},
	{"waterfall.model_frac", "ratio", "lower"},
	{"waterfall.core_frac", "ratio", "lower"},
	{"waterfall.cascade_frac", "ratio", "lower"},
	{"waterfall.topk_frac", "ratio", "lower"},
	{"waterfall.cache_frac", "ratio", "lower"},
	{"waterfall.store_frac", "ratio", "lower"},
	{"waterfall.serving_frac", "ratio", "lower"},
	{"bench.traced_ops", "count", "higher"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
	{"bench.sched_lag_p99_us", "us", "lower"},
	{"bench.ladder_valid", "count", "higher"},
	{"bench.gc_cycles", "count", "lower"},
	{"bench.gc_pause_ms", "ms", "lower"},
	{"bench.p99_us", "us", "lower"},
	{"bench.accuracy_loss", "ratio", "lower"},
	{"bench.distinct_keys", "count", "higher"},
}

// measured is an untraced measurement reduced to the reported numbers.
// rowsPerS, p50us and p99us are at nominal machine speed when the windows
// were calibrated; the raw ones are always as measured.
type measured struct {
	rowsPerS, p50us, p99us          float64
	rawRowsPerS, rawP50us, rawP99us float64
	samples, windows                int // timed calls, and the windows they fell in
	pooled                          bool
	attempted, failed               int
	firstErr                        error
	mem                             memDelta // over the timed windows
	memOps                          int      // calls those windows completed
	speed, cpuShare                 float64  // means over the windows; speed is 0 when not calibrated
}

func (m measured) allocsPerOp() float64 {
	return float64(m.mem.mallocs) / float64(max(m.memOps, 1))
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// driveClosed spends total seconds on a closed loop against inst: a warm-up
// and n timed windows, all of the same length. When calibrated, the
// calibration slices between the windows come on top of total.
func driveClosed(ctx context.Context, inst *instance, total float64, n int, calibrated bool) closedResult {
	slot := seconds(total / float64(n+1))
	return closedLoop(ctx, inst.callers, slot, slot, n, inst.op, calibrated)
}

// summarise reduces the windows of a closed-loop measurement to the reported
// numbers.
func summarise(r closedResult) measured {
	m := measured{attempted: r.attempted, failed: r.failed, firstErr: r.firstErr, mem: r.mem, memOps: r.attempted,
		speed: r.speed(), cpuShare: r.cpuShare()}
	if len(r.wins) == 0 {
		return m
	}
	m.rowsPerS = rowsPerSecond(r.wins)
	m.p50us, m.p99us, m.samples, m.pooled = latencySummary(r.wins)
	m.windows = len(r.wins)
	raw := asMeasured(r.wins)
	m.rawRowsPerS = rowsPerSecond(raw)
	m.rawP50us, m.rawP99us, _, _ = latencySummary(raw)
	return m
}

// measureClosed drives one instance, uncalibrated, for total seconds and
// `windows` windows: the closed-loop passes of a traced run.
func measureClosed(ctx context.Context, inst *instance, total float64) measured {
	return summarise(driveClosed(ctx, inst, total, windows, false))
}

// Open-loop rates of the serving workload's traced run. Latency at the first
// is serving.client_rtt_p50_us; the others form the rate ladder.
var rateLadder = []float64{1000, 2000, 4000}

// openPhase runs one open-loop rate for total seconds: one sixth warm-up,
// five windows of one sixth each.
func openPhase(ctx context.Context, h *httpLoad, qps, total float64, send func(context.Context, int) error) rateResult {
	slot := seconds(total / (rateWindows + 1))
	rng := rand.New(rand.NewSource(h.seed*1000003 + int64(qps)))
	sched := poissonSchedule(rng, qps, slot*(rateWindows+1))
	return summariseRate(qps, openLoop(ctx, httpConns, sched, send), slot, slot)
}

// measureLayers fills the per-layer metrics: an untraced pass whose end the
// layers' counters are read at, then the traced pass.
func measureLayers(ctx context.Context, w workload, inst *instance, total float64, outDir string, res *result) error {
	l := res.metrics
	l["pipeline.build_s"] = inst.buildS
	l["core.optimize_s"] = inst.optimizeS
	l["core.report_optimize_s"] = inst.reportOptS
	for k, v := range inst.static {
		l[k] = v
	}
	if !math.IsNaN(inst.accuracyLoss) {
		l["bench.accuracy_loss"] = inst.accuracyLoss
	}
	var rec recorder
	var tr tracedPass
	var untraced measured
	if inst.http != nil {
		untraced, tr = httpLayers(ctx, inst, total, &rec, l)
	} else {
		if inst.counters != nil {
			inst.counters(true, 0)
		}
		untraced = measureClosed(ctx, inst, total/2)
		if inst.counters != nil {
			for k, v := range inst.counters(false, untraced.attempted) {
				l[k] = v
			}
		}
		tr = tracePass(ctx, inst, total/2, &rec)
		if inst.layerMetrics != nil {
			inst.layerMetrics(l)
		}
	}
	res.attempted = untraced.attempted + tr.attempted
	res.failed = untraced.failed + tr.failed
	if untraced.firstErr != nil {
		fmt.Printf("   first failed operation: %v\n", untraced.firstErr)
	}
	if tr.firstErr != nil {
		fmt.Printf("   first failed traced operation: %v\n", tr.firstErr)
	}
	if untraced.attempted == 0 || tr.roots == 0 {
		return fmt.Errorf("no operation was traced in %g s", total)
	}
	l["bench.p99_us"] = untraced.p99us
	l["bench.gc_cycles"] = float64(untraced.mem.gcCycles)
	l["bench.gc_pause_ms"] = float64(untraced.mem.pauseNs) / 1e6
	l["bench.traced_ops"] = float64(tr.roots)
	l["bench.trace_overhead_frac"] = (tr.p50us - untraced.p50us) / untraced.p50us

	spanMetrics(rec.spans, tr, l)
	for module, share := range printWaterfall(w.name, rec.spans) {
		l["waterfall."+module+"_frac"] = share
	}
	if err := writeTrace(outDir, w.name, rec.spans); err != nil {
		return err
	}
	fmt.Printf("   untraced p50 %.3f us, traced p50 %.3f us\n", untraced.p50us, tr.p50us)
	printMetrics(l, perLayer)
	return nil
}

// sampleEvery is the share of operations the traced pass re-issues through
// the layers: 1 in 64, or 1 in 4 for the batch workloads, whose calls are
// three orders of magnitude rarer.
func sampleEvery(inst *instance) int {
	if inst.batch {
		return 4
	}
	return 64
}

// tracedPass is the traced pass's own account.
type tracedPass struct {
	p50us             float64 // root latency of every operation in the pass
	roots, rows       int     // traced operations and the rows they served
	attempted, failed int
	firstErr          error
}

// tracePass drives the workload's closed loop for total seconds; a sampled
// operation runs alone (other callers wait), is recorded as a root span and
// is then re-issued through the layers.
func tracePass(ctx context.Context, inst *instance, total float64, rec *recorder) tracedPass {
	var tp tracedPass
	var mu sync.RWMutex // a traced operation excludes all others
	var next atomic.Int64
	every := sampleEvery(inst)
	deadline := now() + int64(seconds(total))
	lats := make([][]int64, inst.callers)
	var wg sync.WaitGroup
	var once sync.Once
	for c := 0; c < inst.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for now() < deadline {
				i := int(next.Add(1) - 1)
				var err error
				if i%every == 0 {
					mu.Lock()
					first := len(rec.spans)
					var rows int
					rows, err = inst.traced(ctx, rec, i/every+1, i)
					if err == nil {
						root := rec.spans[first]
						lats[c] = append(lats[c], root.End-root.Start)
						tp.roots++
						tp.rows += rows
					} else {
						rec.spans = rec.spans[:first]
					}
					mu.Unlock()
				} else {
					mu.RLock()
					t0 := now()
					_, err = inst.op(ctx, c, i)
					lats[c] = append(lats[c], now()-t0)
					mu.RUnlock()
				}
				if err != nil {
					once.Do(func() { tp.firstErr = err })
					mu.Lock()
					tp.failed++
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	slices.Sort(all)
	tp.attempted = int(next.Load())
	tp.p50us = float64(percentile(all, 50)) / 1e3
	return tp
}

// spanMetrics derives the timed per-layer metrics from the spans.
func spanMetrics(spans []span, tp tracedPass, l map[string]float64) {
	dur := map[string]int64{}
	for _, s := range spans {
		dur[s.Name] += s.End - s.Start
	}
	self, _, roots := selfTimes(spans)
	perOp := func(names ...string) float64 {
		var t int64
		for _, n := range names {
			t += dur[n]
		}
		return float64(t) / float64(roots) / 1e3
	}
	perRow := func(names ...string) float64 {
		return perOp(names...) * float64(roots) / float64(max(tp.rows, 1))
	}
	l["weld.batch_features_us_per_row"] = perRow("weld.batch_features", "weld.batch_features_rest")
	l["weld.point_features_us"] = perOp("weld.point_features", "weld.point_features_rest")
	l["model.score_us_per_row"] = perRow("model.score")
	l["model.small_score_us_per_row"] = perRow("model.small_score")
	for _, root := range []string{"core.predict_point", "core.predict_batch", "core.topk"} {
		if _, ok := dur[root]; ok {
			l["core.predict_self_us"] = float64(self[root]) / float64(roots) / 1e3
		}
	}
	if _, ok := dur["core.topk"]; ok {
		filter := perRow("weld.batch_features", "model.small_score", "topk.filter")
		l["topk.filter_us_per_row"] = filter
		l["topk.rerank_us_per_row"] = perRow("core.topk") - filter
	}
}

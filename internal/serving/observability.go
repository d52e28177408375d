package serving

import (
	"net/http"
	"sort"
	"strconv"
	"time"

	"willump/internal/observ"
	"willump/internal/trace"
)

// This file is the server's observability surface: the Prometheus text
// exposition on GET /metrics, the retained-trace listing on GET /v1/traces,
// and the optional pprof mount. Everything here reads snapshots — the hot
// request path never touches these handlers.

// mountObservability registers the observability routes on the serving mux.
func (s *Server) mountObservability(mux *http.ServeMux) {
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	if s.pprof {
		observ.MountPprof(mux)
	}
}

// adaptStateValue encodes the adaptation controller phase as a gauge.
func adaptStateValue(state string) int {
	switch state {
	case "canarying":
		return 1
	case "cooldown":
		return 2
	default:
		return 0
	}
}

// breakerStateValue encodes the store breaker state as a gauge level.
func breakerStateValue(state string) int {
	switch state {
	case "open":
		return 2
	case "half-open":
		return 1
	default:
		return 0
	}
}

// modelMetrics is one model's snapshot for the exporter: telemetry counters
// plus instantaneous queue state, captured together so the families emitted
// below are mutually consistent.
type modelMetrics struct {
	name     string
	stats    ModelStats
	tracer   *trace.Tracer
	queueLen int
	queueCap int
	inflight int
	// batching is the active version's batching counters (nil between an
	// undeploy and the snapshot).
	batching *batchStats
}

// handleMetrics renders every deployed model's serving telemetry in
// Prometheus text exposition format. Families are emitted one at a time
// with all models' samples grouped under a single HELP/TYPE header, as the
// format requires.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	hosted := s.reg.hostedModels()
	snaps := make([]modelMetrics, 0, len(hosted))
	for _, h := range hosted {
		st, err := s.reg.Stats(h.name)
		if err != nil {
			continue // undeployed between listing and snapshot
		}
		mm := modelMetrics{name: h.name, stats: st, tracer: h.tracer(), inflight: len(h.direct)}
		if v := h.active.Load(); v != nil {
			mm.queueLen, mm.queueCap = int(v.queued.Load()), len(v.ring)
			mm.batching = &v.batching
		}
		snaps = append(snaps, mm)
	}

	w.Header().Set("Content-Type", observ.ContentType)
	mw := observ.NewWriter(w)
	mw.Counter("willump_server_requests_total", "Prediction RPC requests received by the server.", nil, float64(s.requests.Load()))
	for _, m := range snaps {
		mw.Counter("willump_requests_total", "Requests served per model.", observ.L("model", m.name), float64(m.stats.Requests))
	}
	for _, m := range snaps {
		mw.Counter("willump_request_errors_total", "Failed requests per model.", observ.L("model", m.name), float64(m.stats.Errors))
	}
	for _, m := range snaps {
		mw.Counter("willump_requests_rejected_total", "Requests rejected by admission control (HTTP 429) per model.", observ.L("model", m.name), float64(m.stats.Rejected))
	}
	for _, m := range snaps {
		mw.Gauge("willump_qps", "Request rate over the trailing minute per model.", observ.L("model", m.name), m.stats.QPS)
	}
	for _, m := range snaps {
		for _, qd := range [4]struct {
			q string
			d time.Duration
		}{
			{"0.5", m.stats.LatencyP50},
			{"0.9", m.stats.LatencyP90},
			{"0.99", m.stats.LatencyP99},
			{"0.999", m.stats.LatencyP999},
		} {
			mw.Gauge("willump_latency_seconds", "Windowed request latency quantiles per model.",
				observ.L("model", m.name).With("quantile", qd.q), qd.d.Seconds())
		}
	}
	for _, m := range snaps {
		mw.Gauge("willump_queue_depth", "Requests waiting in the active version's batch queue.", observ.L("model", m.name), float64(m.queueLen))
	}
	for _, m := range snaps {
		mw.Gauge("willump_queue_capacity", "Bound of the active version's batch queue.", observ.L("model", m.name), float64(m.queueCap))
	}
	for _, bc := range []struct {
		name, help string
		get        func(*batchStats) int64
	}{
		{"willump_batch_inline_total", "Requests that found the active version idle and were executed at once by their own handler.", func(b *batchStats) int64 { return b.inline.Load() }},
		{"willump_batch_merged_total", "Executions by the active version that answered more than one request.", func(b *batchStats) int64 { return b.mergedBatches.Load() }},
		{"willump_batch_merged_rows_total", "Rows carried by the active version's merged executions.", func(b *batchStats) int64 { return b.mergedRows.Load() }},
		{"willump_batch_straggler_waits_total", "Times the active version held a merged batch open for more work.", func(b *batchStats) int64 { return b.waits.Load() }},
	} {
		for _, m := range snaps {
			if m.batching != nil {
				mw.Counter(bc.name, bc.help, observ.L("model", m.name), float64(bc.get(m.batching)))
			}
		}
	}
	for _, m := range snaps {
		mw.Gauge("willump_direct_inflight", "Direct-path (options, top-K) requests currently admitted.", observ.L("model", m.name), float64(m.inflight))
	}
	for _, m := range snaps {
		if m.stats.CascadeTotal == 0 {
			continue
		}
		mw.Counter("willump_cascade_rows_total", "Rows served through the model cascade.", observ.L("model", m.name), float64(m.stats.CascadeTotal))
	}
	for _, m := range snaps {
		if m.stats.CascadeTotal == 0 {
			continue
		}
		mw.Counter("willump_cascade_small_only_total", "Cascade rows answered by the small model alone.", observ.L("model", m.name), float64(m.stats.CascadeSmallOnly))
	}
	for _, m := range snaps {
		if fc := m.stats.FeatureCache; fc != nil {
			mw.Counter("willump_feature_cache_hits_total", "Feature-cache lookup hits per model.", observ.L("model", m.name), float64(fc.Hits))
		}
	}
	for _, m := range snaps {
		if fc := m.stats.FeatureCache; fc != nil {
			mw.Counter("willump_feature_cache_misses_total", "Feature-cache lookup misses per model.", observ.L("model", m.name), float64(fc.Misses))
		}
	}
	for _, m := range snaps {
		if fc := m.stats.FeatureCache; fc != nil {
			mw.Counter("willump_feature_cache_evictions_total", "Feature-cache entries displaced by eviction per model.", observ.L("model", m.name), float64(fc.Evictions))
		}
	}
	for _, m := range snaps {
		if fc := m.stats.FeatureCache; fc != nil {
			mw.Counter("willump_feature_cache_coalesced_total", "Feature-cache lookups served by in-flight miss coalescing per model.", observ.L("model", m.name), float64(fc.Coalesced))
		}
	}
	for _, m := range snaps {
		if fs := m.stats.FeatureStore; fs != nil {
			mw.Counter("willump_store_requests_total", "Remote feature-store multi-get requests per model.", observ.L("model", m.name), float64(fs.Requests))
		}
	}
	for _, m := range snaps {
		if fs := m.stats.FeatureStore; fs != nil {
			mw.Counter("willump_store_retries_total", "Remote feature-store retried attempts per model.", observ.L("model", m.name), float64(fs.Retries))
		}
	}
	for _, m := range snaps {
		if fs := m.stats.FeatureStore; fs != nil {
			mw.Counter("willump_store_hedges_won_total", "Hedged store requests that beat the primary attempt per model.", observ.L("model", m.name), float64(fs.HedgesWon))
		}
	}
	for _, m := range snaps {
		if fs := m.stats.FeatureStore; fs != nil {
			mw.Counter("willump_store_degraded_total", "Requests served from cached/default feature values while the store breaker was open per model.", observ.L("model", m.name), float64(fs.Degraded))
		}
	}
	for _, m := range snaps {
		if fs := m.stats.FeatureStore; fs != nil {
			mw.Gauge("willump_store_breaker_state", "Store circuit-breaker state per model (0 closed, 1 half-open, 2 open).", observ.L("model", m.name), float64(breakerStateValue(fs.BreakerState)))
		}
	}
	for _, m := range snaps {
		if fs := m.stats.FeatureStore; fs != nil {
			mw.Gauge("willump_store_inflight", "Store lookups currently on the wire per model.", observ.L("model", m.name), float64(fs.Inflight))
		}
	}
	for _, m := range snaps {
		fs := m.stats.FeatureStore
		if fs == nil {
			continue
		}
		for _, q := range []struct {
			q string
			d time.Duration
		}{{"0.5", fs.LatencyP50}, {"0.99", fs.LatencyP99}} {
			mw.Gauge("willump_store_latency_seconds", "Windowed store round-trip latency quantiles per model.",
				observ.L("model", m.name).With("quantile", q.q), q.d.Seconds())
		}
	}
	for _, m := range snaps {
		ad := m.stats.Admission
		if ad == nil {
			continue
		}
		for _, rc := range []struct {
			reason string
			n      int64
		}{{"predicted", ad.ShedPredicted}, {"limit", ad.ShedLimit}, {"brownout", ad.ShedBrownout}} {
			mw.Counter("willump_admission_shed_total", "Requests shed by the SLO admission controller per model, by reason.",
				observ.L("model", m.name).With("reason", rc.reason), float64(rc.n))
		}
	}
	for _, m := range snaps {
		ad := m.stats.Admission
		if ad == nil {
			continue
		}
		for _, mc := range []struct {
			mode string
			n    int64
		}{{"small-only", ad.DegradedSmallOnly}, {"budget", ad.DegradedBudget}, {"cache", ad.DegradedCache}} {
			mw.Counter("willump_degraded_total", "Successful brownout-degraded responses per model, by degradation mode.",
				observ.L("model", m.name).With("mode", mc.mode), float64(mc.n))
		}
	}
	for _, m := range snaps {
		if ad := m.stats.Admission; ad != nil {
			mw.Counter("willump_expired_total", "Admitted requests culled before execution because their deadline had already passed, per model.", observ.L("model", m.name), float64(ad.Expired))
		}
	}
	for _, m := range snaps {
		if ad := m.stats.Admission; ad != nil {
			mw.Gauge("willump_admission_limit", "Current adaptive (AIMD) concurrency limit per model.", observ.L("model", m.name), float64(ad.Limit))
		}
	}
	for _, m := range snaps {
		if ad := m.stats.Admission; ad != nil {
			mw.Gauge("willump_admission_inflight", "Work currently admitted under the concurrency limit per model.", observ.L("model", m.name), float64(ad.Inflight))
		}
	}
	for _, m := range snaps {
		if ad := m.stats.Admission; ad != nil {
			mw.Gauge("willump_brownout_level", "Brownout ladder rung per model (0 normal, 1 degrade, 2 cache-only).", observ.L("model", m.name), float64(ad.Level))
		}
	}
	for _, m := range snaps {
		if ad := m.stats.Admission; ad != nil {
			mw.Gauge("willump_forecast_service_seconds", "Online per-item service-time forecast per model.", observ.L("model", m.name), ad.ForecastService.Seconds())
		}
	}
	for _, m := range snaps {
		if ad := m.stats.Admission; ad != nil {
			mw.Gauge("willump_admission_pressure", "EWMA of end-to-end latency over the SLO per model (above 1 the SLO is missed).", observ.L("model", m.name), ad.Pressure)
		}
	}
	for _, m := range snaps {
		if ad := m.stats.Adaptation; ad != nil {
			mw.Gauge("willump_adapt_state", "Adaptation controller phase per model (0 idle, 1 canarying, 2 cooldown).", observ.L("model", m.name), float64(adaptStateValue(ad.State)))
		}
	}
	for _, m := range snaps {
		if ad := m.stats.Adaptation; ad != nil {
			mw.Counter("willump_adapt_sampled_total", "Requests shadow-sampled into the drift detectors per model.", observ.L("model", m.name), float64(ad.Sampled))
		}
	}
	for _, m := range snaps {
		ad := m.stats.Adaptation
		if ad == nil {
			continue
		}
		for _, sc := range []struct {
			signal string
			n      int64
		}{{"key_reuse", ad.KeyDriftEvents}, {"score", ad.ScoreDriftEvents}} {
			mw.Counter("willump_adapt_drift_events_total", "Confirmed drift detections per model, by signal.",
				observ.L("model", m.name).With("signal", sc.signal), float64(sc.n))
		}
	}
	for _, m := range snaps {
		if ad := m.stats.Adaptation; ad != nil {
			mw.Counter("willump_adapt_refits_total", "Statistical plan re-fits per model.", observ.L("model", m.name), float64(ad.Refits))
		}
	}
	for _, m := range snaps {
		if ad := m.stats.Adaptation; ad != nil {
			mw.Counter("willump_adapt_canaries_total", "Canary rollouts launched per model.", observ.L("model", m.name), float64(ad.Canaries))
		}
	}
	for _, m := range snaps {
		if ad := m.stats.Adaptation; ad != nil {
			mw.Counter("willump_adapt_promotions_total", "Canary plans promoted to active per model.", observ.L("model", m.name), float64(ad.Promotions))
		}
	}
	for _, m := range snaps {
		if ad := m.stats.Adaptation; ad != nil {
			mw.Counter("willump_adapt_rollbacks_total", "Canary plans rolled back on guard regression per model.", observ.L("model", m.name), float64(ad.Rollbacks))
		}
	}
	for _, m := range snaps {
		ad := m.stats.Adaptation
		if ad == nil {
			continue
		}
		for _, kr := range []struct {
			kind string
			v    float64
		}{{"observed", ad.KeyReuseObserved}, {"expected", ad.KeyReuseExpected}} {
			mw.Gauge("willump_adapt_key_reuse", "Live key-reuse measurement vs the cache plan's estimate per model.",
				observ.L("model", m.name).With("kind", kr.kind), kr.v)
		}
	}
	for _, m := range snaps {
		ad := m.stats.Adaptation
		if ad == nil {
			continue
		}
		for _, dt := range []struct {
			det string
			v   float64
		}{{"page_hinkley", ad.ScorePH}, {"ks", ad.ScoreKS}} {
			mw.Gauge("willump_adapt_score_drift", "Score-distribution drift detector statistics per model.",
				observ.L("model", m.name).With("detector", dt.det), dt.v)
		}
	}
	for _, m := range snaps {
		if m.tracer == nil {
			continue
		}
		sampled, _ := m.tracer.Counts()
		mw.Counter("willump_trace_sampled_total", "Requests retained by head sampling per model.", observ.L("model", m.name), float64(sampled))
	}
	for _, m := range snaps {
		if m.tracer == nil {
			continue
		}
		_, tailed := m.tracer.Counts()
		mw.Counter("willump_trace_tailed_total", "Slow or failed requests retained by tail sampling per model.", observ.L("model", m.name), float64(tailed))
	}
	for _, m := range snaps {
		if m.tracer == nil {
			continue
		}
		mw.Gauge("willump_trace_open", "Traces begun but not yet finished per model.", observ.L("model", m.name), float64(m.tracer.Open()))
	}
	for _, m := range snaps {
		if m.tracer == nil {
			continue
		}
		h := m.tracer.TotalHist()
		mw.Histogram("willump_request_duration_seconds", "End-to-end request latency over all traffic (sampled or not).",
			observ.L("model", m.name), h.Bounds, h.Counts, h.SumSeconds, h.Count)
	}
	for _, m := range snaps {
		if m.tracer == nil {
			continue
		}
		hists := m.tracer.StageHists()
		stages := make([]string, 0, len(hists))
		for stage := range hists {
			stages = append(stages, stage)
		}
		sort.Strings(stages)
		for _, stage := range stages {
			h := hists[stage]
			mw.Histogram("willump_stage_duration_seconds", "Per-stage latency of head-sampled requests.",
				observ.L("model", m.name).With("stage", stage), h.Bounds, h.Counts, h.SumSeconds, h.Count)
		}
	}
	observ.WriteRuntime(mw, "willump")
	_ = mw.Err() // the connection is gone; nothing useful to do
}

// handleTraces lists the retained request traces across all deployed
// models, newest first. ?model= filters to one model; ?n= bounds the count.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	model := r.URL.Query().Get("model")
	limit := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, badRequestf("bad trace count n=%q", q))
			return
		}
		limit = v
	}
	var out []wireTrace
	for _, h := range s.reg.hostedModels() {
		if model != "" && h.name != model {
			continue
		}
		for _, snap := range h.tracer().Traces() {
			out = append(out, toWireTrace(h.name, snap))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartUnixNano > out[j].StartUnixNano })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	writeJSON(w, wireTraceList{Traces: out})
}

func toWireTrace(model string, s trace.Snapshot) wireTrace {
	wt := wireTrace{
		ID:            s.ID,
		Model:         model,
		StartUnixNano: s.Start.UnixNano(),
		TotalMS:       float64(s.Total) / float64(time.Millisecond),
		Error:         s.Err,
		Sampled:       s.Sampled,
	}
	for _, sp := range s.Spans {
		wt.Spans = append(wt.Spans, wireSpan{
			Stage:    sp.Stage,
			OffsetMS: float64(sp.Offset) / float64(time.Millisecond),
			DurMS:    float64(sp.Dur) / float64(time.Millisecond),
		})
	}
	return wt
}

// TraceSpan is one timed stage within a retained request trace, as reported
// by GET /v1/traces.
type TraceSpan struct {
	// Stage names the instrumented stage ("queue:wait", "step:<op>",
	// "cascade:small", ...).
	Stage string
	// Offset is the stage start relative to the request's begin time.
	Offset time.Duration
	// Dur is the stage's duration.
	Dur time.Duration
}

// RequestTrace is one retained request trace. Head-sampled requests carry
// their full stage spans; tail-sampled ones (slow or failed requests missed
// by head sampling) carry totals only.
type RequestTrace struct {
	// ID is the tracer-unique trace id (0 for tail-sampled entries).
	ID uint64
	// Model is the deployed model the request was served by.
	Model string
	// Start is when the request began; Total its end-to-end latency.
	Start time.Time
	Total time.Duration
	// Err is the request's error text, empty on success.
	Err string
	// Sampled reports a head-sampled trace (Spans populated).
	Sampled bool
	// Spans are the request's stage spans, in recording order.
	Spans []TraceSpan
}

func fromWireTrace(wt wireTrace) RequestTrace {
	rt := RequestTrace{
		ID:      wt.ID,
		Model:   wt.Model,
		Start:   time.Unix(0, wt.StartUnixNano),
		Total:   time.Duration(wt.TotalMS * float64(time.Millisecond)),
		Err:     wt.Error,
		Sampled: wt.Sampled,
	}
	for _, sp := range wt.Spans {
		rt.Spans = append(rt.Spans, TraceSpan{
			Stage:  sp.Stage,
			Offset: time.Duration(sp.OffsetMS * float64(time.Millisecond)),
			Dur:    time.Duration(sp.DurMS * float64(time.Millisecond)),
		})
	}
	return rt
}

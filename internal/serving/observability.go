package serving

import (
	"net/http"
	"sort"
	"strconv"
	"time"

	"willump/internal/adapt"
	"willump/internal/admission"
	"willump/internal/metrics"
	"willump/internal/observ"
	"willump/internal/ops"
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

// adaptPhase is the adaptation controller's state string as a gauge value
// ("idle", and anything unknown, is 0).
var adaptPhase = map[string]float64{"canarying": 1, "cooldown": 2}

// modelMetrics is one model's snapshot for the exporter: telemetry counters
// plus instantaneous queue state, captured together so the families emitted
// below are mutually consistent.
type modelMetrics struct {
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
// Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	hosted := s.reg.hostedModels()
	snaps := make([]modelMetrics, 0, len(hosted))
	for _, h := range hosted {
		st, err := s.reg.Stats(h.name)
		if err != nil {
			continue // undeployed between listing and snapshot
		}
		mm := modelMetrics{stats: st, tracer: h.tracer(), inflight: len(h.lone)}
		if v := h.active.Load(); v != nil {
			mm.queueLen, mm.queueCap = int(v.queued.Load()), len(v.ring)
			mm.batching = &v.batching
		}
		snaps = append(snaps, mm)
	}

	w.Header().Set("Content-Type", observ.ContentType)
	mw := observ.NewWriter(w)
	writeMetrics(mw, s.requests.Load(), snaps)
	observ.WriteRuntime(mw, "willump")
	_ = mw.Err() // the connection is gone; nothing useful to do
}

// writeMetrics emits the server's request counter and then every family of
// the table, one at a time with all models' samples grouped under a single
// HELP/TYPE header, as the format requires.
func writeMetrics(mw *observ.Writer, serverRequests int64, snaps []modelMetrics) {
	mw.Counter("willump_server_requests_total", "Prediction RPC requests received by the server.", nil, float64(serverRequests))
	for _, f := range families {
		for i := range snaps {
			m := &snaps[i]
			for _, s := range f.values(m) {
				ls := observ.L("model", m.stats.Model)
				if f.label != "" {
					ls = ls.With(f.label, s.label)
				}
				switch f.kind {
				case counter:
					mw.Counter(f.name, f.help, ls, s.v)
				case gauge:
					mw.Gauge(f.name, f.help, ls, s.v)
				case histogram:
					mw.Histogram(f.name, f.help, ls, s.hist.Bounds, s.hist.Counts, s.hist.SumSeconds, s.hist.Count)
				}
			}
		}
	}
}

// metricKind is a family's Prometheus type.
type metricKind int

const (
	counter metricKind = iota
	gauge
	histogram
)

// family is one row of the /metrics table: a metric family and how to read
// its series off a model's snapshot. label names the one label a family may
// carry besides model ("" for none).
type family struct {
	name, help string
	kind       metricKind
	label      string
	// values returns the model's series of this family: none when the model
	// lacks what the family reports on, one per label value otherwise.
	values func(*modelMetrics) []sample
}

// sample is one series: its value of the family's extra label, and its
// number — or, in a histogram family, its buckets.
type sample struct {
	label string
	v     float64
	hist  trace.HistSnapshot
}

func one(v float64) []sample { return []sample{{v: v}} }

// always lifts a reader of what every model has to a family's values.
func always(read func(*modelMetrics) float64) func(*modelMetrics) []sample {
	return func(m *modelMetrics) []sample { return one(read(m)) }
}

// of lifts a reader of one optional part of a model's snapshot — a stats
// section, the batching counters, the tracer — to a family's values: a
// model without that part exports no series of the family.
func of[T any](part func(*modelMetrics) *T, read func(*T) []sample) func(*modelMetrics) []sample {
	return func(m *modelMetrics) []sample {
		if p := part(m); p != nil {
			return read(p)
		}
		return nil
	}
}

func batchingOf(m *modelMetrics) *batchStats          { return m.batching }
func cacheOf(m *modelMetrics) *FeatureCacheStats      { return m.stats.FeatureCache }
func storeOf(m *modelMetrics) *ops.StoreStats         { return m.stats.FeatureStore }
func admissionOf(m *modelMetrics) *admission.Snapshot { return m.stats.Admission }
func adaptationOf(m *modelMetrics) *adapt.Snapshot    { return m.stats.Adaptation }
func tracerOf(m *modelMetrics) *trace.Tracer          { return m.tracer }

// cascadeOf is the model's stats once a row has gone through a cascade.
func cascadeOf(m *modelMetrics) *ModelStats {
	if m.stats.CascadeTotal == 0 {
		return nil
	}
	return &m.stats
}

// families is everything /metrics says about a model, in emission order. A
// stat added to ModelStats or to one of its sections gets its row here;
// TestStatsFieldsReachMetrics fails for a numeric stats field that has
// neither a row nor an entry on its notExported list.
var families = []family{
	{"willump_requests_total", "Requests served per model.", counter, "", always(func(m *modelMetrics) float64 { return float64(m.stats.Requests) })},
	{"willump_request_errors_total", "Failed requests per model.", counter, "", always(func(m *modelMetrics) float64 { return float64(m.stats.Errors) })},
	{"willump_requests_rejected_total", "Requests rejected by admission control (HTTP 429) per model.", counter, "", always(func(m *modelMetrics) float64 { return float64(m.stats.Rejected) })},
	{"willump_qps", "Request rate over the trailing minute per model.", gauge, "", always(func(m *modelMetrics) float64 { return m.stats.QPS })},
	{"willump_latency_seconds", "Windowed request latency quantiles per model.", gauge, "quantile",
		func(m *modelMetrics) []sample {
			st := &m.stats
			return []sample{
				{label: "0.5", v: st.LatencyP50.Seconds()}, {label: "0.9", v: st.LatencyP90.Seconds()},
				{label: "0.99", v: st.LatencyP99.Seconds()}, {label: "0.999", v: st.LatencyP999.Seconds()},
			}
		}},
	{"willump_queue_depth", "Requests waiting in the active version's batch queue.", gauge, "", always(func(m *modelMetrics) float64 { return float64(m.queueLen) })},
	{"willump_queue_capacity", "Bound of the active version's batch queue.", gauge, "", always(func(m *modelMetrics) float64 { return float64(m.queueCap) })},
	{"willump_batch_inline_total", "Requests that found the active version idle and were executed at once by their own handler.", counter, "", of(batchingOf, func(b *batchStats) []sample { return one(float64(b.inline.Load())) })},
	{"willump_batch_merged_total", "Executions by the active version that answered more than one request.", counter, "", of(batchingOf, func(b *batchStats) []sample { return one(float64(b.mergedBatches.Load())) })},
	{"willump_batch_merged_rows_total", "Rows carried by the active version's merged executions.", counter, "", of(batchingOf, func(b *batchStats) []sample { return one(float64(b.mergedRows.Load())) })},
	{"willump_batch_straggler_waits_total", "Times the active version held a merged batch open for more work.", counter, "", of(batchingOf, func(b *batchStats) []sample { return one(float64(b.waits.Load())) })},
	{"willump_direct_inflight", "Direct-path (options, top-K) requests currently admitted.", gauge, "", always(func(m *modelMetrics) float64 { return float64(m.inflight) })},

	{"willump_cascade_rows_total", "Rows served through the model cascade.", counter, "", of(cascadeOf, func(st *ModelStats) []sample { return one(float64(st.CascadeTotal)) })},
	{"willump_cascade_small_only_total", "Cascade rows answered by the small model alone.", counter, "", of(cascadeOf, func(st *ModelStats) []sample { return one(float64(st.CascadeSmallOnly)) })},

	{"willump_feature_cache_hits_total", "Feature-cache lookup hits per model.", counter, "", of(cacheOf, func(fc *FeatureCacheStats) []sample { return one(float64(fc.Hits)) })},
	{"willump_feature_cache_misses_total", "Feature-cache lookup misses per model.", counter, "", of(cacheOf, func(fc *FeatureCacheStats) []sample { return one(float64(fc.Misses)) })},
	{"willump_feature_cache_evictions_total", "Feature-cache entries displaced by eviction per model.", counter, "", of(cacheOf, func(fc *FeatureCacheStats) []sample { return one(float64(fc.Evictions)) })},
	{"willump_feature_cache_coalesced_total", "Feature-cache lookups served by in-flight miss coalescing per model.", counter, "", of(cacheOf, func(fc *FeatureCacheStats) []sample { return one(float64(fc.Coalesced)) })},
	{"willump_feature_cache_rejected_total", "Feature-cache insertions declined by frequency-aware admission per model.", counter, "", of(cacheOf, func(fc *FeatureCacheStats) []sample { return one(float64(fc.Rejected)) })},

	{"willump_store_requests_total", "Remote feature-store multi-get requests per model.", counter, "", of(storeOf, func(fs *ops.StoreStats) []sample { return one(float64(fs.Requests)) })},
	{"willump_store_retries_total", "Remote feature-store retried attempts per model.", counter, "", of(storeOf, func(fs *ops.StoreStats) []sample { return one(float64(fs.Retries)) })},
	{"willump_store_hedges_issued_total", "Hedged (speculative second) store requests launched against tail latency per model.", counter, "", of(storeOf, func(fs *ops.StoreStats) []sample { return one(float64(fs.HedgesIssued)) })},
	{"willump_store_hedges_won_total", "Hedged store requests that beat the primary attempt per model.", counter, "", of(storeOf, func(fs *ops.StoreStats) []sample { return one(float64(fs.HedgesWon)) })},
	{"willump_store_degraded_total", "Requests served from cached/default feature values while the store breaker was open per model.", counter, "", of(storeOf, func(fs *ops.StoreStats) []sample { return one(float64(fs.Degraded)) })},
	{"willump_store_breaker_opens_total", "Store circuit-breaker transitions to open per model.", counter, "", of(storeOf, func(fs *ops.StoreStats) []sample { return one(float64(fs.BreakerOpens)) })},
	{"willump_store_breaker_state", "Store circuit-breaker state per model (0 closed, 1 half-open, 2 open).", gauge, "", of(storeOf, func(fs *ops.StoreStats) []sample { return one(float64(ops.BreakerRank(fs.BreakerState))) })},
	{"willump_store_inflight", "Store lookups currently on the wire per model.", gauge, "", of(storeOf, func(fs *ops.StoreStats) []sample { return one(float64(fs.Inflight)) })},
	{"willump_store_latency_seconds", "Windowed store round-trip latency quantiles per model.", gauge, "quantile",
		of(storeOf, func(fs *ops.StoreStats) []sample {
			return []sample{{label: "0.5", v: fs.P50Millis / 1e3}, {label: "0.99", v: fs.P99Millis / 1e3}}
		})},

	{"willump_admission_shed_total", "Requests shed by the SLO admission controller per model, by reason.", counter, "reason",
		of(admissionOf, func(ad *admission.Snapshot) []sample {
			return []sample{
				{label: "predicted", v: float64(ad.ShedPredicted)}, {label: "limit", v: float64(ad.ShedLimit)},
				{label: "brownout", v: float64(ad.ShedBrownout)},
			}
		})},
	{"willump_degraded_total", "Successful brownout-degraded responses per model, by degradation mode.", counter, "mode",
		of(admissionOf, func(ad *admission.Snapshot) []sample {
			return []sample{
				{label: admission.DegradedSmallOnly, v: float64(ad.DegradedSmallOnly)},
				{label: admission.DegradedBudget, v: float64(ad.DegradedBudget)},
				{label: admission.DegradedCache, v: float64(ad.DegradedCache)},
			}
		})},
	{"willump_expired_total", "Admitted requests culled before execution because their deadline had already passed, per model.", counter, "", of(admissionOf, func(ad *admission.Snapshot) []sample { return one(float64(ad.Expired)) })},
	{"willump_admission_limit", "Current adaptive (AIMD) concurrency limit per model.", gauge, "", of(admissionOf, func(ad *admission.Snapshot) []sample { return one(float64(ad.Limit)) })},
	{"willump_admission_inflight", "Work currently admitted under the concurrency limit per model.", gauge, "", of(admissionOf, func(ad *admission.Snapshot) []sample { return one(float64(ad.Inflight)) })},
	{"willump_brownout_level", "Brownout ladder rung per model (0 normal, 1 degrade, 2 cache-only).", gauge, "", of(admissionOf, func(ad *admission.Snapshot) []sample { return one(float64(ad.Level)) })},
	{"willump_forecast_service_seconds", "Online per-item service-time forecast per model.", gauge, "", of(admissionOf, func(ad *admission.Snapshot) []sample { return one(time.Duration(ad.ForecastService).Seconds()) })},
	{"willump_admission_pressure", "EWMA of end-to-end latency over the SLO per model (above 1 the SLO is missed).", gauge, "", of(admissionOf, func(ad *admission.Snapshot) []sample { return one(ad.PressureRatio) })},

	{"willump_adapt_state", "Adaptation controller phase per model (0 idle, 1 canarying, 2 cooldown).", gauge, "", of(adaptationOf, func(ad *adapt.Snapshot) []sample { return one(adaptPhase[ad.State]) })},
	{"willump_adapt_sampled_total", "Requests shadow-sampled into the drift detectors per model.", counter, "", of(adaptationOf, func(ad *adapt.Snapshot) []sample { return one(float64(ad.Sampled)) })},
	{"willump_adapt_drift_events_total", "Confirmed drift detections per model, by signal.", counter, "signal",
		of(adaptationOf, func(ad *adapt.Snapshot) []sample {
			return []sample{{label: "key_reuse", v: float64(ad.KeyDriftEvents)}, {label: "score", v: float64(ad.ScoreDriftEvents)}}
		})},
	{"willump_adapt_refits_total", "Statistical plan re-fits per model.", counter, "", of(adaptationOf, func(ad *adapt.Snapshot) []sample { return one(float64(ad.Refits)) })},
	{"willump_adapt_canaries_total", "Canary rollouts launched per model.", counter, "", of(adaptationOf, func(ad *adapt.Snapshot) []sample { return one(float64(ad.Canaries)) })},
	{"willump_adapt_promotions_total", "Canary plans promoted to active per model.", counter, "", of(adaptationOf, func(ad *adapt.Snapshot) []sample { return one(float64(ad.Promotions)) })},
	{"willump_adapt_rollbacks_total", "Canary plans rolled back on guard regression per model.", counter, "", of(adaptationOf, func(ad *adapt.Snapshot) []sample { return one(float64(ad.Rollbacks)) })},
	{"willump_adapt_key_reuse", "Live key-reuse measurement vs the cache plan's estimate per model.", gauge, "kind",
		of(adaptationOf, func(ad *adapt.Snapshot) []sample {
			return []sample{{label: "observed", v: ad.KeyReuseObserved}, {label: "expected", v: ad.KeyReuseExpected}}
		})},
	{"willump_adapt_score_drift", "Score-distribution drift detector statistics per model.", gauge, "detector",
		of(adaptationOf, func(ad *adapt.Snapshot) []sample {
			return []sample{{label: "page_hinkley", v: ad.ScorePH}, {label: "ks", v: ad.ScoreKS}}
		})},

	{"willump_trace_sampled_total", "Requests retained by head sampling per model.", counter, "", of(tracerOf, func(t *trace.Tracer) []sample { sampled, _ := t.Counts(); return one(float64(sampled)) })},
	{"willump_trace_tailed_total", "Slow or failed requests retained by tail sampling per model.", counter, "", of(tracerOf, func(t *trace.Tracer) []sample { _, tailed := t.Counts(); return one(float64(tailed)) })},
	{"willump_trace_open", "Traces begun but not yet finished per model.", gauge, "", of(tracerOf, func(t *trace.Tracer) []sample { return one(float64(t.Open())) })},
	{"willump_request_duration_seconds", "End-to-end request latency over all traffic (sampled or not).", histogram, "", of(tracerOf, func(t *trace.Tracer) []sample { return []sample{{hist: t.TotalHist()}} })},
	{"willump_stage_duration_seconds", "Per-stage latency of head-sampled requests.", histogram, "stage",
		of(tracerOf, func(t *trace.Tracer) []sample {
			hists := t.StageHists()
			out := make([]sample, 0, len(hists))
			for stage, h := range hists {
				out = append(out, sample{label: stage, hist: h})
			}
			sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
			return out
		})},
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
	var out []RequestTrace
	for _, h := range s.reg.hostedModels() {
		if model != "" && h.name != model {
			continue
		}
		for _, snap := range h.tracer().Traces() {
			out = append(out, requestTrace(h.name, snap))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartUnixNano > out[j].StartUnixNano })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	writeJSON(w, wireTraceList{Traces: out})
}

// TraceSpan is one timed stage within a retained request trace, as reported
// by GET /v1/traces; the json tags are that route's wire format.
type TraceSpan struct {
	// Stage names the instrumented stage ("queue:wait", "step:<op>",
	// "cascade:small", ...).
	Stage string `json:"stage"`
	// Offset is the stage start relative to the request's begin time.
	Offset metrics.Millis `json:"offset_ms"`
	// Dur is the stage's duration.
	Dur metrics.Millis `json:"dur_ms"`
}

// RequestTrace is one retained request trace. Head-sampled requests carry
// their full stage spans; tail-sampled ones (slow or failed requests missed
// by head sampling) carry totals only: no id and no spans.
type RequestTrace struct {
	// ID is the tracer-unique trace id (0 for tail-sampled entries).
	ID uint64 `json:"id,omitempty"`
	// Model is the deployed model the request was served by.
	Model string `json:"model"`
	// StartUnixNano is when the request began, in Unix nanoseconds; Total
	// its end-to-end latency.
	StartUnixNano int64          `json:"start_unix_nano"`
	Total         metrics.Millis `json:"total_ms"`
	// Err is the request's error text, empty on success.
	Err string `json:"error,omitempty"`
	// Sampled reports a head-sampled trace (Spans populated).
	Sampled bool `json:"sampled,omitempty"`
	// Spans are the request's stage spans, in recording order.
	Spans []TraceSpan `json:"spans,omitempty"`
}

// requestTrace is the tracer's retained snapshot as model's RequestTrace.
func requestTrace(model string, s trace.Snapshot) RequestTrace {
	rt := RequestTrace{
		ID:            s.ID,
		Model:         model,
		StartUnixNano: s.Start.UnixNano(),
		Total:         metrics.Millis(s.Total),
		Err:           s.Err,
		Sampled:       s.Sampled,
	}
	for _, sp := range s.Spans {
		rt.Spans = append(rt.Spans, TraceSpan{Stage: sp.Stage, Offset: metrics.Millis(sp.Offset), Dur: metrics.Millis(sp.Dur)})
	}
	return rt
}

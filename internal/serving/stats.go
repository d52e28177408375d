package serving

import (
	"encoding/json"
	"sync/atomic"
	"time"

	"willump/internal/adapt"
	"willump/internal/admission"
	"willump/internal/cache"
	"willump/internal/cascade"
	"willump/internal/metrics"
	"willump/internal/ops"
)

// modelStats accumulates serving telemetry. One instance lives on each Hosted
// model and survives version hot swaps, so operators see a continuous series
// across deployments; every version carries another for the traffic it alone
// served, which is what the canary guard judges (version.arm).
type modelStats struct {
	requests atomic.Int64
	errors   atomic.Int64
	rejected atomic.Int64

	latencies *metrics.Sliding
	meter     *metrics.Meter

	cascadeTotal atomic.Int64
	cascadeSmall atomic.Int64
}

func newModelStats() *modelStats {
	return &modelStats{
		latencies: metrics.NewSliding(2048),
		meter:     metrics.NewMeter(time.Minute),
	}
}

// record accounts one served request: its latency, its outcome, and its
// contribution to the QPS meter when the accumulator keeps one.
func (s *modelStats) record(start, end time.Time, err error) {
	s.requests.Add(1)
	if s.meter != nil {
		s.meter.Mark(end)
	}
	s.latencies.Observe(end.Sub(start))
	if err != nil {
		s.errors.Add(1)
	}
}

// reject accounts one request turned away by admission control (HTTP 429).
func (s *modelStats) reject() { s.rejected.Add(1) }

// recordCascade folds one batch's cascade serving counters in.
func (s *modelStats) recordCascade(cs cascade.ServeStats) {
	if cs.Total == 0 {
		return
	}
	s.cascadeTotal.Add(int64(cs.Total))
	s.cascadeSmall.Add(int64(cs.SmallOnly))
}

// FeatureCacheStats is a snapshot of a deployed pipeline's feature-level
// cache counters, summed over its per-IFV caches, plus the derived hit
// rate. Unlike the other counters it lives on the pipeline (the active
// version), not the Hosted model, so a hot swap naturally starts it fresh
// with the new version's caches.
type FeatureCacheStats struct {
	cache.Stats
	// HitRate is Hits / (Hits + Misses), 0 before any lookup.
	HitRate float64 `json:"hit_rate"`
}

// ModelStats is a point-in-time snapshot of one model's serving telemetry,
// as reported on /v1/models/{name}/stats.
//
// A serving fact is declared once. Each section is the snapshot type of the
// package that produces it and carries the wire's json tags there; to add a
// stat, add a tagged field to that snapshot and one row to the /metrics
// family table (families in observability.go), or put its JSON path on
// TestStatsFieldsReachMetrics' notExported list with the reason. ModelStats'
// own latency and cascade fields stay flat Go fields; MarshalJSON nests them.
type ModelStats struct {
	// Model and Version identify the deployment the snapshot was taken of.
	Model   string
	Version string
	// Requests, Errors, and Rejected count served, failed, and
	// admission-rejected (HTTP 429) requests since deployment.
	Requests int64
	Errors   int64
	Rejected int64
	// QPS is the request rate over the trailing minute.
	QPS float64
	// LatencyP50/P90/P99/P999 are quantiles over the most recent requests,
	// read from a metrics.Sliding (bucket midpoints, within 1/32).
	LatencyP50  time.Duration
	LatencyP90  time.Duration
	LatencyP99  time.Duration
	LatencyP999 time.Duration
	// CascadeTotal and CascadeSmallOnly count rows served through the
	// cascade and the subset answered by the small model alone;
	// CascadeHitRate is their ratio (0 when no cascade is deployed).
	CascadeTotal     int64
	CascadeSmallOnly int64
	CascadeHitRate   float64
	// FeatureCache carries the active version's feature-level cache
	// counters; nil when the deployed pipeline has no feature caches.
	FeatureCache *FeatureCacheStats
	// FeatureStore carries the active version's remote feature-store client
	// health, aggregated over its lookup tables' store clients; nil when no
	// lookup table is backed by a reporting store client. Like the
	// feature-cache counters it lives on the active version's pipeline, so a
	// hot swap starts it fresh.
	FeatureStore *ops.StoreStats
	// Admission carries the SLO admission controller's snapshot; nil when
	// admission is disabled and nothing was ever shed, degraded, or
	// expired (legacy deployments see the stats shape unchanged). It lives
	// on the Hosted model, so it survives hot swaps.
	Admission *admission.Snapshot
	// Adaptation carries the online adaptation controller's snapshot; nil
	// when adaptation is not enabled on the model.
	Adaptation *adapt.Snapshot
	// RecentSlow lists the model's recently retained slow or failed
	// requests (newest first); empty unless tracing is enabled on the
	// deployed pipeline.
	RecentSlow []SlowQuery
}

// modelStatsJSON is the stats response's shape. A block is absent when its
// pointer is nil (cascade when no row was ever cascaded, p999 at zero), so a
// deployment without the feature serializes exactly as it did before the
// block existed.
type modelStatsJSON struct {
	Model     string  `json:"model"`
	Version   string  `json:"version"`
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	Rejected  int64   `json:"rejected"`
	QPS       float64 `json:"qps"`
	LatencyMS struct {
		P50  metrics.Millis `json:"p50"`
		P90  metrics.Millis `json:"p90"`
		P99  metrics.Millis `json:"p99"`
		P999 metrics.Millis `json:"p999,omitempty"`
	} `json:"latency_ms"`
	Cascade struct {
		Total     int64   `json:"total"`
		SmallOnly int64   `json:"small_only"`
		HitRate   float64 `json:"hit_rate"`
	} `json:"cascade,omitzero"`
	FeatureCache *FeatureCacheStats  `json:"feature_cache,omitempty"`
	FeatureStore *ops.StoreStats     `json:"feature_store,omitempty"`
	Admission    *admission.Snapshot `json:"admission,omitempty"`
	Adaptation   *adapt.Snapshot     `json:"adaptation,omitempty"`
	RecentSlow   []SlowQuery         `json:"recent_slow,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (s ModelStats) MarshalJSON() ([]byte, error) {
	w := modelStatsJSON{
		Model: s.Model, Version: s.Version,
		Requests: s.Requests, Errors: s.Errors, Rejected: s.Rejected, QPS: s.QPS,
		FeatureCache: s.FeatureCache, FeatureStore: s.FeatureStore,
		Admission: s.Admission, Adaptation: s.Adaptation, RecentSlow: s.RecentSlow,
	}
	w.LatencyMS.P50, w.LatencyMS.P90 = metrics.Millis(s.LatencyP50), metrics.Millis(s.LatencyP90)
	w.LatencyMS.P99, w.LatencyMS.P999 = metrics.Millis(s.LatencyP99), metrics.Millis(s.LatencyP999)
	w.Cascade.Total, w.Cascade.SmallOnly, w.Cascade.HitRate = s.CascadeTotal, s.CascadeSmallOnly, s.CascadeHitRate
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *ModelStats) UnmarshalJSON(b []byte) error {
	var w modelStatsJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*s = ModelStats{
		Model: w.Model, Version: w.Version,
		Requests: w.Requests, Errors: w.Errors, Rejected: w.Rejected, QPS: w.QPS,
		LatencyP50: time.Duration(w.LatencyMS.P50), LatencyP90: time.Duration(w.LatencyMS.P90),
		LatencyP99: time.Duration(w.LatencyMS.P99), LatencyP999: time.Duration(w.LatencyMS.P999),
		CascadeTotal: w.Cascade.Total, CascadeSmallOnly: w.Cascade.SmallOnly, CascadeHitRate: w.Cascade.HitRate,
		FeatureCache: w.FeatureCache, FeatureStore: w.FeatureStore,
		Admission: w.Admission, Adaptation: w.Adaptation, RecentSlow: w.RecentSlow,
	}
	return nil
}

// SlowQuery is one retained slow or failed request from the tracer's
// recent-slow ring.
type SlowQuery struct {
	// StartUnixNano is when the request began, in Unix nanoseconds.
	StartUnixNano int64 `json:"start_unix_nano"`
	// Latency is the request's end-to-end latency.
	Latency metrics.Millis `json:"latency_ms"`
	// Err is the request's error text, empty on success (retained because
	// it was slow).
	Err string `json:"error,omitempty"`
	// Sampled reports whether a full span trace was also retained for the
	// request (GET /v1/traces); tail-sampled requests have totals only.
	Sampled bool `json:"sampled,omitempty"`
}

// snapshot captures the current counters.
func (s *modelStats) snapshot(model, version string) ModelStats {
	ms := ModelStats{
		Model:            model,
		Version:          version,
		Requests:         s.requests.Load(),
		Errors:           s.errors.Load(),
		Rejected:         s.rejected.Load(),
		QPS:              s.meter.Rate(time.Now()),
		CascadeTotal:     s.cascadeTotal.Load(),
		CascadeSmallOnly: s.cascadeSmall.Load(),
	}
	var qs [4]time.Duration
	s.latencies.Quantiles(qs[:], 0.5, 0.9, 0.99, 0.999)
	ms.LatencyP50, ms.LatencyP90, ms.LatencyP99, ms.LatencyP999 = qs[0], qs[1], qs[2], qs[3]
	if ms.CascadeTotal > 0 {
		ms.CascadeHitRate = float64(ms.CascadeSmallOnly) / float64(ms.CascadeTotal)
	}
	return ms
}

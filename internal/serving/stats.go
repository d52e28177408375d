package serving

import (
	"sync/atomic"
	"time"

	"willump/internal/adapt"
	"willump/internal/admission"
	"willump/internal/cascade"
	"willump/internal/metrics"
)

// modelStats accumulates per-model serving telemetry. One instance lives on
// each Hosted model and survives version hot swaps, so operators see a
// continuous series across deployments.
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
// contribution to the QPS meter.
func (s *modelStats) record(start time.Time, err error) {
	now := time.Now()
	s.requests.Add(1)
	s.meter.Mark(now)
	s.latencies.Observe(now.Sub(start))
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
// cache counters, summed over its per-IFV caches. Unlike the other counters
// it lives on the pipeline (the active version), not the Hosted model, so a
// hot swap naturally starts it fresh with the new version's caches.
type FeatureCacheStats struct {
	// Hits and Misses count per-row cache lookups by outcome.
	Hits, Misses int64
	// Evictions counts entries displaced by the eviction policy.
	Evictions int64
	// Coalesced counts lookups served by waiting on another request's
	// in-flight computation of the same key (singleflight miss coalescing).
	Coalesced int64
	// HitRate is Hits / (Hits + Misses), 0 before any lookup.
	HitRate float64
}

// FeatureStoreStats is a snapshot of a deployed pipeline's remote
// feature-store client health, aggregated over its lookup tables' store
// clients. Like the feature-cache counters it lives on the active version's
// pipeline, so a hot swap starts it fresh.
type FeatureStoreStats struct {
	// Requests counts remote multi-get calls; Retries counts re-attempts
	// after transient failures.
	Requests int64
	Retries  int64
	// HedgesIssued / HedgesWon count speculative tail-latency attempts and
	// how many beat the primary.
	HedgesIssued int64
	HedgesWon    int64
	// Degraded counts requests served from cached/default feature values
	// while the circuit breaker was open.
	Degraded int64
	// BreakerOpens counts breaker open transitions; BreakerState is the
	// current state ("closed", "half-open", "open").
	BreakerOpens int64
	BreakerState string
	// Inflight is the number of store lookups currently on the wire.
	Inflight int64
	// LatencyP50 / LatencyP99 are windowed store round-trip quantiles.
	LatencyP50 time.Duration
	LatencyP99 time.Duration
}

// AdmissionStats is a snapshot of a model's SLO admission controller: the
// service-time forecast, adaptive concurrency limit, brownout ladder
// position, and shed/degraded/expired counters. It lives on the Hosted
// model (like the request counters), so it survives hot swaps.
type AdmissionStats struct {
	// SLO is the configured p99 completion target (0 when admission is
	// disabled — the snapshot then only carries the expired count).
	SLO time.Duration
	// Limit is the current adaptive (AIMD) concurrency limit; Inflight the
	// admitted work currently queued or executing under it.
	Limit    int64
	Inflight int64
	// Level is the measured brownout rung before per-request criticality
	// shifts: 0 normal, 1 degrade (small-only / shrunken budgets), 2
	// cache-only.
	Level int
	// ShedPredicted counts requests shed because their forecast completion
	// missed their budget; ShedLimit those shed at the concurrency limit;
	// ShedBrownout those turned away at the cache-only rung with no cached
	// answer.
	ShedPredicted int64
	ShedLimit     int64
	ShedBrownout  int64
	// Expired counts admitted requests culled from batches before
	// execution because their context was already done.
	Expired int64
	// DegradedSmallOnly / DegradedBudget / DegradedCache count successful
	// degraded responses by brownout rung.
	DegradedSmallOnly int64
	DegradedBudget    int64
	DegradedCache     int64
	// ForecastService is the per-item service-time forecast; ForecastError
	// its mean absolute deviation (the shedder's padding unit).
	ForecastService time.Duration
	ForecastError   time.Duration
	// Pressure is EWMA(end-to-end latency / SLO): above 1, the SLO is
	// being missed.
	Pressure float64
}

// admissionStats converts a controller snapshot to the public stats form,
// nil when there is nothing to report (admission disabled and every
// counter zero) so legacy stats responses keep their shape.
func admissionStats(c *admission.Controller) *AdmissionStats {
	snap := c.Snapshot()
	if !snap.Enabled && snap.Expired == 0 &&
		snap.ShedPredicted == 0 && snap.ShedLimit == 0 && snap.ShedBrownout == 0 &&
		snap.DegradedSmallOnly == 0 && snap.DegradedBudget == 0 && snap.DegradedCache == 0 {
		return nil
	}
	return &AdmissionStats{
		SLO:               snap.SLO,
		Limit:             snap.Limit,
		Inflight:          snap.Inflight,
		Level:             int(snap.Level),
		ShedPredicted:     snap.ShedPredicted,
		ShedLimit:         snap.ShedLimit,
		ShedBrownout:      snap.ShedBrownout,
		Expired:           snap.Expired,
		DegradedSmallOnly: snap.DegradedSmallOnly,
		DegradedBudget:    snap.DegradedBudget,
		DegradedCache:     snap.DegradedCache,
		ForecastService:   snap.ForecastService,
		ForecastError:     snap.ForecastError,
		Pressure:          snap.PressureRatio,
	}
}

// AdaptationStats is a snapshot of a model's online adaptation
// controller: drift-detector state, canary lifecycle, and cumulative
// adaptation counters. Nil on models without adaptation enabled, so
// legacy stats responses keep their shape.
type AdaptationStats struct {
	// State is the controller's phase: "idle", "canarying", "cooldown".
	State string
	// CanaryTag / CanaryFraction describe the in-flight canary ("" / 0
	// outside canary rollouts).
	CanaryTag      string
	CanaryFraction float64
	// Sampled counts requests shadow-sampled into the detectors;
	// ShadowDropped those lost to a full shadow queue (never blocking the
	// hot path); ReservoirRows the rows currently available for a re-fit.
	Sampled       int64
	ShadowDropped int64
	ReservoirRows int
	// KeyReuseObserved / KeyReuseExpected are the live key-reuse
	// measurement and the cache plan's estimate it is checked against;
	// ScorePH and ScoreKS the score-drift detector statistics. KeyDrift /
	// ScoreDrift latch confirmed-but-unresolved drift.
	KeyReuseObserved float64
	KeyReuseExpected float64
	ScorePH          float64
	ScoreKS          float64
	KeyDrift         bool
	ScoreDrift       bool
	// Lifecycle counters: drift confirmations by signal, plan re-fits,
	// canaries launched, promoted, rolled back, and canary hook errors.
	KeyDriftEvents   int64
	ScoreDriftEvents int64
	Refits           int64
	Canaries         int64
	Promotions       int64
	Rollbacks        int64
	CanaryErrors     int64
	// LastRollback is the most recent rollback's reason ("" before any).
	LastRollback string
}

// adaptationStats converts a controller snapshot to the public stats form.
func adaptationStats(c *adapt.Controller) *AdaptationStats {
	s := c.Snapshot()
	return &AdaptationStats{
		State:            s.State,
		CanaryTag:        s.CanaryTag,
		CanaryFraction:   s.CanaryFraction,
		Sampled:          s.Sampled,
		ShadowDropped:    s.ShadowDropped,
		ReservoirRows:    s.ReservoirRows,
		KeyReuseObserved: s.KeyReuseObserved,
		KeyReuseExpected: s.KeyReuseExpected,
		ScorePH:          s.ScorePH,
		ScoreKS:          s.ScoreKS,
		KeyDrift:         s.KeyDrift,
		ScoreDrift:       s.ScoreDrift,
		KeyDriftEvents:   s.KeyDriftEvents,
		ScoreDriftEvents: s.ScoreDriftEvents,
		Refits:           s.Refits,
		Canaries:         s.Canaries,
		Promotions:       s.Promotions,
		Rollbacks:        s.Rollbacks,
		CanaryErrors:     s.CanaryErrors,
		LastRollback:     s.LastRollback,
	}
}

// ModelStats is a point-in-time snapshot of one model's serving telemetry,
// as reported on /v1/models/{name}/stats.
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
	// health; nil when no lookup table is backed by a reporting store
	// client.
	FeatureStore *FeatureStoreStats
	// Admission carries the SLO admission controller's snapshot; nil when
	// admission is disabled and nothing was ever shed, degraded, or
	// expired (legacy deployments see the stats shape unchanged).
	Admission *AdmissionStats
	// Adaptation carries the online adaptation controller's snapshot; nil
	// when adaptation is not enabled on the model.
	Adaptation *AdaptationStats
	// RecentSlow lists the model's recently retained slow or failed
	// requests (newest first); empty unless tracing is enabled on the
	// deployed pipeline.
	RecentSlow []SlowQuery
}

// SlowQuery is one retained slow or failed request from the tracer's
// recent-slow ring.
type SlowQuery struct {
	// Start is when the request began.
	Start time.Time
	// Latency is the request's end-to-end latency.
	Latency time.Duration
	// Err is the request's error text, empty on success (retained because
	// it was slow).
	Err string
	// Sampled reports whether a full span trace was also retained for the
	// request (GET /v1/traces); tail-sampled requests have totals only.
	Sampled bool
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

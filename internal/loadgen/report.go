package loadgen

import (
	"fmt"
	"io"
	"time"
)

// Budget is the SLO a scenario must meet. Rate fields are fractions of
// started requests; a negative rate means "unchecked", zero means "none
// allowed" (strict). Latency fields are unchecked when zero.
type Budget struct {
	MaxErrorRate    float64       `json:"max_error_rate"`
	MaxOverloadRate float64       `json:"max_overload_rate"`
	MaxP99          time.Duration `json:"max_p99,omitempty"`
	MaxP999         time.Duration `json:"max_p999,omitempty"`
	// MinGoodput, when > 0, is the minimum count of successful responses
	// the run must deliver — degraded answers count, they are successes
	// (the brownout scenario's goodput floor).
	MinGoodput int64 `json:"min_goodput,omitempty"`
	// MaxHighCritHardErrors caps hard failures (errors other than 429
	// sheds) of criticality-high requests; negative = unchecked. Only
	// checked when the scenario drove criticality-classified traffic, so
	// legacy budgets (zero value) are unaffected.
	MaxHighCritHardErrors int64 `json:"max_high_crit_hard_errors,omitempty"`
	// MinCacheHitRate, when > 0, is the minimum end-of-run feature-cache
	// hit rate on the primary model's active version — the drift
	// scenario's floor, sitting above what a stale plan can deliver after
	// the skew rotation, so it passes only when adaptation re-planned and
	// promoted.
	MinCacheHitRate float64 `json:"min_cache_hit_rate,omitempty"`
}

// Unchecked is the rate value meaning "no limit" (overload scenarios
// deliberately shed, so their shed rate is unbounded).
const Unchecked = -1

// Report is the per-scenario SLO report: the runner's raw Result plus
// env-level enrichment (degraded lookups) and derived rates/quantiles.
type Report struct {
	Scenario   string        `json:"scenario"`
	Requests   int64         `json:"requests"` // started on schedule
	Completed  int64         `json:"completed"`
	Success    int64         `json:"success"`
	Overloaded int64         `json:"overloaded"`
	Errors     int64         `json:"errors"`
	Degraded   int64         `json:"degraded"` // answered via store fallback
	Elapsed    time.Duration `json:"elapsed_ns"`

	// DegradedResponses counts successful answers the serving tier marked
	// brownout-degraded (small-only / budget / cache) — distinct from
	// Degraded, which counts store-fallback feature lookups.
	DegradedResponses int64 `json:"degraded_responses,omitempty"`
	// HighCritStarted / HighCritHardErrors count criticality-high requests
	// issued and their hard failures (errors other than 429 sheds).
	HighCritStarted    int64 `json:"high_crit_started,omitempty"`
	HighCritHardErrors int64 `json:"high_crit_hard_errors,omitempty"`

	// CacheHitRate is the primary model's active-version feature-cache
	// hit rate at run end (post-promotion counters when adaptation
	// promoted a re-fit plan mid-run). AdaptPromotions / AdaptRollbacks
	// count the adaptation controller's canary resolutions across the run.
	CacheHitRate    float64 `json:"cache_hit_rate,omitempty"`
	AdaptPromotions int64   `json:"adapt_promotions,omitempty"`
	AdaptRollbacks  int64   `json:"adapt_rollbacks,omitempty"`

	OfferedQPS  float64 `json:"offered_qps"`
	AchievedQPS float64 `json:"achieved_qps"`

	MeanNs int64 `json:"mean_ns"` // successful requests, scheduled-start latency
	P50Ns  int64 `json:"p50_ns"`
	P99Ns  int64 `json:"p99_ns"`
	P999Ns int64 `json:"p999_ns"`
	MaxNs  int64 `json:"max_ns"`

	HookErrs   []string `json:"hook_errs,omitempty"`
	Violations []string `json:"violations,omitempty"`
}

// BuildReport derives a Report from a runner Result and checks it against
// the budget. horizon is the scheduled run length (offered QPS denominator);
// the achieved rate uses the actual elapsed wall time.
func BuildReport(scenario string, res *Result, horizon time.Duration, budget Budget) Report {
	var qs [3]time.Duration
	res.Latency.Quantiles(qs[:], 0.50, 0.99, 0.999)
	r := Report{
		Scenario:   scenario,
		Requests:   res.Started,
		Completed:  res.Completed,
		Success:    res.Success,
		Overloaded: res.Overloaded,
		Errors:     res.Errors,
		Elapsed:    res.Elapsed,
		MeanNs:     res.Latency.Mean().Nanoseconds(),
		P50Ns:      qs[0].Nanoseconds(),
		P99Ns:      qs[1].Nanoseconds(),
		P999Ns:     qs[2].Nanoseconds(),
		MaxNs:      res.Latency.Max().Nanoseconds(),
		HookErrs:   res.HookErrs,
	}
	if horizon > 0 {
		r.OfferedQPS = float64(res.Started) / horizon.Seconds()
	}
	if res.Elapsed > 0 {
		r.AchievedQPS = float64(res.Success) / res.Elapsed.Seconds()
	}
	r.Violations = r.check(budget)
	return r
}

func (r Report) check(b Budget) []string {
	var v []string
	if r.Requests > 0 {
		errRate := float64(r.Errors) / float64(r.Requests)
		if b.MaxErrorRate >= 0 && errRate > b.MaxErrorRate {
			v = append(v, fmt.Sprintf("error rate %.4f exceeds budget %.4f (%d/%d)",
				errRate, b.MaxErrorRate, r.Errors, r.Requests))
		}
		ovRate := float64(r.Overloaded) / float64(r.Requests)
		if b.MaxOverloadRate >= 0 && ovRate > b.MaxOverloadRate {
			v = append(v, fmt.Sprintf("overload rate %.4f exceeds budget %.4f (%d/%d)",
				ovRate, b.MaxOverloadRate, r.Overloaded, r.Requests))
		}
	}
	if b.MaxP99 > 0 && r.P99Ns > b.MaxP99.Nanoseconds() {
		v = append(v, fmt.Sprintf("p99 %s exceeds budget %s",
			time.Duration(r.P99Ns), b.MaxP99))
	}
	if b.MaxP999 > 0 && r.P999Ns > b.MaxP999.Nanoseconds() {
		v = append(v, fmt.Sprintf("p999 %s exceeds budget %s",
			time.Duration(r.P999Ns), b.MaxP999))
	}
	if b.MinGoodput > 0 && r.Success < b.MinGoodput {
		v = append(v, fmt.Sprintf("goodput %d below floor %d (degraded answers count as successes)",
			r.Success, b.MinGoodput))
	}
	if b.MinCacheHitRate > 0 && r.CacheHitRate < b.MinCacheHitRate {
		v = append(v, fmt.Sprintf("cache hit rate %.3f below floor %.3f (adaptation did not recover the plan)",
			r.CacheHitRate, b.MinCacheHitRate))
	}
	if r.HighCritStarted > 0 && b.MaxHighCritHardErrors >= 0 && r.HighCritHardErrors > b.MaxHighCritHardErrors {
		v = append(v, fmt.Sprintf("criticality-high hard errors %d exceed budget %d (%d high-crit requests)",
			r.HighCritHardErrors, b.MaxHighCritHardErrors, r.HighCritStarted))
	}
	for _, he := range r.HookErrs {
		v = append(v, "hook failed: "+he)
	}
	return v
}

// Passed reports whether the run met its budget.
func (r Report) Passed() bool { return len(r.Violations) == 0 }

// Print writes a human-readable scenario summary.
func (r Report) Print(w io.Writer) {
	status := "PASS"
	if !r.Passed() {
		status = "FAIL"
	}
	fmt.Fprintf(w, "%-24s %s  %6.0f qps offered, %6.0f achieved  %d req (%d ok, %d shed, %d err, %d degraded)\n",
		r.Scenario, status, r.OfferedQPS, r.AchievedQPS, r.Requests, r.Success, r.Overloaded, r.Errors, r.Degraded)
	fmt.Fprintf(w, "%-24s       p50 %-10s p99 %-10s p999 %-10s max %s\n", "",
		time.Duration(r.P50Ns), time.Duration(r.P99Ns), time.Duration(r.P999Ns), time.Duration(r.MaxNs))
	if r.DegradedResponses > 0 || r.HighCritStarted > 0 {
		fmt.Fprintf(w, "%-24s       brownout: %d degraded responses, %d high-crit (%d hard errors)\n", "",
			r.DegradedResponses, r.HighCritStarted, r.HighCritHardErrors)
	}
	if r.CacheHitRate > 0 || r.AdaptPromotions > 0 || r.AdaptRollbacks > 0 {
		fmt.Fprintf(w, "%-24s       adaptation: cache hit rate %.3f, %d promotions, %d rollbacks\n", "",
			r.CacheHitRate, r.AdaptPromotions, r.AdaptRollbacks)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "%-24s       VIOLATION: %s\n", "", v)
	}
}

// Package metrics provides the measurement utilities the evaluation harness
// relies on: throughput/latency timing with warmup, binomial confidence
// intervals for the "no statistically significant accuracy loss" claims
// (section 6.3), and the one latency histogram (Hist, and Sliding over the
// latest observations) that every quantile in the repository is read from.
package metrics

import (
	"math"
	"runtime"
	"time"
)

// Throughput keeps timing calls past the requested count until they add up
// to minTimed, or maxCalls were made.
const (
	minTimed = 25 * time.Millisecond
	maxCalls = 32
)

// Throughput measures rows/second for fn processing n rows, reporting the
// best of at least reps timed calls (the standard systems-benchmarking
// convention for steady-state throughput) — more when the calls are short
// (see minTimed): a millisecond call can sit wholly inside
// one burst of interference from a neighbouring process, and the best of
// many is what shrugs that off. A garbage collection runs before each timed
// call so that allocation debt from earlier measurements (e.g. the
// interpreted baseline's boxing garbage) cannot tax this one, and one
// untimed call follows it: runtime.GC first finishes a collection already
// under way and then runs its own, and two collections empty every
// sync.Pool, so without the warm call the timed one rebuilds the pipeline's
// pooled run state (milliseconds) instead of showing its steady state.
func Throughput(n int, reps int, fn func() error) (float64, error) {
	best := math.Inf(1)
	var timed time.Duration
	for i := 0; i < max(reps, 1) || (timed < minTimed && i < maxCalls); i++ {
		runtime.GC()
		if err := fn(); err != nil { // warm
			return 0, err
		}
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		timed += d
		best = min(best, d.Seconds())
	}
	if best <= 0 {
		return math.Inf(1), nil
	}
	return float64(n) / best, nil
}

// Latency measures the mean per-call latency of fn over k calls after a
// garbage collection and one warmup call, in that order (see Throughput: the
// collection may empty the pools the warmup filled).
func Latency(k int, fn func(i int) error) (time.Duration, error) {
	if k < 1 {
		k = 1
	}
	runtime.GC()
	if err := fn(0); err != nil { // warmup
		return 0, err
	}
	start := time.Now()
	for i := 0; i < k; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(k), nil
}

// BinomialCI returns the half-width of the normal-approximation 95%
// confidence interval for an observed accuracy over n samples. The paper
// deems an accuracy drop statistically insignificant when it falls within
// this interval (section 6.3).
func BinomialCI(accuracy float64, n int) float64 {
	if n <= 0 {
		return 1
	}
	p := accuracy
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return 1.96 * math.Sqrt(p*(1-p)/float64(n))
}

// SignificantLoss reports whether dropping from baseline to observed
// accuracy over n samples is statistically significant at 95%.
func SignificantLoss(baseline, observed float64, n int) bool {
	return baseline-observed > BinomialCI(baseline, n)
}

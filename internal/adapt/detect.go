// Package adapt closes Willump's statistical loop online: everything the
// optimizer fits from training data (cascade thresholds, feature-cache
// budget splits) drifts as production traffic does. A per-model
// controller shadow-samples live requests into drift detectors, re-fits
// the statistical plan from a reservoir of recent traffic when drift is
// confirmed, and rolls the candidate plan in through the serving tier's
// zero-downtime hot swap as a guarded canary: automatic promotion when
// the candidate beats the incumbent on guard metrics, automatic rollback
// plus cooldown when it regresses. Nothing here runs on the request hot
// path — sampling is a lock-free counter and a non-blocking channel send.
package adapt

import (
	"math"
	"sort"
)

// PageHinkley is a two-sided Page–Hinkley test: a sequential
// change-point detector for a shift in the mean of a stream. The zero
// value is ready to use.
type PageHinkley struct {
	n       int64
	mean    float64
	up      float64 // cumulative deviation toward an upward shift
	upMin   float64
	down    float64 // cumulative deviation toward a downward shift
	downMax float64
}

// phDelta is the magnitude of mean change considered insignificant (absorbs
// noise); phLambda the detection threshold on the cumulative deviation (a
// smaller one detects faster but false-positives sooner). Both are tuned for
// probability streams in [0, 1].
const (
	phDelta  = 0.005
	phLambda = 0.5
)

// Add folds one observation and reports whether the test has tripped.
func (ph *PageHinkley) Add(x float64) bool {
	ph.n++
	ph.mean += (x - ph.mean) / float64(ph.n)
	ph.up += x - ph.mean - phDelta
	if ph.up < ph.upMin {
		ph.upMin = ph.up
	}
	ph.down += x - ph.mean + phDelta
	if ph.down > ph.downMax {
		ph.downMax = ph.down
	}
	return ph.Score() > phLambda
}

// Score returns the current cumulative deviation (compared against
// phLambda); it rises toward detection and is exported on stats.
func (ph *PageHinkley) Score() float64 {
	return math.Max(ph.up-ph.upMin, ph.downMax-ph.down)
}

// Reset clears the detector for a new regime.
func (ph *PageHinkley) Reset() {
	ph.n, ph.mean = 0, 0
	ph.up, ph.upMin, ph.down, ph.downMax = 0, 0, 0, 0
}

// KSWindow is a two-sample Kolmogorov–Smirnov drift test between a
// frozen reference sample (the distribution the plan was fit to, or the
// first observed window) and a sliding window of recent observations.
type KSWindow struct {
	refSize int

	ref    []float64 // sorted once frozen
	frozen bool

	win  []float64
	idx  int
	full bool
}

// ksCrit is the test's critical coefficient c(alpha), alpha ~ 0.01.
const ksCrit = 1.628

// scoreWindow is the controller's KS reference and sliding-window size.
const scoreWindow = 256

// NewKSWindow returns a detector whose frozen reference and sliding window
// both hold size observations.
func NewKSWindow(size int) *KSWindow {
	return &KSWindow{refSize: size, win: make([]float64, size)}
}

// Add folds one observation: the first refSize observations build the
// frozen reference, later ones enter the sliding window. Reports whether
// the two samples currently differ beyond the critical distance.
func (k *KSWindow) Add(x float64) bool {
	if !k.frozen {
		k.ref = append(k.ref, x)
		if len(k.ref) == k.refSize {
			sort.Float64s(k.ref)
			k.frozen = true
		}
		return false
	}
	k.win[k.idx] = x
	k.idx++
	if k.idx == len(k.win) {
		k.idx = 0
		k.full = true
	}
	return k.Drifted()
}

// Statistic returns the two-sample KS distance sup|F_ref - F_win|, or 0
// until both samples are populated.
func (k *KSWindow) Statistic() float64 {
	if !k.frozen || !k.full {
		return 0
	}
	recent := append([]float64(nil), k.win...)
	sort.Float64s(recent)
	var d float64
	i, j := 0, 0
	n, m := len(k.ref), len(recent)
	for i < n && j < m {
		// Advance past whole tie groups — on both sides when the heads are
		// equal — and evaluate the CDF gap only at distinct-value
		// boundaries. Stepping one element at a time would read the gap
		// mid-tie-group: two identical duplicate-heavy samples (the norm
		// for scores under high key reuse) would report D up to 1.0
		// instead of 0 and drive spurious drift detections.
		v := k.ref[i]
		if recent[j] < v {
			v = recent[j]
		}
		for i < n && k.ref[i] == v {
			i++
		}
		for j < m && recent[j] == v {
			j++
		}
		if diff := math.Abs(float64(i)/float64(n) - float64(j)/float64(m)); diff > d {
			d = diff
		}
	}
	return d
}

// Drifted reports whether the KS distance exceeds the critical value
// c(alpha) * sqrt((n+m)/(n*m)).
func (k *KSWindow) Drifted() bool {
	if !k.frozen || !k.full {
		return false
	}
	n, m := float64(len(k.ref)), float64(len(k.win))
	return k.Statistic() > ksCrit*math.Sqrt((n+m)/(n*m))
}

// Reset clears both samples (reference rebuilds from the stream).
func (k *KSWindow) Reset() {
	k.ref = k.ref[:0]
	k.frozen = false
	k.idx = 0
	k.full = false
}

// ReuseDrift watches live key reuse against the cache plan's estimated
// hit rate. Each full window of sampled key hashes yields one observed
// reuse measurement (1 - distinct/window, the same estimator the planner
// ran over training keys); a run of consecutive windows outside the
// tolerance band trips the detector — the hysteresis that keeps one
// anomalous window from triggering a re-fit.
type ReuseDrift struct {
	window   []uint64
	n        int
	expected float64
	haveExp  bool
	need     int

	strikes  int
	observed float64
	haveObs  bool
}

// reuseTolerance is the allowed |observed - expected| hit-rate gap.
const reuseTolerance = 0.2

// NewReuseDrift returns a detector. window is the sample count per
// measurement (default 256), need the consecutive out-of-band windows
// required (default 2).
func NewReuseDrift(window, need int) *ReuseDrift {
	if window <= 0 {
		window = 256
	}
	if need <= 0 {
		need = 2
	}
	return &ReuseDrift{window: make([]uint64, window), need: need}
}

// SetExpected installs the plan's estimated hit rate as the reference.
// Without one, the first full window's observation becomes the baseline
// (pipelines loaded from artifacts persist capacities, not estimates).
func (r *ReuseDrift) SetExpected(e float64) {
	r.expected = e
	r.haveExp = true
	r.strikes = 0
}

// Add folds one sampled key hash and reports whether the detector has
// tripped. Evaluation happens once per full window, so the per-sample
// cost is one store.
func (r *ReuseDrift) Add(h uint64) bool {
	r.window[r.n] = h
	r.n++
	if r.n < len(r.window) {
		return r.strikes >= r.need
	}
	r.n = 0
	distinct := make(map[uint64]struct{}, len(r.window))
	for _, k := range r.window {
		distinct[k] = struct{}{}
	}
	r.observed = 1 - float64(len(distinct))/float64(len(r.window))
	r.haveObs = true
	if !r.haveExp {
		r.SetExpected(r.observed)
		return false
	}
	if math.Abs(r.observed-r.expected) > reuseTolerance {
		r.strikes++
	} else {
		r.strikes = 0
	}
	return r.strikes >= r.need
}

// Observed returns the last full-window reuse measurement.
func (r *ReuseDrift) Observed() (float64, bool) { return r.observed, r.haveObs }

// Expected returns the reference hit rate the detector compares against.
func (r *ReuseDrift) Expected() (float64, bool) { return r.expected, r.haveExp }

// Reset clears observations and strikes, keeping the expected rate.
func (r *ReuseDrift) Reset() {
	r.n = 0
	r.strikes = 0
	r.haveObs = false
}

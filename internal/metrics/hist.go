package metrics

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Hist is the repository's one latency histogram: log-linear (HDR-style)
// buckets over nanoseconds with lock-free concurrent recording. Durations
// below 64 ns land in exact unit-wide buckets; above that each power-of-two
// octave is split into 32 linear sub-buckets, so a reconstructed quantile
// is within 1/32 (~3.1%) of the sample it stands for, up to histLimit
// (~73 minutes; anything slower shares the top bucket). All counters are
// atomic: writers record without coordination and a reader may walk the
// buckets mid-run, seeing at worst the skew of the observations in flight.
//
// Serving stats, /metrics bucket series, the canary guard, the store
// client's hedger and the load generator all read this one type, so a
// server-side p99 and a client-side p99 are the same estimator. The zero
// value is an empty histogram ready for use; a Hist must not be copied
// after first use.
type Hist struct {
	buckets   [histBuckets]atomic.Int64
	count     atomic.Int64
	sum       atomic.Int64
	max       atomic.Int64
	min1      atomic.Int64 // smallest observation + 1 (0 while empty): where a bucket walk starts
	underflow atomic.Int64 // negative durations (clock steps); counted, not bucketed
}

const (
	histSubBits   = 5  // 32 linear sub-buckets per octave
	histExactBits = 6  // values < 64 recorded exactly
	histTopBits   = 42 // octaves up to [2^41, 2^42) ns
	histSubCount  = 1 << histSubBits
	histExact     = 1 << histExactBits
	histLimit     = int64(1) << histTopBits
	histBuckets   = histExact + (histTopBits-histExactBits)*histSubCount
)

func histIndex(v int64) int {
	if v < histExact {
		return int(v)
	}
	if v >= histLimit {
		return histBuckets - 1
	}
	k := 63 - bits.LeadingZeros64(uint64(v)) // floor(log2 v), >= histExactBits
	sub := int((v >> (uint(k) - histSubBits)) & (histSubCount - 1))
	return histExact + (k-histExactBits)*histSubCount + sub
}

// histValue reconstructs a representative value (bucket midpoint) for index i.
func histValue(i int) int64 {
	if i < histExact {
		return int64(i)
	}
	i -= histExact
	k := histExactBits + i/histSubCount
	sub := i % histSubCount
	lo := (int64(1) << uint(k)) + int64(sub)<<(uint(k)-histSubBits)
	return lo + (int64(1) << (uint(k) - histSubBits - 1)) // midpoint of sub-bucket
}

// Observe records one duration. Negative durations are counted as underflow
// so totals stay balanced even under clock adjustments.
func (h *Hist) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		h.underflow.Add(1)
		h.count.Add(1)
		return
	}
	// min1 before the bucket: a reader that sees the count also sees a
	// starting point at or below it.
	for {
		cur := h.min1.Load()
		if (cur != 0 && v+1 >= cur) || h.min1.CompareAndSwap(cur, v+1) {
			break
		}
	}
	h.buckets[histIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of recorded observations.
func (h *Hist) Count() int64 { return h.count.Load() }

// Sum returns the total of the recorded non-negative durations.
func (h *Hist) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the largest recorded duration, exactly (0 if empty).
func (h *Hist) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the mean of the recorded non-negative durations (0 if empty).
func (h *Hist) Mean() time.Duration {
	n := h.count.Load() - h.underflow.Load()
	if n <= 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile returns the duration at quantile q in [0,1] by the repository's
// one rank rule: nearest rank, the ceil(q·n)-th smallest of n observations
// (at least the first). The answer is that observation's bucket midpoint,
// except that the top rank — q = 1, or any q whose rank is n — is the exact
// maximum and no answer exceeds it. Underflowed observations rank below
// zero and read as 0; an empty histogram reads 0.
func (h *Hist) Quantile(q float64) time.Duration {
	var out [1]time.Duration
	h.Quantiles(out[:], q)
	return out[0]
}

// Quantiles writes the quantiles qs, which must be ascending, into out (at
// least as long) from one pass over the buckets, without allocating.
func (h *Hist) Quantiles(out []time.Duration, qs ...float64) {
	quantiles([]*Hist{h}, out, qs)
}

// quantiles answers ascending qs over the sum of hs in one bucket walk.
func quantiles(hs []*Hist, out []time.Duration, qs []float64) {
	var total, under, top int64
	var low int64 // smallest observation + 1 over hs, 0 while all are empty
	for _, h := range hs {
		total += h.count.Load()
		under += h.underflow.Load()
		top = max(top, h.max.Load())
		if m := h.min1.Load(); m != 0 && (low == 0 || m < low) {
			low = m
		}
	}
	i, cum := histIndex(max(low, 1)-1)-1, under // buckets 0..i are folded into cum (so far all empty)
	for k, q := range qs {
		rank := int64(math.Ceil(q*float64(total) - 1e-9)) // the slack absorbs q·n landing a hair above an integer
		if rank < 1 {
			rank = 1
		}
		switch {
		case total == 0 || rank <= under:
			out[k] = 0
		case rank >= total:
			out[k] = time.Duration(top)
		default:
			for cum < rank && i < histBuckets-1 {
				i++
				for _, h := range hs {
					cum += h.buckets[i].Load()
				}
			}
			out[k] = time.Duration(min(histValue(i), top))
		}
	}
}

// CountsLE folds the fine buckets under ascending upper bounds, Prometheus
// style: element i counts the observations above bounds[i-1] and at most
// bounds[i], and one final element those above every bound, so the
// elements sum to Count. A fine bucket is never split: one that straddles
// a bound counts wholly under it, so an observation exactly on a bound is
// always counted under that bound and each element is off by at most one
// sub-bucket's worth of observations (values within 1/32 above the bound).
func (h *Hist) CountsLE(bounds []time.Duration) []int64 {
	out := make([]int64, len(bounds)+1)
	out[0] = h.underflow.Load()
	i := 0
	for j, b := range bounds {
		for end := histIndex(int64(b)); i <= end; i++ {
			out[j] += h.buckets[i].Load()
		}
	}
	for ; i < histBuckets; i++ {
		out[len(bounds)] += h.buckets[i].Load()
	}
	return out
}

// slidingEpochs is how many Hist epochs a Sliding rotates through.
const slidingEpochs = 4

// Sliding is a Hist over the most recent observations, safe for concurrent
// use: a ring of slidingEpochs histograms rotated by count. An observation
// goes to the current epoch; when that holds its share of the window the
// oldest epoch is emptied and becomes current. A read sums the epochs, so
// it covers between (E−1)/E·N and N of the latest observations, costs one
// walk over the buckets and allocates nothing, and memory is fixed
// (slidingEpochs × ~9.5 KB) no matter how long the server runs.
type Sliding struct {
	mu     sync.Mutex
	epochs [slidingEpochs]Hist
	per    int64 // observations per epoch
	cur    int
	total  int64 // observations ever recorded
}

// NewSliding returns a window over the last n observations (rounded up to
// a multiple of the epoch count).
func NewSliding(n int) *Sliding {
	return &Sliding{per: int64(max(1, (n+slidingEpochs-1)/slidingEpochs))}
}

// Observe records one duration, evicting the oldest epoch when the current
// one is full.
func (s *Sliding) Observe(d time.Duration) {
	s.mu.Lock()
	if s.epochs[s.cur].Count() >= s.per {
		s.cur = (s.cur + 1) % slidingEpochs
		s.epochs[s.cur] = Hist{}
	}
	s.epochs[s.cur].Observe(d)
	s.total++
	s.mu.Unlock()
}

// Reset drops the windowed observations so a new judgement interval starts
// from an empty window; the ever-recorded total is kept.
func (s *Sliding) Reset() {
	s.mu.Lock()
	for i := range s.epochs {
		s.epochs[i] = Hist{}
	}
	s.cur = 0
	s.mu.Unlock()
}

// Total returns the number of observations ever recorded (not just those
// still in the window).
func (s *Sliding) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Quantile is Hist.Quantile over the windowed observations.
func (s *Sliding) Quantile(q float64) time.Duration {
	var out [1]time.Duration
	s.Quantiles(out[:], q)
	return out[0]
}

// Quantiles is Hist.Quantiles over the windowed observations: every
// quantile is computed over the same set, in one pass.
func (s *Sliding) Quantiles(out []time.Duration, qs ...float64) {
	var hs [slidingEpochs]*Hist
	s.mu.Lock()
	for i := range s.epochs {
		hs[i] = &s.epochs[i]
	}
	quantiles(hs[:], out, qs)
	s.mu.Unlock()
}

package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// nearestRank is the rank rule Hist documents, computed exactly: the
// ceil(q·n)-th smallest of the sorted samples, at least the first.
func nearestRank(sorted []time.Duration, q float64) time.Duration {
	rank := int(math.Ceil(q*float64(len(sorted)) - 1e-9))
	return sorted[max(rank, 1)-1]
}

// bucketWidth is the width of the fine bucket d falls in.
func bucketWidth(d time.Duration) time.Duration {
	i := histIndex(int64(d))
	if i < histExact {
		return 1
	}
	k := histExactBits + (i-histExact)/histSubCount
	return time.Duration(1) << (uint(k) - histSubBits)
}

// TestHistRankRule pins the one rank rule against exact nearest-rank on the
// sorted samples: within the sample's own bucket for every (n, q), the
// exact maximum at q = 1, the minimum's bucket at q = 0, 0 when empty.
func TestHistRankRule(t *testing.T) {
	var empty Hist
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 100, 1000} {
		var h Hist
		samples := make([]time.Duration, n)
		for i := range samples {
			samples[i] = time.Duration(50_000 + rng.Int63n(5_000_000)) // 50µs..5ms
			h.Observe(samples[i])
		}
		sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
			want := nearestRank(samples, q)
			got := h.Quantile(q)
			w := bucketWidth(want)
			if diff := (got - want).Abs(); diff > w {
				t.Errorf("n=%d q=%v: got %v, exact %v, off by %v > bucket width %v", n, q, got, want, diff, w)
			}
			if got > samples[n-1] {
				t.Errorf("n=%d q=%v: %v exceeds the maximum %v", n, q, got, samples[n-1])
			}
		}
		if got := h.Quantile(1); got != samples[n-1] || got != h.Max() {
			t.Errorf("n=%d: q=1 = %v, want the exact maximum %v", n, got, samples[n-1])
		}
		if got, lo := h.Quantile(0), samples[0]; n > 1 && histIndex(int64(got)) != histIndex(int64(lo)) {
			t.Errorf("n=%d: q=0 = %v is outside the minimum's bucket (%v)", n, got, lo)
		}
	}
}

// TestHistQuantileAccuracy is the error bound as a property: on log-uniform
// latencies from 1µs to 10s every reconstructed quantile is within 1/32 of
// the exact nearest-rank sample, and several quantiles read in one pass
// agree with reading them one at a time.
func TestHistQuantileAccuracy(t *testing.T) {
	qs := []float64{0.5, 0.9, 0.99, 0.999}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h Hist
		const n = 20000
		samples := make([]time.Duration, n)
		for i := range samples {
			// exp(U(ln 1µs, ln 10s)): seven decades.
			samples[i] = time.Duration(1e3 * math.Exp(rng.Float64()*math.Log(1e7)))
			h.Observe(samples[i])
		}
		sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
		var all [4]time.Duration
		h.Quantiles(all[:], qs...)
		for k, q := range qs {
			exact, got := nearestRank(samples, q), h.Quantile(q)
			if rel := math.Abs(float64(got-exact)) / float64(exact); rel > 1.0/32 {
				t.Errorf("seed %d q=%v: got %v, exact %v (rel err %.4f > 1/32)", seed, q, got, exact, rel)
			}
			if all[k] != got {
				t.Errorf("seed %d q=%v: one-pass read %v != single read %v", seed, q, all[k], got)
			}
		}
		if h.Count() != n {
			t.Errorf("count %d, want %d", h.Count(), n)
		}
		var sum time.Duration
		for _, s := range samples {
			sum += s
		}
		if h.Sum() != sum || h.Mean() != sum/n {
			t.Errorf("sum %v mean %v, want %v and %v", h.Sum(), h.Mean(), sum, sum/n)
		}
	}
}

// TestHistSmallExact pins that values below 64 ns are recorded exactly.
func TestHistSmallExact(t *testing.T) {
	var h Hist
	for v := time.Duration(0); v < 64; v++ {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); got != 31 {
		t.Errorf("median of 0..63 = %d, want 31 (the 32nd smallest)", got)
	}
	if got := h.Max(); got != 63 {
		t.Errorf("max %d, want 63", got)
	}
}

// TestHistTopBucket pins the range: durations past histLimit share the top
// bucket, and the exact maximum still bounds every answer.
func TestHistTopBucket(t *testing.T) {
	var h Hist
	h.Observe(time.Duration(histLimit) * 4)
	h.Observe(time.Duration(histLimit) * 8)
	if got := h.Quantile(1); got != time.Duration(histLimit)*8 {
		t.Errorf("max = %v, want %v", got, time.Duration(histLimit)*8)
	}
	if got := h.Quantile(0.5); got < time.Duration(histLimit)/2 || got > time.Duration(histLimit) {
		t.Errorf("p50 = %v, want the top bucket's midpoint", got)
	}
}

// TestHistConcurrent exercises the lock-free recording path; run under
// -race this pins that writers never need coordination.
func TestHistConcurrent(t *testing.T) {
	var h Hist
	var wg sync.WaitGroup
	const workers, per = 8, 10000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(rng.Int63n(1 << 30)))
				if i%1000 == 0 {
					h.Quantile(0.99)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Errorf("count %d, want %d", h.Count(), workers*per)
	}
}

// TestHistUnderflow pins that negative observations keep totals balanced
// instead of panicking or skewing quantiles upward.
func TestHistUnderflow(t *testing.T) {
	var h Hist
	h.Observe(-5)
	h.Observe(100)
	if h.Count() != 2 {
		t.Errorf("count %d, want 2", h.Count())
	}
	if got := h.Quantile(0.25); got != 0 {
		t.Errorf("quantile below underflow rank = %d, want 0", got)
	}
	if got := h.CountsLE([]time.Duration{50, 200}); got[0] != 1 || got[1] != 1 || got[2] != 0 {
		t.Errorf("CountsLE = %v, want the underflow under the first bound", got)
	}
}

// TestHistCountsLE pins the fold under coarse bounds: a value exactly on a
// bound counts under it, one more than a sub-bucket above it does not, the
// running sum is monotone and ends at Count.
func TestHistCountsLE(t *testing.T) {
	bounds := []time.Duration{10 * time.Microsecond, 50 * time.Microsecond, time.Millisecond, time.Second}
	var h Hist
	for _, d := range []time.Duration{
		5 * time.Microsecond,            // first bound
		10 * time.Microsecond,           // on the first bound's edge
		10*time.Microsecond + 10_000/16, // two sub-buckets past it
		30 * time.Microsecond,           // second bound
		time.Millisecond,                // on the third bound's edge
		10 * time.Second,                // +Inf
	} {
		h.Observe(d)
	}
	got := h.CountsLE(bounds)
	want := []int64{2, 2, 1, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("CountsLE has %d elements, want %d", len(got), len(want))
	}
	var cum int64
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CountsLE = %v, want %v", got, want)
		}
		cum += got[i]
	}
	if cum != h.Count() {
		t.Errorf("elements sum to %d, Count is %d", cum, h.Count())
	}

	// Against exact counting on random data: each cumulative count differs
	// from the exact one only by observations within 1/32 above the bound.
	rng := rand.New(rand.NewSource(3))
	var r Hist
	samples := make([]time.Duration, 5000)
	for i := range samples {
		samples[i] = time.Duration(1e3 * math.Exp(rng.Float64()*math.Log(1e7)))
		r.Observe(samples[i])
	}
	counts := r.CountsLE(bounds)
	cum = 0
	for j, b := range bounds {
		cum += counts[j]
		var exact, slack int64
		for _, s := range samples {
			switch {
			case s <= b:
				exact++
			case s <= b+b/32:
				slack++
			}
		}
		if cum < exact || cum > exact+slack {
			t.Errorf("le=%v: %d observations, exact %d (+%d within a sub-bucket)", b, cum, exact, slack)
		}
	}
	if cum+counts[len(bounds)] != r.Count() {
		t.Errorf("last cumulative count %d != Count %d", cum+counts[len(bounds)], r.Count())
	}
}

func TestSlidingQuantiles(t *testing.T) {
	s := NewSliding(100)
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("empty window quantile = %v, want 0", got)
	}
	for i := 1; i <= 100; i++ {
		s.Observe(time.Duration(i) * time.Millisecond)
	}
	if got, want := s.Quantile(0.5), 50*time.Millisecond; (got - want).Abs() > want/32 {
		t.Errorf("p50 = %v, want %v within 1/32", got, want)
	}
	if got, want := s.Quantile(0.99), 99*time.Millisecond; (got - want).Abs() > want/32 {
		t.Errorf("p99 = %v, want %v within 1/32", got, want)
	}
	if got := s.Quantile(1); got != 100*time.Millisecond {
		t.Errorf("p100 = %v, want the exact maximum 100ms", got)
	}
	if got := s.Total(); got != 100 {
		t.Errorf("Total = %d, want 100", got)
	}
	// The walk starts at the smallest observation of any epoch, zero included.
	z := NewSliding(8)
	for _, d := range []time.Duration{0, 0, time.Millisecond, time.Millisecond} {
		z.Observe(d)
	}
	if got := z.Quantile(0.25); got != 0 {
		t.Errorf("p25 of {0, 0, 1ms, 1ms} = %v, want 0", got)
	}
}

// TestSlidingCoversLastN: after 10·N increasing observations every quantile
// lies inside the last N, the oldest observation still counted is no older
// than the last (E−1)/E·N, and Reset empties the window but keeps Total.
func TestSlidingCoversLastN(t *testing.T) {
	const n = 512
	s := NewSliding(n)
	us := func(i int) time.Duration { return time.Duration(i) * time.Microsecond }
	for i := 1; i <= 10*n; i++ {
		s.Observe(us(i))
		if i < n || i%37 != 0 {
			continue
		}
		lo := s.Quantile(0)
		// Midpoints are within 1/64 of the sample they stand for.
		if oldest := us(i - n + 1); lo < oldest-oldest/64 {
			t.Fatalf("after %d observations p0 = %v reaches back past the last %d (%v)", i, lo, n, oldest)
		}
		if newest := us(i - (slidingEpochs-1)*n/slidingEpochs + 1); lo > newest+newest/64 {
			t.Fatalf("after %d observations p0 = %v: window holds fewer than %d of the latest", i, lo, (slidingEpochs-1)*n/slidingEpochs)
		}
		if hi := s.Quantile(1); hi != us(i) {
			t.Fatalf("after %d observations p100 = %v, want the newest %v", i, hi, us(i))
		}
	}
	var qs [4]time.Duration
	s.Quantiles(qs[:], 0.5, 0.9, 0.99, 0.999)
	for k, q := range qs {
		if q < us(9*n) || q > us(10*n) {
			t.Errorf("quantile %d = %v lies outside the last %d observations", k, q, n)
		}
	}
	s.Reset()
	if got := s.Quantile(0.99); got != 0 {
		t.Errorf("p99 after Reset = %v, want 0", got)
	}
	if got := s.Total(); got != 10*n {
		t.Errorf("Total after Reset = %d, want %d", got, 10*n)
	}
	s.Observe(time.Second)
	if got := s.Quantile(0.5); got != time.Second {
		t.Errorf("p50 of the one observation since Reset = %v, want 1s", got)
	}
}

func TestSlidingConcurrent(t *testing.T) {
	s := NewSliding(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Observe(time.Millisecond)
				s.Quantile(0.5)
			}
		}()
	}
	wg.Wait()
	if got := s.Total(); got != 800 {
		t.Errorf("Total = %d, want 800", got)
	}
}

// TestSlidingConcurrentQuantiles hammers Observe against the multi-quantile
// reader and Reset (the stats scrape and canary-start paths) from many
// goroutines; correctness here is primarily the race detector's to judge,
// plus basic invariants on every read.
func TestSlidingConcurrentQuantiles(t *testing.T) {
	s := NewSliding(128)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				s.Observe(time.Duration(g*500+i+1) * time.Microsecond)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var qs [4]time.Duration
				s.Quantiles(qs[:], 0.5, 0.9, 0.99, 0.999)
				for i := 1; i < len(qs); i++ {
					if qs[i] < qs[i-1] {
						t.Errorf("quantiles not monotone: %v", qs)
						return
					}
				}
				if qs[3] > 2000*time.Microsecond {
					t.Errorf("p99.9 = %v exceeds every observation", qs[3])
					return
				}
				if g == 0 {
					s.Reset()
				}
			}
		}(g)
	}
	writers.Wait() // readers keep scraping while every write lands
	close(stop)
	readers.Wait()
	if got := s.Total(); got != 2000 {
		t.Errorf("Total = %d, want 2000", got)
	}
}

// TestQuantilesAllocFree pins that reads neither allocate nor sort: they are
// on the hedged-lookup and stats paths.
func TestQuantilesAllocFree(t *testing.T) {
	var h Hist
	s := NewSliding(256)
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
		s.Observe(time.Duration(i) * time.Microsecond)
	}
	var qs [4]time.Duration
	if a := testing.AllocsPerRun(100, func() {
		h.Quantiles(qs[:], 0.5, 0.9, 0.99, 0.999)
		s.Quantiles(qs[:], 0.5, 0.9, 0.99, 0.999)
		_ = h.Quantile(0.9) + s.Quantile(0.9)
	}); a != 0 {
		t.Errorf("quantile reads allocate %.1f/op, want 0", a)
	}
}

func BenchmarkSlidingObserve(b *testing.B) {
	s := NewSliding(2048)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		s.Observe(time.Duration(50_000 + i%4096*100))
	}
}

func BenchmarkSlidingQuantile(b *testing.B) {
	s := NewSliding(1024)
	for i := 0; i < 4096; i++ {
		s.Observe(time.Duration(400_000 + i%1024*300))
	}
	b.ReportAllocs()
	for b.Loop() {
		s.Quantile(0.9)
	}
}

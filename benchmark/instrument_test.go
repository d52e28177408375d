package main

// Tests of the instrument itself. They feed it fixed numbers: no sleeps, no
// wall-clock assertions.

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1) // 1..100
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
}

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMedianOfWindows(t *testing.T) {
	if got := median([]float64{5, 1, 9, 3, 7}); got != 5 {
		t.Errorf("median of five = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
	// One wild window does not move the reported number.
	ws := make([]window, 5)
	for k := range ws {
		ws[k] = window{rows: 1000, dur: int64(time.Second)}
	}
	ws[2].rows = 10
	if got := rowsPerSecond(ws); got != 1000 {
		t.Errorf("rowsPerSecond with one slow window = %v, want 1000", got)
	}
}

func TestWindowsAreConvertedToNominalSpeedOneByOne(t *testing.T) {
	// Five CPU-bound windows (one caller, on the CPU throughout) of the same
	// program: three on an undisturbed machine, two while it ran at half
	// speed and everything took twice as long. At nominal speed all five read
	// the same; as measured, the two slow ones stand apart.
	var ws []window
	for k := 0; k < 5; k++ {
		w := window{lat: ramp(100, 1000), rows: 1000, dur: 1e9, cpu: 1e9, speed: 1, callers: 1}
		if k >= 3 {
			w = window{lat: ramp(100, 2000), rows: 500, dur: 1e9, cpu: 1e9, speed: 0.5, callers: 1}
		}
		ws = append(ws, w)
	}
	for k, w := range ws {
		if got := float64(w.rows) / w.nominal(float64(w.dur)/1e9); got != 1000 {
			t.Errorf("window %d: %v rows/s at nominal speed, want 1000", k, got)
		}
	}
	if p50, _, _, _ := latencySummary(ws[3:]); p50 != 50 {
		t.Errorf("p50 of the slow windows at nominal speed = %v us, want 50", p50)
	}
	raw := asMeasured(ws)
	if got := rowsPerSecond(raw[3:]); got != 500 {
		t.Errorf("slow windows as measured = %v rows/s, want 500", got)
	}
	if ws[3].speed != 0.5 {
		t.Error("asMeasured changed the windows it was given")
	}
	// A window that mostly waits (a tenth of its time on the CPU) is hardly
	// rescaled, and an uncalibrated one not at all.
	waits := window{dur: 1e9, cpu: 1e8, speed: 0.5, callers: 1}
	if got := waits.nominal(100); math.Abs(got-95) > 1e-9 {
		t.Errorf("mostly waiting window: 100 reads %v at nominal speed, want 95", got)
	}
	if got := (window{dur: 1e9, cpu: 1e9, callers: 1}).nominal(100); got != 100 {
		t.Errorf("uncalibrated window: 100 reads %v, want 100", got)
	}
}

func ramp(n int, step int64) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i+1) * step
	}
	return s
}

func TestLatencySummaryPerWindowOrPooled(t *testing.T) {
	// Windows of 1000 samples support p99: median of the per-window values.
	var big []window
	for k := 1; k <= 5; k++ {
		big = append(big, window{lat: ramp(1000, int64(k)*1000)}) // p50 = 500k us, p99 = 990k us
	}
	p50, p99, n, pooled := latencySummary(big)
	if p50 != 1500 || p99 != 2970 || n != 5000 || pooled {
		t.Errorf("per-window summary = p50 %v p99 %v n %d pooled %v, want 1500 2970 5000 false", p50, p99, n, pooled)
	}
	// Windows of 300 samples do not: p99 comes from the pooled 1500.
	var small []window
	for k := 0; k < 5; k++ {
		small = append(small, window{lat: ramp(300, 1000)})
	}
	p50, p99, n, pooled = latencySummary(small)
	if p50 != 150 || p99 != 297 || n != 1500 || !pooled {
		t.Errorf("pooled summary = p50 %v p99 %v n %d pooled %v, want 150 297 1500 true", p50, p99, n, pooled)
	}
}

func TestPoissonScheduleDeterministicPerSeed(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 2000, 3*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 2000, 3*time.Second)
	c := poissonSchedule(rand.New(rand.NewSource(8)), 2000, 3*time.Second)
	if !slices.Equal(a, b) {
		t.Error("same seed gave different schedules")
	}
	if slices.Equal(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	if !slices.IsSorted(a) || a[len(a)-1] >= int64(3*time.Second) {
		t.Error("schedule is not ascending within its duration")
	}
	// 6000 expected arrivals, standard deviation about 77.
	if n := len(a); n < 5600 || n > 6400 {
		t.Errorf("%d arrivals at 2000 QPS over 3 s, want about 6000", n)
	}
}

func TestScheduledTimeLatencyAndLateness(t *testing.T) {
	// Sender was free at 90, request due at 100, generator sent it at 130,
	// reply at 400: the generator was 30 late, and that is not latency.
	free := sent{due: 100, ready: 90, sentAt: 130, done: 400}
	if free.wait() != 30 || free.genLag() != 30 || free.latency() != 270 {
		t.Errorf("free sender: wait %d lag %d latency %d, want 30 30 270", free.wait(), free.genLag(), free.latency())
	}
	// Sender busy until 250 with the request due at 100: the 150 it waited
	// for a connection is the system's doing and counts as latency; only the
	// 10 after the sender came free is the generator's.
	busy := sent{due: 100, ready: 250, sentAt: 260, done: 500}
	if busy.wait() != 160 || busy.genLag() != 10 || busy.latency() != 390 {
		t.Errorf("busy sender: wait %d lag %d latency %d, want 160 10 390", busy.wait(), busy.genLag(), busy.latency())
	}
}

func TestSummariseRate(t *testing.T) {
	// 6 slots of 1000 ns; one request per ns-tick would be too many, so place
	// 20 requests per slot, each answered 50 after it was due; the first
	// slot is warm-up. The last window's requests are sent 7 late because
	// their sender was busy.
	slot := time.Duration(1000)
	var reqs []sent
	for k := 0; k < rateWindows+1; k++ {
		for j := 0; j < 20; j++ {
			due := int64(k)*1000 + int64(j)*50 + 5
			s := sent{due: due, ready: due - 1, sentAt: due, done: due + 50, ok: true}
			if k == rateWindows {
				s.ready, s.sentAt, s.done = due+7, due+7, due+57
			}
			reqs = append(reqs, s)
		}
	}
	reqs[25].ok = false // one failure in the first timed window
	r := summariseRate(1000, reqs, slot, slot)
	if r.attempted != 100 || r.notOK != 1 || r.samples != 99 {
		t.Errorf("attempted %d notOK %d samples %d, want 100 1 99", r.attempted, r.notOK, r.samples)
	}
	if r.p50us != 0.05 {
		t.Errorf("p50 = %v us, want 0.05", r.p50us)
	}
	if r.lastWaitMeanUs != 0.007 {
		t.Errorf("last-window wait = %v us, want 0.007", r.lastWaitMeanUs)
	}
	if r.lagP99us != 0 {
		t.Errorf("generator lag p99 = %v us, want 0: the waits were for a busy sender", r.lagP99us)
	}
	if r.met() {
		t.Error("rate met with 1 of 100 requests failed; the limit is 99.9 % ok")
	}
	reqs[25].ok = true
	if r := summariseRate(1000, reqs, slot, slot); !r.met() {
		t.Errorf("rate not met: %+v", r)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	// Two requests. Children are re-issued after the root returns, so their
	// intervals lie outside it; self time subtracts durations.
	spans := []span{
		{Req: 1, Span: 1, Parent: 0, Name: "core.predict", Start: 0, End: 100},
		{Req: 1, Span: 2, Parent: 1, Name: "weld.features", Start: 100, End: 160},
		{Req: 1, Span: 3, Parent: 1, Name: "model.score", Start: 160, End: 190},
		{Req: 2, Span: 4, Parent: 0, Name: "core.predict", Start: 200, End: 320},
		{Req: 2, Span: 5, Parent: 4, Name: "weld.features", Start: 320, End: 400},
		{Req: 2, Span: 6, Parent: 5, Name: "store.lookup", Start: 400, End: 450}, // grandchild
	}
	self, root, roots := selfTimes(spans)
	if root != 220 || roots != 2 {
		t.Fatalf("root total %d over %d roots, want 220 over 2", root, roots)
	}
	want := map[string]int64{"core.predict": 10 + 40, "weld.features": 60 + 30, "model.score": 30, "store.lookup": 50}
	var sum int64
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
		sum += self[name]
	}
	if sum != root {
		t.Errorf("self times sum to %d, root is %d", sum, root)
	}
	// Children that cost more re-issued than inside the parent show as a
	// negative self time rather than being hidden.
	over := []span{
		{Req: 1, Span: 1, Name: "core.predict", Start: 0, End: 50},
		{Req: 1, Span: 2, Parent: 1, Name: "weld.features", Start: 50, End: 120},
	}
	self, root, _ = selfTimes(over)
	if self["core.predict"] != -20 || self["core.predict"]+self["weld.features"] != root {
		t.Errorf("over-long child: self %v root %d", self, root)
	}
}

func TestRecorderParentsAndIds(t *testing.T) {
	var rec recorder
	root := rec.begin(3, 0, "root")
	rec.end(root)
	child := rec.begin(3, root, "child")
	rec.end(child)
	fixed := rec.add(3, root, "counter", 10, 25)
	if root != 1 || child != 2 || fixed != 3 {
		t.Fatalf("ids %d %d %d, want 1 2 3", root, child, fixed)
	}
	for i, s := range rec.spans {
		if s.Span != i+1 || s.Req != 3 || s.End < s.Start {
			t.Errorf("span %d: %+v", i, s)
		}
	}
	if rec.spans[1].Parent != root || rec.spans[2].End-rec.spans[2].Start != 15 {
		t.Errorf("child parent or counter span wrong: %+v", rec.spans)
	}
}

func TestDigestDependsOnInputs(t *testing.T) {
	a, b, c := newDigest(), newDigest(), newDigest()
	a.ints(1, 2, 3)
	b.ints(1, 2, 3)
	c.ints(1, 3, 2)
	if a.String() != b.String() || a.String() == c.String() {
		t.Errorf("digests %s %s %s", a, b, c)
	}
}

func TestAtNominalRescalesOnlyTheCPUShare(t *testing.T) {
	// A machine at 0.8 of nominal speed: a CPU-bound 100 reads 80 at nominal,
	// a pure wait stays 100, half and half reads 90.
	for _, c := range []struct{ share, want float64 }{{1, 80}, {0, 100}, {0.5, 90}} {
		if got := atNominal(100, c.share, 0.8); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("atNominal(100, %v, 0.8) = %v, want %v", c.share, got, c.want)
		}
	}
	if got := atNominal(100, 1, 1); got != 100 {
		t.Errorf("at nominal speed a time must not change, got %v", got)
	}
}

func TestCPUShare(t *testing.T) {
	if got := cpuShare(500, 1000, 1); got != 0.5 {
		t.Errorf("cpuShare = %v, want 0.5", got)
	}
	if got := cpuShare(1800, 1000, 2); got != 0.9 {
		t.Errorf("two callers: cpuShare = %v, want 0.9", got)
	}
	if got := cpuShare(1500, 1000, 1); got != 1 {
		t.Errorf("background GC must not push the share past 1, got %v", got)
	}
	r := closedResult{wins: []window{{cpu: 300, dur: 1000, speed: 0.5, callers: 1}, {cpu: 500, dur: 1000, speed: 1, callers: 1}}}
	if got := r.cpuShare(); got != 0.4 {
		t.Errorf("closedResult.cpuShare = %v, want 0.4", got)
	}
	if got := r.speed(); got != 0.75 {
		t.Errorf("closedResult.speed = %v, want 0.75", got)
	}
	// Windows of another set-up are added to the same measurement.
	r.merge(closedResult{wins: []window{{cpu: 1600, dur: 1000, callers: 2}}, attempted: 7, failed: 1, mem: memDelta{mallocs: 5}})
	if got := r.cpuShare(); got != 0.6 {
		t.Errorf("merged cpuShare = %v, want 0.6 (2400 of 4000 caller-ns)", got)
	}
	if len(r.wins) != 3 || r.attempted != 7 || r.failed != 1 || r.mem.mallocs != 5 {
		t.Errorf("merged result: %+v", r)
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, "lower"); got != 0.1 {
		t.Errorf("lower-is-better 100->110 worse by %v, want 0.1", got)
	}
	if got := worseBy(100, 90, "higher"); got != 0.1 {
		t.Errorf("higher-is-better 100->90 worse by %v, want 0.1", got)
	}
	if got := worseBy(100, 120, "higher"); got >= 0 {
		t.Errorf("higher-is-better 100->120 worse by %v, want negative", got)
	}
}

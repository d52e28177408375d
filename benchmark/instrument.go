package main

// The measuring instrument: clock, percentiles, closed- and open-loop
// drivers, Poisson schedule, span arithmetic and input digests. It is kept
// free of the repo's own loadgen/metrics/trace/benchfmt packages so that it
// stays byte-identical while those are refactored.

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// windows is the number of timed windows of a closed-loop measurement and
// rateWindows that of one open-loop rate; every reported number is the median
// over them. The closed loop's are many and short so that each can be
// converted to nominal machine speed by the calibration slices on either side
// of it (see machineSpeed), and so that an untraced run can spread them over
// several set-ups of the workload (see runOne).
const (
	windows     = 20
	rateWindows = 5
)

var clockBase = time.Now()

// now returns monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(clockBase)) }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// tailLadder are the candidate tail percentiles, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// supportedTail returns the highest ladder percentile that has at least ten
// of n samples beyond it, or 50 when none has.
func supportedTail(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exactly 0.1
			return p
		}
	}
	return 50
}

// median returns the median of vs (mean of the two middle values when even).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// window is one timed window's raw result.
type window struct {
	lat  []int64 // per-call latency, ns, ascending
	rows int     // rows predicted (or candidates ranked) by completed calls
	dur  int64   // window length, ns
	cpu  int64   // process CPU time spent in the window, ns
	// speed is the machine's speed around the window relative to nominal, 0
	// when the measurement was not calibrated; callers is how many callers
	// shared cpu.
	speed   float64
	callers int
}

// nominal converts a time measured inside the window to nominal machine
// speed; a window that was not calibrated returns it as measured.
func (w window) nominal(t float64) float64 {
	if w.speed == 0 {
		return t
	}
	return atNominal(t, cpuShare(w.cpu, w.dur, w.callers), w.speed)
}

// latencySummary reduces windows to p50 and p99 in microseconds, each the
// median of the per-window percentiles, every calibrated window converted to
// nominal machine speed first. When single windows are too small to support
// p99 (fewer than ten samples beyond it) the pooled sample of all windows, as
// measured, is used for p99 instead; pooled reports which happened.
func latencySummary(ws []window) (p50us, p99us float64, samples int, pooled bool) {
	var p50s, p99s []float64
	perWindow := true
	for _, w := range ws {
		samples += len(w.lat)
		p50s = append(p50s, w.nominal(float64(percentile(w.lat, 50))/1e3))
		p99s = append(p99s, w.nominal(float64(percentile(w.lat, 99))/1e3))
		perWindow = perWindow && supportedTail(len(w.lat)) >= 99
	}
	if perWindow {
		return median(p50s), median(p99s), samples, false
	}
	all := make([]int64, 0, samples)
	for _, w := range ws {
		all = append(all, w.lat...)
	}
	slices.Sort(all)
	return median(p50s), float64(percentile(all, 99)) / 1e3, samples, true
}

// rowsPerSecond is the median over windows of rows completed per wall second,
// every calibrated window converted to nominal machine speed first.
func rowsPerSecond(ws []window) float64 {
	var v []float64
	for _, w := range ws {
		v = append(v, float64(w.rows)/w.nominal(float64(w.dur)/1e9))
	}
	return median(v)
}

// asMeasured returns the windows with their calibration dropped.
func asMeasured(ws []window) []window {
	out := slices.Clone(ws)
	for k := range out {
		out[k].speed = 0
	}
	return out
}

// memDelta is what the Go runtime did over the timed sections.
type memDelta struct {
	mallocs  uint64
	gcCycles uint32
	pauseNs  uint64
}

func (d *memDelta) add(before, after *runtime.MemStats) {
	d.mallocs += after.Mallocs - before.Mallocs
	d.gcCycles += after.NumGC - before.NumGC
	d.pauseNs += after.PauseTotalNs - before.PauseTotalNs
}

// opFunc runs operation i of the workload's pre-generated stream on behalf of
// one caller and returns the rows it predicted. An error is a failed
// operation (error, refusal or wrong output).
type opFunc func(ctx context.Context, caller, i int) (rows int, err error)

// closedResult is a closed-loop measurement.
type closedResult struct {
	wins      []window
	attempted int
	failed    int
	firstErr  error
	mem       memDelta
}

// merge adds another measurement's windows and counts to r.
func (r *closedResult) merge(o closedResult) {
	r.wins = append(r.wins, o.wins...)
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.mem.mallocs += o.mem.mallocs
	r.mem.gcCycles += o.mem.gcCycles
	r.mem.pauseNs += o.mem.pauseNs
}

// cpuShare is the share of the callers' wall time the process spent on the
// CPU over the timed windows, at most 1.
func (r closedResult) cpuShare() float64 {
	var cpu, wall int64
	for _, w := range r.wins {
		cpu += w.cpu
		wall += w.dur * int64(w.callers)
	}
	return cpuShare(cpu, wall, 1)
}

// speed is the mean machine speed over the windows.
func (r closedResult) speed() float64 {
	var sum float64
	for _, w := range r.wins {
		sum += w.speed
	}
	return sum / float64(max(len(r.wins), 1))
}

func cpuShare(cpuNs, wallNs int64, callers int) float64 {
	if wallNs <= 0 {
		return 0
	}
	return min(1, float64(cpuNs)/(float64(wallNs)*float64(callers)))
}

// closedLoop drives op from `callers` goroutines, each issuing its next call
// only after the previous one returned: a warm-up of length warm, then n
// separately timed windows of length win. Calls still in flight
// when a window's deadline passes are not counted. Sample buffers are reused across
// windows so the harness itself allocates nothing inside a window once warm.
// When calibrated, a calibration slice runs before each timed window and
// after the last, and every window carries the mean of the two around it.
func closedLoop(ctx context.Context, callers int, warm, win time.Duration, n int, op opFunc, calibrated bool) closedResult {
	var res closedResult
	var next atomic.Int64
	bufs := make([][]int64, callers)
	segment := func(d time.Duration) window {
		start := now()
		deadline := start + int64(d)
		rows := make([]int, callers)
		last := make([]int64, callers) // when each caller's last counted call returned
		fails := make([]int, callers)
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				buf := bufs[c][:0]
				for {
					i := int(next.Add(1) - 1)
					t0 := now()
					n, err := op(ctx, c, i)
					t1 := now()
					if t1 > deadline {
						break
					}
					if err != nil {
						fails[c]++
						if errs[c] == nil {
							errs[c] = err
						}
					} else {
						rows[c] += n
					}
					buf = append(buf, t1-t0)
					last[c] = t1
				}
				bufs[c] = buf
			}(c)
		}
		wg.Wait()
		// The window ends with the last counted call, not at the deadline, so
		// that throughput is not quantised by whole calls.
		w := window{dur: max(slices.Max(last)-start, 1), callers: callers}
		for c := 0; c < callers; c++ {
			w.lat = append(w.lat, bufs[c]...)
			w.rows += rows[c]
			res.failed += fails[c]
			if res.firstErr == nil {
				res.firstErr = errs[c]
			}
		}
		res.attempted += len(w.lat)
		slices.Sort(w.lat)
		return w
	}
	warmed := segment(warm)
	res.attempted, res.failed = 0, 0 // warm-up calls are checked but not reported
	if res.firstErr != nil {
		return res
	}
	// Size the sample buffers from the warm-up rate so appends inside a
	// timed window do not grow them.
	perCaller := int(float64(len(warmed.lat))/float64(callers)*float64(win)/float64(warm)*1.5) + 64
	for c := range bufs {
		bufs[c] = make([]int64, 0, perCaller)
	}
	var before, after runtime.MemStats
	var speedBefore float64
	if calibrated {
		speedBefore = machineSpeed()
	}
	for k := 0; k < n; k++ {
		runtime.ReadMemStats(&before)
		cpu := cpuNanos()
		w := segment(win)
		w.cpu = cpuNanos() - cpu
		runtime.ReadMemStats(&after)
		res.mem.add(&before, &after)
		if calibrated {
			speedAfter := machineSpeed()
			w.speed = (speedBefore + speedAfter) / 2
			speedBefore = speedAfter
		}
		res.wins = append(res.wins, w)
	}
	return res
}

// cpuNanos is the CPU time, user and system, the process has used so far.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// Machine speed. The shared 2-core VMs this runs on lose a fifth or more of
// their speed for anything from a second to many minutes at a time, all
// workloads together (a neighbour on the sibling hyperthread or in the shared
// cache: the guest sees no steal time), which no repetition inside one run
// averages out. So every untraced run also times a fixed calibration kernel
// (word hashing, map lookups and float adds: the kind of work featurisation
// does) in a slice before every timed window and every set-up and after the
// last, and each window's and each set-up's timings are converted to nominal
// machine speed before the median over them is taken: the share of a measured
// time that the process spent on the CPU is multiplied by the speed around it
// relative to nominalSpeed; the share it spent waiting (store round trips,
// timers, the network) is left as measured.
const (
	nominalSpeed = 2400.0 // calibration passes per second on the VM this was written on, undisturbed
	calibSlice   = 100 * time.Millisecond
)

var calibWords, calibTable = func() ([][]byte, map[uint64]float64) {
	rng := rand.New(rand.NewSource(1))
	words := make([][]byte, 20000)
	table := make(map[uint64]float64, len(words)/2)
	for i := range words {
		w := make([]byte, 3+rng.Intn(8))
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		words[i] = w
		if i%2 == 0 {
			table[fnv1a(w)] = rng.Float64()
		}
	}
	return words, table
}()

func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

var calibSink float64

// calibrate runs the calibration kernel for d and returns passes per second.
func calibrate(d time.Duration) float64 {
	start := now()
	passes := 0
	for now()-start < int64(d) {
		for _, w := range calibWords {
			calibSink += calibTable[fnv1a(w)]
		}
		passes++
	}
	return float64(passes) / (float64(now()-start) / 1e9)
}

// machineSpeed times one calibration slice and returns the machine's speed
// relative to nominal.
func machineSpeed() float64 { return calibrate(calibSlice) / nominalSpeed }

// atNominal converts a time measured at machine speed `speed` (relative to
// nominal) to nominal speed, given the share of it spent on the CPU.
func atNominal(t, cpuShare, speed float64) float64 { return t * (1 - cpuShare + cpuShare*speed) }

// heapMiB returns the live heap after two forced collections: sync.Pool
// contents survive the first, and whether one had just happened is chance.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// poissonSchedule returns send offsets (ns from the start) of a Poisson
// arrival process at qps over dur, fully determined by rng.
func poissonSchedule(rng *rand.Rand, qps float64, dur time.Duration) []int64 {
	var out []int64
	t := 0.0
	for {
		t += rng.ExpFloat64() / qps * 1e9
		if t >= float64(dur) {
			return out
		}
		out = append(out, int64(t))
	}
}

// sent is one open-loop request's timing, all ns on the instrument clock.
type sent struct {
	due, ready, sentAt, done int64 // ready: when a sender was free to take the request
	ok                       bool
}

// wait is how long after it was due the request was sent: a backlog shows
// here. genLag is the part of that wait the generator itself caused (timer
// overshoot, its goroutine not running) rather than the wait for one of the
// workload's connections to come free. latency is timed from when the
// request was due, so the wait a stall imposes on later requests counts,
// less the generator's own lateness, which is no property of the system.
func (s sent) wait() int64    { return s.sentAt - s.due }
func (s sent) genLag() int64  { return s.sentAt - max(s.due, s.ready) }
func (s sent) latency() int64 { return s.done - s.due - s.genLag() }

// openLoop sends request i at start+sched[i] regardless of earlier replies,
// over `conns` sender goroutines (one per connection). When all senders are
// busy a due request waits, and that wait is part of its latency.
func openLoop(ctx context.Context, conns int, sched []int64, send func(ctx context.Context, i int) error) []sent {
	out := make([]sent, len(sched))
	var next atomic.Int64
	start := now() + int64(time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due, ready := start+sched[i], now()
				waitUntil(due)
				t0 := now()
				err := send(ctx, i)
				out[i] = sent{due: due, ready: ready, sentAt: t0, done: now(), ok: err == nil}
			}
		}()
	}
	wg.Wait()
	return out
}

// waitUntil sleeps to shortly before t and yields for the remainder, since
// time.Sleep alone overshoots by tens of microseconds.
func waitUntil(t int64) {
	for {
		d := t - now()
		switch {
		case d <= 0:
			return
		case d > int64(200*time.Microsecond):
			time.Sleep(time.Duration(d) - 100*time.Microsecond)
		default:
			runtime.Gosched()
		}
	}
}

// rateResult summarises one open-loop rate.
type rateResult struct {
	qps              float64
	p50us, p99us     float64
	lagP99us         float64 // generator lateness
	lastWaitMeanUs   float64 // mean due-to-sent wait in the last window: a growing backlog shows here
	attempted, notOK int
	samples          int
	pooled           bool
}

// summariseRate buckets requests into windows by due time after a warm-up of
// length warm; p50/p99 are medians over windows of the per-window values.
func summariseRate(qps float64, reqs []sent, warm, win time.Duration) rateResult {
	r := rateResult{qps: qps}
	if len(reqs) == 0 {
		return r
	}
	origin := reqs[0].due
	lat := make([][]int64, rateWindows)
	var lags []int64
	var lastLag, lastN float64
	for _, s := range reqs {
		k := int((s.due - origin - int64(warm)) / int64(win))
		if s.due-origin < int64(warm) || k >= rateWindows {
			continue
		}
		r.attempted++
		if !s.ok {
			r.notOK++
			continue
		}
		lat[k] = append(lat[k], s.latency())
		lags = append(lags, s.genLag())
		if k == rateWindows-1 {
			lastLag += float64(s.wait())
			lastN++
		}
	}
	var ws []window
	for _, l := range lat {
		slices.Sort(l)
		ws = append(ws, window{lat: l, dur: int64(win)})
	}
	r.p50us, r.p99us, r.samples, r.pooled = latencySummary(ws)
	slices.Sort(lags)
	r.lagP99us = float64(percentile(lags, 99)) / 1e3
	if lastN > 0 {
		r.lastWaitMeanUs = lastLag / lastN / 1e3
	}
	return r
}

// Rate-ladder limits: a rate is met when its p99 from scheduled send stays
// within p99LimitUs, at least okShare of requests sent succeed, and requests
// in the last window are not sent ever later after they were due.
const (
	p99LimitUs    = 2000.0
	okShare       = 0.999
	backlogWaitUs = 1000.0
)

func (r rateResult) met() bool {
	return r.attempted > 0 && r.p99us <= p99LimitUs &&
		float64(r.attempted-r.notOK) >= okShare*float64(r.attempted) &&
		r.lastWaitMeanUs <= backlogWaitUs
}

// span is one timed call into a layer's public function. Spans of one
// operation share req; parent is the span that caused it (0 for a root).
type span struct {
	Req    int    `json:"req"`
	Span   int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the benchmark ends.
type recorder struct{ spans []span }

// begin opens a span of request req under parent and returns its id.
func (r *recorder) begin(req, parent int, name string) int {
	r.spans = append(r.spans, span{Req: req, Span: len(r.spans) + 1, Parent: parent, Name: name, Start: now()})
	return len(r.spans)
}

func (r *recorder) end(id int) { r.spans[id-1].End = now() }

// add records a span whose duration was read from a counter, not timed.
func (r *recorder) add(req, parent int, name string, start, end int64) int {
	r.spans = append(r.spans, span{Req: req, Span: len(r.spans) + 1, Parent: parent, Name: name, Start: start, End: end})
	return len(r.spans)
}

// selfTimes returns, per span name, the summed self time over all requests
// (a span's duration minus its direct children's durations), and the summed
// root duration. Children are re-issued after their parent returns, so their
// intervals do not nest inside it and durations, not overlaps, are
// subtracted; a negative self time means the re-issued children cost more
// than they did inside the parent. The self times sum to the root total.
func selfTimes(spans []span) (self map[string]int64, rootTotal int64, roots int) {
	childSum := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	self = make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += s.End - s.Start - childSum[s.Span]
		if s.Parent == 0 {
			rootTotal += s.End - s.Start
			roots++
		}
	}
	return self, rootTotal, roots
}

// digest fingerprints generated inputs so two runs can be shown to have
// received the same ones.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) ints(vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

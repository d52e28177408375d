// Package trace provides allocation-conscious per-request span recording
// for the serving path: queue wait, batch assembly, fused weld steps, IFV
// computation, cache lookup/fill, cascade small-model vs. resume, and model
// scoring each record a stage span into the request's Trace.
//
// Sampling is two-sided. Head sampling retains every Nth request in full
// (all stage spans); the deterministic 1-in-N decision is a single atomic
// add, so the unsampled fast path performs no heap allocation — preserving
// the 0-alloc compiled point-query guarantee. Tail sampling additionally
// retains slow or failed requests that head sampling missed, as spanless
// entries (tail requests were not instrumented while running — by the time
// they are known slow, their stage timings are gone; only the total
// survives).
//
// Retained traces land in a fixed ring buffer (served by GET /v1/traces)
// and slow/error requests in a second per-tracer ring (the recent-slow list
// on per-model stats). Every finished request — sampled or not — feeds
// an atomic latency histogram (metrics.Hist), so /metrics histograms cover
// all traffic, not just the sampled slice.
package trace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"willump/internal/metrics"
)

// Well-known stage names recorded by the serving path. Weld step and IFV
// spans use dynamic labels ("step:<op>", "ifv:<index>") instead. The
// cascade stages and a batch's model:score span a whole scoring pass
// (weld.BatchRun.Score), computing the IFVs it scores included: a linear
// model takes its dot products inside the text kernels, so their
// ifv:<index> spans nest inside it. A compiled point's model:score times
// the scoring alone.
const (
	StageQueueWait     = "queue:wait"
	StageBatchAssemble = "batch:assemble"
	StageCacheLookup   = "cache:lookup"
	StageCacheFill     = "cache:fill"
	StageCacheCoalesce = "cache:coalesce"
	StageCascadeSmall  = "cascade:small"
	StageCascadeResume = "cascade:resume"
	StageModelScore    = "model:score"
	StageInterp        = "interp:batch"
	StageStoreMGet     = "store:mget"
	StageStoreHedge    = "store:hedge"
)

// Default configuration values, applied by NewTracer for zero fields.
const (
	DefaultSampleEvery   = 128
	DefaultBuffer        = 256
	DefaultSlowThreshold = 25 * time.Millisecond
)

// Span is one timed stage within a trace. Offset is the stage start
// relative to the trace's begin time (clamped to zero: the owner may start
// its clock a hair before Begin).
type Span struct {
	Stage  string
	Offset time.Duration
	Dur    time.Duration
}

// Trace accumulates the stage spans of one sampled request. Record is
// mutex-guarded because parallel IFV workers share a single run (and thus a
// single Trace). A nil *Trace is valid everywhere and records nothing.
type Trace struct {
	id    uint64
	label string
	start time.Time

	mu    sync.Mutex
	spans []Span
}

// ID returns the trace's tracer-unique id.
func (t *Trace) ID() uint64 { return t.id }

// Record appends a span for stage that started at the given time and ends
// now. Safe on a nil Trace and safe for concurrent use.
func (t *Trace) Record(stage string, start time.Time) {
	if t == nil {
		return
	}
	now := time.Now()
	off := start.Sub(t.start)
	if off < 0 {
		off = 0
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Stage: stage, Offset: off, Dur: now.Sub(start)})
	t.mu.Unlock()
}

// Snapshot is the immutable, retained form of a finished request: either a
// head-sampled trace (Sampled true, Spans populated) or a tail-sampled
// slow/error entry (Sampled false, Spans nil).
type Snapshot struct {
	ID      uint64
	Label   string
	Start   time.Time
	Total   time.Duration
	Err     string
	Sampled bool
	Spans   []Span
}

// Config tunes a Tracer. Zero fields take the package defaults.
type Config struct {
	// SampleEvery head-samples one request in N (1 = every request).
	SampleEvery int
	// Buffer is the retained-trace ring capacity (GET /v1/traces).
	Buffer int
	// SlowThreshold tail-samples requests at or above this latency.
	SlowThreshold time.Duration
}

// slowBuffer is the recent-slow ring capacity (per-model stats).
const slowBuffer = 32

// Tracer owns sampling decisions and retention for one pipeline. All
// methods are safe for concurrent use and safe on a nil receiver (no-ops),
// so callers thread a possibly-nil *Tracer without branching.
type Tracer struct {
	every uint64
	slow  time.Duration

	seq     atomic.Uint64
	ids     atomic.Uint64
	open    atomic.Int64
	sampled atomic.Int64
	tailed  atomic.Int64

	pool sync.Pool // *Trace

	total  metrics.Hist
	histMu sync.RWMutex
	hists  map[string]*metrics.Hist

	ringMu   sync.Mutex
	ring     []Snapshot
	ringNext int
	ringLen  int

	slowMu   sync.Mutex
	slowRing []Snapshot
	slowNext int
	slowLen  int
}

// NewTracer returns a tracer with cfg's zero fields defaulted.
func NewTracer(cfg Config) *Tracer {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = DefaultBuffer
	}
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	tr := &Tracer{
		every:    uint64(cfg.SampleEvery),
		slow:     cfg.SlowThreshold,
		hists:    make(map[string]*metrics.Hist),
		ring:     make([]Snapshot, cfg.Buffer),
		slowRing: make([]Snapshot, slowBuffer),
	}
	tr.pool.New = func() any { return &Trace{spans: make([]Span, 0, 32)} }
	return tr
}

// Begin makes the head-sampling decision for one request labeled label
// (typically the model name). It returns a pooled *Trace when the request
// is sampled and nil otherwise; the unsampled path is one atomic add.
func (tr *Tracer) Begin(label string) *Trace {
	if tr == nil {
		return nil
	}
	if tr.seq.Add(1)%tr.every != 0 {
		return nil
	}
	t := tr.pool.Get().(*Trace)
	t.id = tr.ids.Add(1)
	t.label = label
	t.start = time.Now()
	t.spans = t.spans[:0]
	tr.open.Add(1)
	tr.sampled.Add(1)
	return t
}

// Finish completes one request that started at start. t is the trace from
// Begin and may be nil (unsampled); label must match the Begin label so
// tail-sampled entries are attributed without a trace in hand. Every call
// observes the total-latency histogram; sampled traces are snapshotted into
// the ring (and their spans into per-stage histograms), and slow or failed
// requests are retained on the recent-slow ring either way. The unsampled
// happy path allocates nothing.
//
// Finish recycles t into the tracer's pool, so the caller must hold the
// only live reference: no other goroutine may Record on t after Finish
// returns. When another component may still reach the trace (a batcher
// holding the abandoned request's context), use FinishAbandoned instead.
func (tr *Tracer) Finish(t *Trace, label string, start time.Time, err error) {
	tr.finish(t, label, start, err, true)
}

// FinishAbandoned completes a request whose trace may still be referenced
// by another goroutine — the caller gave up waiting (client cancellation,
// forced shutdown) while the request is still queued or executing in the
// batcher, whose context carries the trace. It records exactly like Finish
// but leaves the trace to the garbage collector instead of resetting and
// pooling it, so a late Record from the batcher can never race with the
// trace's reuse by a new request.
func (tr *Tracer) FinishAbandoned(t *Trace, label string, start time.Time, err error) {
	tr.finish(t, label, start, err, false)
}

func (tr *Tracer) finish(t *Trace, label string, start time.Time, err error, recycle bool) {
	if tr == nil {
		return
	}
	d := time.Since(start)
	tr.total.Observe(d)
	if t == nil {
		if err != nil || d >= tr.slow {
			tr.tailed.Add(1)
			snap := Snapshot{Label: label, Start: start, Total: d}
			if err != nil {
				snap.Err = err.Error()
			}
			tr.push(snap)
			tr.pushSlow(snap)
		}
		return
	}
	tr.open.Add(-1)
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	snap := Snapshot{
		ID:      t.id,
		Label:   t.label,
		Start:   t.start,
		Total:   d,
		Sampled: true,
		Spans:   spans,
	}
	if err != nil {
		snap.Err = err.Error()
	}
	for i := range spans {
		tr.stageHist(spans[i].Stage).Observe(spans[i].Dur)
	}
	tr.push(snap)
	if err != nil || d >= tr.slow {
		tr.pushSlow(snap)
	}
	if recycle {
		t.mu.Lock()
		t.spans = t.spans[:0]
		t.mu.Unlock()
		tr.pool.Put(t)
	}
}

func (tr *Tracer) push(s Snapshot) {
	tr.ringMu.Lock()
	tr.ring[tr.ringNext] = s
	tr.ringNext = (tr.ringNext + 1) % len(tr.ring)
	if tr.ringLen < len(tr.ring) {
		tr.ringLen++
	}
	tr.ringMu.Unlock()
}

func (tr *Tracer) pushSlow(s Snapshot) {
	s.Spans = nil // the slow list reports totals; full spans live in the trace ring
	tr.slowMu.Lock()
	tr.slowRing[tr.slowNext] = s
	tr.slowNext = (tr.slowNext + 1) % len(tr.slowRing)
	if tr.slowLen < len(tr.slowRing) {
		tr.slowLen++
	}
	tr.slowMu.Unlock()
}

// Traces returns the retained snapshots, newest first.
func (tr *Tracer) Traces() []Snapshot {
	if tr == nil {
		return nil
	}
	tr.ringMu.Lock()
	defer tr.ringMu.Unlock()
	return ringCopy(tr.ring, tr.ringNext, tr.ringLen)
}

// Slow returns the recent slow/error entries, newest first.
func (tr *Tracer) Slow() []Snapshot {
	if tr == nil {
		return nil
	}
	tr.slowMu.Lock()
	defer tr.slowMu.Unlock()
	return ringCopy(tr.slowRing, tr.slowNext, tr.slowLen)
}

func ringCopy(ring []Snapshot, next, n int) []Snapshot {
	out := make([]Snapshot, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, ring[(next-i+len(ring))%len(ring)])
	}
	return out
}

// Open returns the number of traces begun but not yet finished. A drained
// server must report zero.
func (tr *Tracer) Open() int64 {
	if tr == nil {
		return 0
	}
	return tr.open.Load()
}

// Counts returns how many requests were head-sampled and tail-sampled.
func (tr *Tracer) Counts() (sampled, tailed int64) {
	if tr == nil {
		return 0, 0
	}
	return tr.sampled.Load(), tr.tailed.Load()
}

// SlowThreshold returns the tail-sampling latency threshold.
func (tr *Tracer) SlowThreshold() time.Duration {
	if tr == nil {
		return 0
	}
	return tr.slow
}

// TotalHist snapshots the all-requests latency histogram.
func (tr *Tracer) TotalHist() HistSnapshot {
	if tr == nil {
		return HistSnapshot{}
	}
	return snapshot(&tr.total)
}

// StageHists snapshots the per-stage latency histograms, keyed by stage.
// Stage histograms only see head-sampled requests.
func (tr *Tracer) StageHists() map[string]HistSnapshot {
	if tr == nil {
		return nil
	}
	tr.histMu.RLock()
	defer tr.histMu.RUnlock()
	out := make(map[string]HistSnapshot, len(tr.hists))
	for stage, h := range tr.hists {
		out[stage] = snapshot(h)
	}
	return out
}

func (tr *Tracer) stageHist(stage string) *metrics.Hist {
	tr.histMu.RLock()
	h, ok := tr.hists[stage]
	tr.histMu.RUnlock()
	if ok {
		return h
	}
	tr.histMu.Lock()
	defer tr.histMu.Unlock()
	if h, ok = tr.hists[stage]; ok {
		return h
	}
	h = new(metrics.Hist)
	tr.hists[stage] = h
	return h
}

// ctxKey is the zero-size context key; Value lookups with it do not
// allocate.
type ctxKey struct{}

// NewContext returns ctx carrying t. A nil trace returns ctx unchanged, so
// the unsampled path never allocates a context.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// ownedKey marks a context whose request already has a trace owner: the
// component that called Begin and will call Finish. Zero-size, so Value
// lookups with it do not allocate.
type ownedKey struct{}

// MarkOwned returns ctx marked as trace-owned. The serving handler owns
// every server-routed request's trace lifecycle — including the unsampled
// ones, whose Begin returned nil and left nothing in the context — so it
// marks the context unconditionally; pipeline entry points seeing the mark
// skip their own Begin/Finish and the request is counted exactly once.
func MarkOwned(ctx context.Context) context.Context {
	return context.WithValue(ctx, ownedKey{}, ownedKey{})
}

// Owned reports whether an outer component owns the request's trace
// lifecycle: ctx carries a live trace or the MarkOwned mark.
func Owned(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	return ctx.Value(ctxKey{}) != nil || ctx.Value(ownedKey{}) != nil
}

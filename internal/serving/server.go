package serving

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"willump/internal/admission"
	"willump/internal/core"
	"willump/internal/trace"
	"willump/internal/value"
)

// Options configures the serving frontend.
type Options struct {
	// MaxBatch bounds adaptive batching: queued requests merge into batches
	// of at most this many rows (default 256).
	MaxBatch int
	// BatchTimeout caps how long a merged batch is held open for more work
	// (default 500us). It is a cap, not the wait: a batch waits no longer
	// than its own forecast service time, and not at all when that is below
	// what a timer can deliver.
	BatchTimeout time.Duration
	// QueueDepth bounds each deployed model's request queue (default 1024).
	// A full queue rejects new requests with HTTP 429 — bounded-queue
	// admission control instead of unbounded memory growth under overload.
	QueueDepth int
	// CacheCapacity, when non-zero, enables a per-deployed-version
	// end-to-end prediction cache (< 0 for unbounded).
	CacheCapacity int
	// CacheKeyOrder fixes the input-column order for cache keys; when empty,
	// a deployed pipeline's own input schema is used.
	CacheKeyOrder []string
	// SLOTargetP99, when non-zero, enables SLO-aware admission control per
	// deployed model: an online service-time forecast sheds requests at
	// enqueue whose predicted completion would miss this target (or their
	// own tighter deadline), and an AIMD concurrency limit adapts to
	// observed latency vs. the target — the bounded queue becomes a hard
	// backstop rather than the only defense.
	SLOTargetP99 time.Duration
	// Brownout enables the graceful-degradation ladder (requires
	// SLOTargetP99): under measured pressure, requests are downgraded
	// stepwise — cascade small-model-only scoring, shrunken top-K budgets,
	// then prediction-cache answers — before anything is shed. Degraded
	// responses are successes carrying a `degraded` wire marker.
	Brownout bool
	// CriticalityHeader, when set, names an HTTP request header carrying
	// the request's criticality class ("low", "normal", "high") for
	// requests that don't set it in wire options. High-criticality traffic
	// degrades and sheds last.
	CriticalityHeader string
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.BatchTimeout <= 0 {
		o.BatchTimeout = 500 * time.Microsecond
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	return o
}

// DefaultModelName is the name NewServer deploys a lone predictor under.
const DefaultModelName = "default"

// errBadRequest marks errors caused by the request itself (HTTP 400).
var errBadRequest = errors.New("bad request")

func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errBadRequest, fmt.Sprintf(format, args...))
}

// Server is the HTTP serving frontend over a model Registry. The predict and
// top-K routes share one handler body (handle) that decodes the request,
// owns its trace and clock, and runs it down the model's one serving path
// (Hosted.serve: route → degrade → admit → execute → account).
//
// Routes:
//
//	POST /v1/models/{name}/predict   prediction (batch, point, overrides)
//	POST /v1/models/{name}/topk      top-K ranking within the request batch
//	GET  /v1/models/{name}/stats     per-model serving telemetry
//	GET  /v1/models/{name}           describe one model
//	GET  /v1/models                  list deployed models
//	POST /predict                    legacy route: the default model
//	GET  /healthz                    liveness
//	GET  /metrics                    Prometheus text exposition
//	GET  /v1/traces                  retained request traces (?model=, ?n=)
//	GET  /debug/pprof/*              runtime profiling (EnablePprof only)
type Server struct {
	reg *Registry

	http  *http.Server
	ln    net.Listener
	wg    sync.WaitGroup
	pprof bool

	requests atomic.Int64
	closed   atomic.Bool
	// shutdownDone closes once the first Shutdown/Close finishes draining;
	// concurrent callers block on it and observe shutdownErr.
	shutdownDone chan struct{}
	shutdownErr  error
}

// NewPredictorServer wraps a single predictor with the serving frontend,
// deploying it as the registry's default model, and reports deployment
// failures — a nil predictor, or a prediction cache enabled without
// CacheKeyOrder — as errors instead of panicking. Use NewRegistryServer to
// host many named, versioned models behind one server.
func NewPredictorServer(p Predictor, opts Options) (*Server, error) {
	reg := NewRegistry(opts)
	if err := reg.DeployPredictor(DefaultModelName, "v1", p, opts.CacheKeyOrder); err != nil {
		reg.cancel()
		return nil, fmt.Errorf("serving: deploying default model: %w", err)
	}
	return NewRegistryServer(reg), nil
}

// NewRegistryServer wraps a registry with the HTTP serving frontend. The
// server owns the registry's lifecycle: Shutdown (or Close) drains and
// closes it.
func NewRegistryServer(reg *Registry) *Server {
	return &Server{reg: reg, shutdownDone: make(chan struct{})}
}

// Registry returns the registry this server hosts, for deploying and
// undeploying models while the server runs.
func (s *Server) Registry() *Registry { return s.reg }

// EnablePprof mounts net/http/pprof under /debug/pprof/ when the server
// starts. Call it before Start/StartOn; the profiling endpoints expose
// process internals, so deployment binaries gate it behind an operator flag.
func (s *Server) EnablePprof() { s.pprof = true }

// Start listens on 127.0.0.1 (ephemeral port). It returns the base URL.
func (s *Server) Start() (string, error) {
	return s.StartOn("127.0.0.1:0")
}

// StartOn listens on an explicit address (host:port); deployment binaries
// use it to bind a stable serving endpoint. It returns the base URL.
func (s *Server) StartOn(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serving: listen: %w", err)
	}
	s.ln = ln
	mux := http.NewServeMux()
	predict := func(w http.ResponseWriter, r *http.Request) { s.handle(w, r, false) }
	mux.HandleFunc("POST /predict", predict)
	mux.HandleFunc("POST /v1/models/{name}/predict", predict)
	mux.HandleFunc("POST /v1/models/{name}/topk", func(w http.ResponseWriter, r *http.Request) { s.handle(w, r, true) })
	mux.HandleFunc("GET /v1/models/{name}/stats", s.handleStats)
	mux.HandleFunc("GET /v1/models/{name}", s.handleDescribe)
	mux.HandleFunc("GET /v1/models", s.handleList)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	s.mountObservability(mux)
	s.http = &http.Server{Handler: mux}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.http.Serve(ln) //nolint:errcheck // Serve always returns on Close
	}()
	return "http://" + ln.Addr().String(), nil
}

// Shutdown gracefully stops the server: new requests are rejected
// immediately and in-flight requests (including every batch being executed
// and everything queued behind one) drain to completion. The context bounds
// how long the drain may take; when it expires the server force-closes:
// every connection is closed, which cancels every request's own context, and
// the execution context of merged batches is cancelled, so predictions abort
// between graph blocks and queued waiters receive the shutdown error.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.closed.Swap(true) {
		// Another Shutdown/Close is (or was) draining: wait for it to finish
		// so no caller tears down the hosted models' resources early.
		<-s.shutdownDone
		return s.shutdownErr
	}
	var err error
	if s.http != nil {
		// Graceful HTTP drain: waits for in-flight handlers, each of which is
		// executing a batch or waiting on the handler that is.
		err = s.http.Shutdown(ctx)
		if err != nil {
			// The drain deadline expired with handlers still at work:
			// force-close. A leader executing alone runs under its own
			// request's context, which only closing its connection cancels.
			s.reg.cancel()
			s.http.Close() //nolint:errcheck // listeners are already closed
		}
	}
	// Drain every version, then wait for the HTTP serve loop.
	if cerr := s.reg.Close(ctx); err == nil {
		err = cerr
	}
	s.wg.Wait()
	s.reg.cancel()
	s.shutdownErr = err
	close(s.shutdownDone)
	return err
}

// Close shuts the server down, draining in-flight batches without a
// deadline.
func (s *Server) Close() error {
	return s.Shutdown(context.Background())
}

// Requests returns the number of prediction RPC requests received.
func (s *Server) Requests() int64 { return s.requests.Load() }

var errShuttingDown = errors.New("serving: server shutting down")

// statusFor maps serving errors to HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrModelNotFound):
		return http.StatusNotFound
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, errShuttingDown):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(wireResponse{Error: err.Error()}) //nolint:errcheck
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

// jsonContentType is shared by every reply and request header that carries
// it; net/http only reads header values.
var jsonContentType = []string{"application/json"}

// writeResponse is writeJSON for a predict route's reply, through the codec.
func writeResponse(w http.ResponseWriter, resp *wireResponse) {
	w.Header()["Content-Type"] = jsonContentType
	wb := getWireBuf()
	if b, ok := appendResponse(wb.b, resp); ok {
		wb.b = b
		w.Write(b) //nolint:errcheck
	} else {
		json.NewEncoder(w).Encode(resp) //nolint:errcheck
	}
	wb.release()
}

// accept is how a predict route takes a request in: refuse it while the
// server shuts down, count it, resolve the model and parse the body. A
// malformed body is reported before an unknown model, as it always was. When
// ok is false the error reply has been written.
func (s *Server) accept(w http.ResponseWriter, r *http.Request, name string) (h *Hosted, inputs map[string]value.Value, n int, po core.PredictOptions, ok bool) {
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, errShuttingDown)
		return nil, nil, 0, po, false
	}
	s.requests.Add(1)
	h, lookupErr := s.reg.lookup(name)
	var schema []string
	if h != nil {
		if v := h.active.Load(); v != nil {
			schema = v.inputs
		}
	}
	var err error
	wb := getWireBuf()
	if err = wb.readAll(r.Body); err != nil {
		err = badRequestf("decoding request: %v", err)
	} else {
		inputs, n, po, err = decodeRequest(wb.b, schema)
	}
	wb.release()
	if err == nil {
		err = lookupErr
	}
	if err != nil {
		writeError(w, statusFor(err), err)
		return nil, nil, 0, po, false
	}
	return h, inputs, n, po, true
}

// servedRequest is one accepted predict-route request between the start of
// its clock and its reply: what handle does around serve.
type servedRequest struct {
	h     *Hosted
	start time.Time
	tw    *trace.Tracer
	tr    *trace.Trace
	// ctx is the request's context carrying its trace, for the execution.
	ctx context.Context
}

// begin starts the request's clock and its trace. The handler owns the
// request's trace lifecycle: the sampling decision is made here and the trace
// rides the request context through queue, batch, and pipeline (whose own
// entry points see it and don't begin a second one). The context is marked
// owned even when the request is unsampled, so the pipeline's entry points
// never Begin/Finish a second time on the same tracer (which would
// double-count every server-routed request). Every tracer method is a
// nil-receiver no-op, so untraced models pay nothing.
func (h *Hosted) begin(ctx context.Context) servedRequest {
	q := servedRequest{h: h, start: time.Now(), tw: h.tracer(), ctx: ctx}
	q.tr = q.tw.Begin(h.name)
	if q.tr != nil {
		q.ctx = trace.NewContext(ctx, q.tr)
	} else if q.tw != nil {
		q.ctx = trace.MarkOwned(ctx)
	}
	return q
}

// end finishes the trace, accounts the request — rejected when admission
// turned it away, served otherwise — and, when err is set, writes the error
// reply (a 429 with the controller's Retry-After) and returns false. An
// abandoned request left a call queued: the version's queue holds the context
// that carries the trace, which must then not be recycled under the next
// leader's feet.
func (q *servedRequest) end(w http.ResponseWriter, err error, abandoned bool) bool {
	if abandoned {
		q.tw.FinishAbandoned(q.tr, q.h.name, q.start, err)
	} else {
		q.tw.Finish(q.tr, q.h.name, q.start, err)
	}
	if errors.Is(err, ErrOverloaded) {
		q.h.stats.reject()
	} else {
		q.h.stats.record(q.start, time.Now(), err)
	}
	if err == nil {
		return true
	}
	code := statusFor(err)
	if code == http.StatusTooManyRequests {
		setRetryAfter(w, q.h)
	}
	writeError(w, code, err)
	return false
}

// handle is the body of both predict routes and the top-K route.
func (s *Server) handle(w http.ResponseWriter, r *http.Request, topK bool) {
	h, inputs, n, po, ok := s.accept(w, r, r.PathValue("name"))
	if !ok {
		return
	}
	if !topK {
		// Shadow-sample the request into the adaptation controller's drift
		// detectors (a nil controller is a no-op; the call never blocks).
		h.adaptCtl.Load().ObserveRequest(inputs, n)
	}
	q := h.begin(r.Context())
	// Criticality may ride an operator-configured header when the wire
	// options don't carry it; unknown spellings are ignored rather than
	// rejected, so a garbage header never fails (or escalates) a request.
	if po.Criticality == "" && s.reg.opts.CriticalityHeader != "" {
		switch c := r.Header.Get(s.reg.opts.CriticalityHeader); c {
		case "low", "normal", "high":
			po.Criticality = c
		}
	}
	a := h.serve(call{ctx: q.ctx, inputs: inputs, n: n, po: po, topK: topK})
	if q.end(w, a.err, a.abandoned) {
		writeResponse(w, &wireResponse{Predictions: a.preds, Indices: a.idx, Degraded: a.degraded})
	}
}

// setRetryAfter attaches the admission controller's drain forecast to a
// 429: how long until the backlog ahead of a retry would have cleared,
// in whole seconds (HTTP Retry-After), floored at 1. Cold controllers
// (no forecast yet) send no header.
func setRetryAfter(w http.ResponseWriter, h *Hosted) {
	ra := h.admit.RetryAfter(h.queueLen())
	if ra <= 0 {
		return
	}
	secs := int(math.Ceil(ra.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// errPredictedMiss annotates predictive sheds so operators can tell them
// from queue-full rejections; it still matches ErrOverloaded.
var errPredictedMiss = fmt.Errorf("%w: predicted completion exceeds deadline", ErrOverloaded)

// serve is the one way a request runs: route → degrade → admit → execute →
// account, for predict and top-K calls alike. What differs between calls is
// decided here once and nowhere else:
//
//   - A mergeable call (a predict whose options are zero apart from
//     criticality) goes through the routed arm's leader-executes batching
//     (version.submit), where it executes at once when the arm is idle — a
//     lone request pays no batching delay and no hand-off — or merges with
//     what queued beside it. Only mergeable calls route to a canary (each arm
//     runs its own admission controller, the canary's primed from the
//     incumbent's forecast, so a misbehaving candidate sheds only its own
//     traffic slice), may be answered from the prediction cache, and feed the
//     arm's guard telemetry.
//   - Any other call — per-request options, top-K — never merges: one
//     request's overrides must not leak into another's results, its deadline
//     stays its own, and a top-K ranking is relative to the rows the client
//     sent. It executes at once on the active version, concurrently, under
//     its own context, QueueDepth of them at a time.
//
// Both kinds pass the arm's admission controller once and feed its forecast
// with every completion.
func (h *Hosted) serve(c call) answer {
	crit := admission.ParseCriticality(c.po.Criticality)
	c.merge = !c.topK && c.po.BatchableZero()
	v := h.active.Load()
	if c.merge {
		v = h.route()
	}
	if v == nil {
		return answer{err: fmt.Errorf("serving: model %q: %w", h.name, ErrModelNotFound)}
	}
	if err := v.supports(&c); err != nil {
		return answer{err: err}
	}
	if a, done := v.degrade(&c, crit); done {
		return a
	}
	// SLO-aware admission: shed work whose forecast completion would miss its
	// budget — before it wastes queue space — and bound concurrency adaptively.
	// Only a mergeable call waits behind the arm's queue.
	budget, queued := c.po.Deadline, 0
	if budget <= 0 {
		if dl, ok := c.ctx.Deadline(); ok {
			budget = time.Until(dl)
		}
	}
	if c.merge {
		queued = int(v.queued.Load())
	}
	if v.admit.Admit(queued, budget, crit).Shed {
		if c.merge {
			v.arm.reject()
		}
		return answer{err: errPredictedMiss}
	}
	defer v.admit.Release()
	c.enq = time.Now()
	if c.merge {
		return h.submit(v, c)
	}
	select {
	case h.lone <- struct{}{}:
	default:
		return answer{err: ErrOverloaded}
	}
	defer func() { <-h.lone }()
	return v.runLone(&c)
}

// degrade applies the brownout ladder, the one place a rung turns into what a
// call experiences. Cache-only: a mergeable call is answered from the
// prediction cache without touching the saturated pipeline, or shed on a miss
// (high-criticality traffic sees one rung less and still computes). Degrade,
// and cache-only for everything the cache cannot answer: a predict on a
// cascade scores with the small model only, a top-K query ranks from the
// smallest legal candidate subset (exactly K) instead of the trained c_k*K
// policy — cheaper, slightly-lower-recall answers rather than sheds. A call
// already asking for as much got what it asked for and carries no marker.
func (v *version) degrade(c *call, crit admission.Criticality) (a answer, done bool) {
	level := v.admit.LevelFor(crit)
	if level >= admission.LevelCacheOnly && c.merge && v.cache != nil {
		if cached, ok := v.cache.Peek(c.inputs); ok {
			v.admit.CountDegraded(admission.DegradedCache)
			return answer{preds: cached, degraded: admission.DegradedCache}, true
		}
		v.admit.CountShedBrownout()
		v.arm.reject()
		return answer{err: fmt.Errorf("%w: brownout cache-only, no cached answer", ErrOverloaded)}, true
	}
	switch {
	case level < admission.LevelDegrade:
	case c.topK:
		if c.po.Budget == 0 || c.po.Budget > c.po.K {
			c.po.Budget, c.degraded = c.po.K, admission.DegradedBudget
		}
	case !c.po.SmallOnly && v.opt != nil && v.opt.Cascade != nil:
		c.po.SmallOnly, c.degraded = true, admission.DegradedSmallOnly
	}
	return answer{}, false
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, wireModelList{Models: s.reg.Models()})
}

func (s *Server) handleDescribe(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	for _, mi := range s.reg.Models() {
		if mi.Name == name {
			writeJSON(w, mi)
			return
		}
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("serving: model %q: %w", name, ErrModelNotFound))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.reg.Stats(r.PathValue("name"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, st)
}

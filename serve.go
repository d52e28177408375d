package willump

import (
	"context"
	"net/http"
	"time"

	"willump/internal/serving"
)

// Predictor is the black box a serving frontend hosts: a context-aware batch
// prediction function. Adapt an *Optimized pipeline with
// PredictorFunc(o.BatchPredictor()).
type Predictor = serving.Predictor

// PredictorFunc adapts a function to the Predictor interface.
type PredictorFunc = serving.PredictorFunc

// Registry hosts many named, versioned models behind one serving frontend.
// Deploy atomically swaps a model's active version while the old version
// finishes the work it admitted (zero-downtime hot swap); every deployed
// model gets its own bounded request queue, adaptive batching, and serving
// telemetry.
type Registry = serving.Registry

// ModelInfo describes one deployed model (GET /v1/models).
type ModelInfo = serving.ModelInfo

// ModelStats is a snapshot of one model's serving telemetry
// (GET /v1/models/{name}/stats): request counts, rejections, QPS, latency
// quantiles, cascade hit rate.
type ModelStats = serving.ModelStats

// RequestTrace is one retained per-request trace (GET /v1/traces):
// head-sampled requests carry their stage spans, tail-sampled slow or
// failed requests carry totals only.
type RequestTrace = serving.RequestTrace

// TraceSpan is one timed stage within a RequestTrace (queue wait, batch
// assembly, fused weld steps, cache lookup/fill, cascade small/resume,
// model scoring).
type TraceSpan = serving.TraceSpan

// SlowQuery is one retained slow or failed request on the per-model stats
// recent-slow list.
type SlowQuery = serving.SlowQuery

// Server is the HTTP serving frontend over a model registry: versioned
// model routes (/v1/models/{name}/predict, /topk, /stats), the legacy
// /predict route against the default model, request queueing with
// bounded-queue admission control (HTTP 429 on overload), adaptive
// batching, and graceful context-based shutdown (Shutdown drains in-flight
// batches and rejects new requests).
type Server = serving.Server

// Client is the RPC client for a serving frontend; Predict/PredictModel/
// TopK take a context whose cancellation propagates to the server.
type Client = serving.Client

// ClientOption configures a Client at construction (HTTP timeout, shared
// *http.Client).
type ClientOption = serving.ClientOption

// ServeOptions configures a serving frontend: batch bounds, batching
// timeout, per-model queue depth (admission control), prediction cache.
type ServeOptions = serving.Options

// ErrOverloaded is returned (wrapped) by Client calls rejected with HTTP
// 429: the model's bounded request queue was full, or its SLO admission
// controller predicted the request could not finish in time. It is
// retryable — back off and resend. Test with errors.Is(err,
// willump.ErrOverloaded); errors.As with *OverloadedError additionally
// yields the server's suggested backoff.
var ErrOverloaded = serving.ErrOverloaded

// OverloadedError is the typed form of an HTTP 429 rejection, wrapping
// ErrOverloaded and carrying the server's Retry-After suggestion (the
// admission controller's queue drain forecast) so callers can back off
// intelligently. Retrieve with errors.As.
type OverloadedError = serving.OverloadedError

// PredictResult is the full outcome of one Client prediction RPC:
// predictions plus the server's brownout degradation marker ("small-only",
// "budget", "cache"; empty at full fidelity).
type PredictResult = serving.PredictResult

// ErrModelNotFound is returned (wrapped) by Client calls naming a model the
// server does not host. Test with errors.Is(err, willump.ErrModelNotFound).
var ErrModelNotFound = serving.ErrModelNotFound

// NewRegistry returns an empty model registry using default serving
// options; NewRegistryWithOptions tunes them. Deploy models, then host the
// registry with ServeRegistry.
func NewRegistry() *Registry {
	return serving.NewRegistry(serving.Options{})
}

// NewRegistryWithOptions returns an empty model registry whose deployed
// models use the given serving options (batch bounds, queue depth, cache).
func NewRegistryWithOptions(opts ServeOptions) *Registry {
	return serving.NewRegistry(opts)
}

// ServeRegistry hosts a registry's models behind a new serving frontend
// (not yet started). The server owns the registry's lifecycle: its
// Shutdown/Close drains and closes the registry.
func ServeRegistry(reg *Registry) *Server {
	return serving.NewRegistryServer(reg)
}

// NewPredictorServer wraps a single predictor with the serving frontend,
// deploying it as the default model of a fresh registry, and reports
// deployment failures as errors. Call Start to listen and Shutdown (or
// Close) to drain and stop.
func NewPredictorServer(p Predictor, opts ServeOptions) (*Server, error) {
	return serving.NewPredictorServer(p, opts)
}

// Serve hosts an optimized pipeline behind a new serving frontend (not yet
// started), deployed as the default model — so the legacy /predict route,
// per-request options, and /topk (when the pipeline was optimized for
// top-K) all work against it.
func Serve(o *Optimized, opts ServeOptions) *Server {
	reg := serving.NewRegistry(opts)
	if err := reg.Deploy(serving.DefaultModelName, "v1", o); err != nil {
		// Deploy only fails on a nil pipeline or malformed name; surface the
		// nil-pipeline misuse the same way a nil predictor always has.
		reg.Close(context.Background()) //nolint:errcheck
		panic("willump: Serve called with a nil optimized pipeline")
	}
	return serving.NewRegistryServer(reg)
}

// NewClient returns a client for the serving frontend at base URL.
// Options configure the HTTP timeout or supply a shared *http.Client.
func NewClient(base string, opts ...ClientOption) *Client {
	return serving.NewClient(base, opts...)
}

// WithHTTPTimeout sets a Client's end-to-end HTTP timeout (default 30s).
func WithHTTPTimeout(d time.Duration) ClientOption { return serving.WithHTTPTimeout(d) }

// WithHTTPClient supplies the Client's underlying *http.Client verbatim,
// for shared connection pools and custom transports.
func WithHTTPClient(h *http.Client) ClientOption { return serving.WithHTTPClient(h) }

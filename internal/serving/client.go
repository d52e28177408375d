package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"willump/internal/core"
	"willump/internal/value"
)

// Client is an RPC client for a serving frontend.
type Client struct {
	base string
	// url is base parsed once, for the predict routes, which build their
	// request URL by value; urlErr is why it could not be.
	url    *url.URL
	urlErr error
	http   *http.Client
}

// ClientOption configures a Client at construction.
type ClientOption func(*clientConfig)

type clientConfig struct {
	timeout    time.Duration
	httpClient *http.Client
}

// WithHTTPTimeout sets the client's end-to-end HTTP timeout (default 30s).
// Ignored when WithHTTPClient supplies a client, whose own timeout governs.
func WithHTTPTimeout(d time.Duration) ClientOption {
	return func(c *clientConfig) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// WithHTTPClient supplies the underlying *http.Client, reused verbatim —
// connection pools, transports, and timeouts stay under the caller's
// control (and may be shared across many Clients).
func WithHTTPClient(h *http.Client) ClientOption {
	return func(c *clientConfig) { c.httpClient = h }
}

// DefaultTransport returns the transport NewClient installs when the caller
// does not supply an *http.Client: net/http's default transport cloned with
// a per-host idle pool sized for high-concurrency drivers. Go's stock
// MaxIdleConnsPerHost of 2 makes any driver with more than two in-flight
// requests against one server churn through fresh TCP connections (connect
// + slow-start on the hot path, TIME_WAIT exhaustion under load tests);
// serving clients overwhelmingly talk to a single host, so the per-host cap
// is raised to match the overall pool.
func DefaultTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 256
	t.IdleConnTimeout = 90 * time.Second
	return t
}

// NewClient returns a client for the server at base URL.
func NewClient(base string, opts ...ClientOption) *Client {
	cfg := clientConfig{timeout: 30 * time.Second}
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	hc := cfg.httpClient
	if hc == nil {
		hc = &http.Client{Timeout: cfg.timeout, Transport: DefaultTransport()}
	}
	c := &Client{base: strings.TrimRight(base, "/"), http: hc}
	c.url, c.urlErr = url.Parse(c.base)
	return c
}

// OverloadedError is the typed form of an HTTP 429 rejection. It wraps
// ErrOverloaded — errors.Is(err, ErrOverloaded) keeps working — and carries
// the server's Retry-After suggestion so callers can back off intelligently
// instead of guessing. Retrieve it with errors.As:
//
//	var oe *serving.OverloadedError
//	if errors.As(err, &oe) && oe.RetryAfter > 0 { time.Sleep(oe.RetryAfter) }
type OverloadedError struct {
	// RetryAfter is the server's suggested backoff, parsed from its
	// Retry-After header — the admission controller's queue drain forecast.
	// Zero when the server sent no header (e.g. a cold controller with no
	// service-time observations yet).
	RetryAfter time.Duration
	// Server is the server-reported rejection text.
	Server string
}

// Error implements error, keeping the exact message shape the untyped
// wrapping produced so logs and tests see no change.
func (e *OverloadedError) Error() string {
	return fmt.Sprintf("%v (server: %s)", ErrOverloaded, e.Server)
}

// Unwrap makes errors.Is(err, ErrOverloaded) true.
func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// parseRetryAfter reads an HTTP Retry-After header's delay-seconds form
// (the only form this server emits); anything else yields zero.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// modelPath is the route of one model's verb, and its escaped form (the
// same string unless the model name needs escaping).
func modelPath(model, verb string) (path, escaped string) {
	path = "/v1/models/" + model + verb
	if esc := url.PathEscape(model); esc != model {
		return path, "/v1/models/" + esc + verb
	}
	return path, path
}

// post sends one prediction RPC and maps the transport- and protocol-level
// failure modes: HTTP 429 becomes the retryable *OverloadedError (wrapping
// ErrOverloaded, carrying the server's Retry-After), 404 becomes
// ErrModelNotFound, and any server-reported error is surfaced verbatim.
func (c *Client) post(ctx context.Context, path, escaped string, inputs map[string]value.Value, po core.PredictOptions) (wireResponse, error) {
	if c.urlErr != nil {
		return wireResponse{}, c.urlErr
	}
	body, err := encodeRequest(inputs, po)
	if err != nil {
		return wireResponse{}, err
	}
	u := *c.url
	u.Path += path
	if u.RawPath != "" || escaped != path {
		u.RawPath = c.url.EscapedPath() + escaped
	}
	req := (&http.Request{
		Method:        http.MethodPost,
		URL:           &u,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": jsonContentType},
		Host:          u.Host,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		GetBody: func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		},
	}).WithContext(ctx)
	resp, err := c.http.Do(req)
	if err != nil {
		return wireResponse{}, fmt.Errorf("serving: rpc: %w", err)
	}
	// Map the status code before insisting on a JSON body: unmatched routes
	// are answered by net/http's mux with plain text, and the typed errors
	// must survive that.
	var wire wireResponse
	reply := getWireBuf()
	decodeErr := reply.readAll(resp.Body)
	resp.Body.Close()
	if decodeErr == nil {
		wire, decodeErr = decodeResponse(reply.b)
	}
	reply.release()
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		return wireResponse{}, &OverloadedError{
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
			Server:     wire.Error,
		}
	case http.StatusNotFound:
		return wireResponse{}, fmt.Errorf("%w (server: %s)", ErrModelNotFound, wire.Error)
	}
	if wire.Error != "" {
		return wireResponse{}, fmt.Errorf("serving: server error: %s", wire.Error)
	}
	if resp.StatusCode != http.StatusOK {
		return wireResponse{}, fmt.Errorf("serving: unexpected status %s", resp.Status)
	}
	if decodeErr != nil {
		return wireResponse{}, fmt.Errorf("serving: decoding response: %w", decodeErr)
	}
	return wire, nil
}

// get fetches a JSON document from the server.
func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("serving: rpc: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		var wire wireResponse
		json.NewDecoder(resp.Body).Decode(&wire) //nolint:errcheck
		return fmt.Errorf("%w (server: %s)", ErrModelNotFound, wire.Error)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serving: unexpected status %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("serving: decoding response: %w", err)
	}
	return nil
}

// Predict sends one prediction RPC against the server's default model (the
// legacy /predict route). The context's cancellation or deadline propagates
// to the server, which aborts the queued or in-flight work for this
// request.
func (c *Client) Predict(ctx context.Context, inputs map[string]value.Value) ([]float64, error) {
	wire, err := c.post(ctx, "/predict", "/predict", inputs, core.PredictOptions{})
	if err != nil {
		return nil, err
	}
	return wire.Predictions, nil
}

// PredictModel sends one prediction RPC against a named model, carrying
// any per-request options (cascade-threshold override, point modality,
// server-side deadline) on the wire.
func (c *Client) PredictModel(ctx context.Context, model string, inputs map[string]value.Value, opts ...core.PredictOption) ([]float64, error) {
	path, escaped := modelPath(model, "/predict")
	wire, err := c.post(ctx, path, escaped, inputs, core.ResolvePredict(opts...))
	if err != nil {
		return nil, err
	}
	return wire.Predictions, nil
}

// PredictResult is the full outcome of one prediction RPC: the predictions
// plus the server's degradation marker, empty on full-fidelity responses
// and one of "small-only", "budget", or "cache" when the answer was
// produced at reduced fidelity under brownout.
type PredictResult struct {
	Predictions []float64
	Degraded    string
}

// PredictModelResult is PredictModel surfacing the whole wire response:
// callers that care whether their answer was brownout-degraded (and how)
// use this; callers that only want numbers keep using PredictModel.
func (c *Client) PredictModelResult(ctx context.Context, model string, inputs map[string]value.Value, opts ...core.PredictOption) (PredictResult, error) {
	path, escaped := modelPath(model, "/predict")
	wire, err := c.post(ctx, path, escaped, inputs, core.ResolvePredict(opts...))
	if err != nil {
		return PredictResult{}, err
	}
	return PredictResult{Predictions: wire.Predictions, Degraded: wire.Degraded}, nil
}

// TopK asks a named model for the indices of the k top-scoring rows of the
// request batch, in descending predicted-score order. Per-request options
// may override the filter's candidate budget.
func (c *Client) TopK(ctx context.Context, model string, inputs map[string]value.Value, k int, opts ...core.PredictOption) ([]int, error) {
	po := core.ResolvePredict(opts...)
	po.K = k
	path, escaped := modelPath(model, "/topk")
	wire, err := c.post(ctx, path, escaped, inputs, po)
	if err != nil {
		return nil, err
	}
	return wire.Indices, nil
}

// Models lists the server's deployed models.
func (c *Client) Models(ctx context.Context) ([]ModelInfo, error) {
	var list wireModelList
	if err := c.get(ctx, "/v1/models", &list); err != nil {
		return nil, err
	}
	return list.Models, nil
}

// Stats fetches one model's serving telemetry.
func (c *Client) Stats(ctx context.Context, model string) (ModelStats, error) {
	var st ModelStats
	err := c.get(ctx, "/v1/models/"+url.PathEscape(model)+"/stats", &st)
	return st, err
}

// Traces fetches the server's retained request traces, newest first. model
// filters to one deployed model ("" for all); n bounds the count (0 for
// all retained).
func (c *Client) Traces(ctx context.Context, model string, n int) ([]RequestTrace, error) {
	q := url.Values{}
	if model != "" {
		q.Set("model", model)
	}
	if n > 0 {
		q.Set("n", strconv.Itoa(n))
	}
	path := "/v1/traces"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var list wireTraceList
	if err := c.get(ctx, path, &list); err != nil {
		return nil, err
	}
	return list.Traces, nil
}

// Package store implements the remote feature-store client: the one wire
// client of a kvstore server. It speaks kvstore's protocol (one pipelined
// MGET round trip per batch, the property the paper's Table 2 request counts
// measure) and owns everything a production deployment needs around that
// round trip:
//
//   - a connection pool with per-request context deadlines, so a stalled
//     store can never wedge a prediction;
//   - bounded retries with jittered exponential backoff on transient
//     connection failures;
//   - request hedging against tail latency: a speculative second attempt
//     after an adaptive p90 delay, first response wins, loser canceled;
//   - a circuit breaker that degrades to cached/default feature values
//     while the store is down — requests succeed (marked degraded) instead
//     of erroring;
//   - async prefetch handles (ops.AsyncTable) the weld runtime uses to
//     overlap the network round trip with local feature compute.
//
// The client implements ops.Table, ops.CtxTable, ops.AsyncTable,
// ops.SchemaChecker and ops.StoreStatsReporter, so it drops into any lookup
// operator.
package store

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"willump/internal/kvstore"
	"willump/internal/metrics"
	"willump/internal/ops"
	"willump/internal/trace"
)

// Config carries the client knobs. The zero value of every field selects a
// production-reasonable default; only Addr is required.
type Config struct {
	// Addr is the store's TCP address (required).
	Addr string
	// ExpectDim, when non-zero, is validated against the server's table
	// width at dial time; zero accepts whatever the server reports.
	ExpectDim int
	// RequestTimeout bounds one multi-get attempt when the request context
	// carries no tighter deadline (default 1s).
	RequestTimeout time.Duration
	// Retries is the number of re-attempts after a transient failure
	// (default 2; negative disables retries).
	Retries int
	// Hedge enables tail-latency hedging: when an attempt is slower than
	// the hedge delay, a second attempt races it and the first response
	// wins (default off; DefaultsHedged turns it on).
	Hedge bool
	// HedgeDelay fixes the hedge trigger delay. Zero selects an adaptive
	// delay: the p90 of recent attempt latencies, clamped to
	// [200µs, RequestTimeout/2].
	HedgeDelay time.Duration
	// BreakerThreshold is the consecutive-failure count that opens the
	// circuit breaker (default 5; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before a
	// half-open probe is allowed through (default 1s).
	BreakerCooldown time.Duration
	// FallbackCapacity caps the last-known-value cache used to answer
	// degraded requests while the breaker is open (default 4096 keys;
	// negative disables the cache, degrading to zero vectors only).
	FallbackCapacity int
}

func (cfg Config) withDefaults() Config {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Second
	}
	if cfg.FallbackCapacity == 0 {
		cfg.FallbackCapacity = 4096
	}
	return cfg
}

// latencyWindow is the number of recent attempt latencies kept for the
// adaptive hedge delay and the reported p50/p99.
const latencyWindow = 1024

// minAdaptiveObservations gates the adaptive hedge delay: until this many
// attempts have completed, the fallback delay is used.
const minAdaptiveObservations = 16

// defaultHedgeDelay is the hedge trigger before the latency window has
// enough observations to adapt.
const defaultHedgeDelay = 2 * time.Millisecond

// Client is a pooled, hedged, breaker-protected remote feature-store
// client. It is safe for concurrent use.
type Client struct {
	cfg Config
	dim int

	mu    sync.Mutex
	conns []*conn

	lat *metrics.Sliding // successful attempt latency

	requests     atomic.Int64
	retries      atomic.Int64
	hedgesIssued atomic.Int64
	hedgesWon    atomic.Int64
	degraded     atomic.Int64
	inflight     atomic.Int64

	brk breaker
	fb  fallback

	closed atomic.Bool
}

// Dial connects to the store, probes its table width, and returns a ready
// client. When cfg.ExpectDim is non-zero a width mismatch is a dial error,
// so artifact bindings fail fast with a descriptive message.
func Dial(ctx context.Context, cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.Addr == "" {
		return nil, fmt.Errorf("store: no address configured")
	}
	c := &Client{
		cfg: cfg,
		lat: metrics.NewSliding(latencyWindow),
	}
	c.brk.init(cfg.BreakerThreshold, cfg.BreakerCooldown)
	c.fb.init(cfg.FallbackCapacity)
	cn, err := c.dialConn(ctx)
	if err != nil {
		return nil, err
	}
	dim, err := cn.probeDim(ctx, cfg.RequestTimeout)
	if err != nil {
		cn.close()
		return nil, fmt.Errorf("store: dim probe of %s: %w", cfg.Addr, err)
	}
	if cfg.ExpectDim != 0 && dim != cfg.ExpectDim {
		cn.close()
		return nil, fmt.Errorf("store: server %s holds %d-wide rows, caller expects %d", cfg.Addr, dim, cfg.ExpectDim)
	}
	c.dim = dim
	c.put(cn)
	return c, nil
}

// Dim implements ops.Table.
func (c *Client) Dim() int { return c.dim }

// Requests implements ops.Table: multi-get calls that reached the network.
func (c *Client) Requests() int64 { return c.requests.Load() }

// ResetRequests zeroes the request counter (between experiment phases).
func (c *Client) ResetRequests() { c.requests.Store(0) }

// CheckSchema implements ops.SchemaChecker. The width was probed from the
// server at dial time, so this is a local comparison.
func (c *Client) CheckSchema(dim int) error {
	if c.dim != dim {
		return fmt.Errorf("store: server %s holds %d-wide rows, lookup expects %d", c.cfg.Addr, c.dim, dim)
	}
	return nil
}

// StoreStats implements ops.StoreStatsReporter.
func (c *Client) StoreStats() ops.StoreStats {
	var qs [2]time.Duration
	c.lat.Quantiles(qs[:], 0.5, 0.99)
	return ops.StoreStats{
		Requests:     c.requests.Load(),
		Retries:      c.retries.Load(),
		HedgesIssued: c.hedgesIssued.Load(),
		HedgesWon:    c.hedgesWon.Load(),
		Degraded:     c.degraded.Load(),
		BreakerOpens: c.brk.opens.Load(),
		Inflight:     c.inflight.Load(),
		BreakerState: c.brk.stateString(),
		P50Millis:    float64(qs[0]) / float64(time.Millisecond),
		P99Millis:    float64(qs[1]) / float64(time.Millisecond),
	}
}

// LookupBatch implements ops.Table (context-free callers: interpreted
// point path, fit-time profiling).
func (c *Client) LookupBatch(keys []int64) ([][]float64, error) {
	return c.LookupBatchCtx(context.Background(), keys)
}

// LookupBatchCtx implements ops.CtxTable: one robust multi-get under the
// request context, recording store:mget / store:hedge trace spans on the
// calling goroutine.
func (c *Client) LookupBatchCtx(ctx context.Context, keys []int64) ([][]float64, error) {
	start := time.Now()
	rows, hedgeStart, err := c.lookup(ctx, keys)
	if tr := trace.FromContext(ctx); tr != nil {
		tr.Record(trace.StageStoreMGet, start)
		if !hedgeStart.IsZero() {
			tr.Record(trace.StageStoreHedge, hedgeStart)
		}
	}
	return rows, err
}

// StartLookup implements ops.AsyncTable: the robust multi-get runs on a
// background goroutine while the caller computes local features; trace
// spans are recorded by Wait, on the waiter's goroutine.
func (c *Client) StartLookup(ctx context.Context, keys []int64) ops.PendingLookup {
	pctx, cancel := context.WithCancel(ctx)
	p := &pending{c: c, cancel: cancel, done: make(chan struct{}), start: time.Now()}
	go func() {
		defer close(p.done)
		p.rows, p.hedgeStart, p.err = c.lookup(pctx, keys)
	}()
	return p
}

// lookup is the robust multi-get: breaker gate, retry loop, hedged
// attempts, fallback fill. It never touches the trace (callers record
// spans on a request-owned goroutine). hedgeStart is non-zero when a hedge
// was launched, regardless of which attempt won.
func (c *Client) lookup(ctx context.Context, keys []int64) (rows [][]float64, hedgeStart time.Time, err error) {
	if c.closed.Load() {
		return nil, time.Time{}, fmt.Errorf("store: client closed")
	}
	if len(keys) == 0 {
		return nil, time.Time{}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, time.Time{}, err
	}
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	if !c.brk.allow() {
		// Breaker open: degrade to last-known/default values, but still
		// succeed. The caller sees a normal (degraded) prediction.
		c.degraded.Add(1)
		return c.fb.rows(keys, c.dim), time.Time{}, nil
	}
	start := time.Now()
	rows, hedgeStart, err = c.lookupRetry(ctx, keys)
	if err != nil {
		c.brk.failure()
		if c.brk.isOpen() && ctx.Err() == nil {
			// The failure that opened (or kept open) the breaker: this
			// request degrades too rather than erroring.
			c.degraded.Add(1)
			return c.fb.rows(keys, c.dim), hedgeStart, nil
		}
		return nil, hedgeStart, err
	}
	c.brk.success()
	c.lat.Observe(time.Since(start))
	c.fb.store(keys, rows)
	return rows, hedgeStart, nil
}

// Close closes all pooled connections. In-flight lookups fail.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cn := range c.conns {
		cn.close()
	}
	c.conns = nil
	return nil
}

// conn is one pooled TCP connection.
type conn struct {
	c net.Conn
}

func (cn *conn) close() { cn.c.Close() }

// The pool keeps at most poolSize idle connections; dialTimeout bounds
// connection establishment.
const (
	poolSize    = 8
	dialTimeout = 2 * time.Second
)

func (c *Client) dialConn(ctx context.Context) (*conn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	nc, err := d.DialContext(ctx, "tcp", c.cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("store: dial %s: %w", c.cfg.Addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &conn{c: nc}, nil
}

// get pops an idle pooled connection or dials a fresh one.
func (c *Client) get(ctx context.Context) (*conn, error) {
	c.mu.Lock()
	if n := len(c.conns); n > 0 {
		cn := c.conns[n-1]
		c.conns = c.conns[:n-1]
		c.mu.Unlock()
		return cn, nil
	}
	c.mu.Unlock()
	return c.dialConn(ctx)
}

// put returns a clean connection to the idle pool.
func (c *Client) put(cn *conn) {
	c.mu.Lock()
	if len(c.conns) < poolSize && !c.closed.Load() {
		c.conns = append(c.conns, cn)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	cn.close()
}

// probeDim asks the server for its table width ('D' frame).
func (cn *conn) probeDim(ctx context.Context, timeout time.Duration) (int, error) {
	dl := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(dl) {
		dl = d
	}
	cn.c.SetDeadline(dl)
	defer cn.c.SetDeadline(time.Time{})
	if _, err := cn.c.Write(kvstore.AppendDimProbe(nil)); err != nil {
		return 0, err
	}
	return kvstore.ReadDimResponse(cn.c)
}

// attempt is one multi-get over one connection, bounded by the earlier of
// ctx's deadline and the configured request timeout. A canceled or failed
// attempt discards its connection; only clean exchanges pool the conn.
func (c *Client) attempt(ctx context.Context, keys []int64) ([][]float64, error) {
	cn, err := c.get(ctx)
	if err != nil {
		return nil, err
	}
	dl := time.Now().Add(c.cfg.RequestTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(dl) {
		dl = d
	}
	cn.c.SetDeadline(dl)
	stop := context.AfterFunc(ctx, func() {
		cn.c.SetDeadline(time.Unix(1, 0)) // expire: unblock in-flight I/O
	})
	rows, err := cn.mget(keys, c.dim)
	if !stop() {
		// Cancel fired mid-exchange; the conn deadline is poisoned.
		cn.close()
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if err != nil {
			return nil, err
		}
		return nil, context.Canceled
	}
	if err != nil {
		cn.close()
		return nil, err
	}
	cn.c.SetDeadline(time.Time{})
	c.put(cn)
	c.requests.Add(1)
	return rows, nil
}

func (cn *conn) mget(keys []int64, dim int) ([][]float64, error) {
	req := kvstore.AppendMGet(make([]byte, 0, 5+8*len(keys)), keys)
	if _, err := cn.c.Write(req); err != nil {
		return nil, fmt.Errorf("store: write: %w", err)
	}
	return kvstore.ReadMGetResponse(cn.c, len(keys), dim)
}

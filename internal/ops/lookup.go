package ops

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"willump/internal/artifact"
	"willump/internal/feature"
	"willump/internal/value"
)

// Table is a keyed feature table: the abstraction behind the paper's "remote
// data lookup, data joins" operators (Music, Credit, Tracking benchmarks).
// Implementations include the in-memory LocalTable and the remote store
// client (internal/store).
type Table interface {
	// Dim returns the width of each stored feature vector.
	Dim() int
	// LookupBatch fetches feature vectors for all keys. Missing keys yield
	// nil entries; callers substitute a default vector. Implementations may
	// batch or pipeline the fetches.
	LookupBatch(keys []int64) ([][]float64, error)
	// Requests returns the cumulative number of lookup requests issued
	// (cache misses reaching the backing store count; for remote tables this
	// counts actual remote requests, the metric of paper Table 2).
	Requests() int64
}

// AsyncTable is an optional Table extension for remote stores that can
// begin a batched lookup without blocking, so the network round trip
// overlaps local feature compute. The weld runtime detects it at plan-fuse
// time and kicks off the fetch when a run starts, joining only where the
// lookup's output is first consumed.
type AsyncTable interface {
	Table
	// StartLookup begins fetching keys and returns immediately. The fetch
	// is bounded by ctx; callers must Wait or Cancel the handle.
	StartLookup(ctx context.Context, keys []int64) PendingLookup
}

// PendingLookup is one in-flight asynchronous multi-get.
type PendingLookup interface {
	// Wait blocks until the fetch completes or ctx ends, returning the rows
	// in key order (nil entries for missing keys). Wait runs on the request
	// goroutine, so implementations may record trace spans here.
	Wait(ctx context.Context) ([][]float64, error)
	// Cancel abandons the fetch without waiting for its result.
	Cancel()
}

// CtxTable is an optional Table extension for stores whose lookups honor a
// request context (deadline propagation, cancellation). The compiled batch
// path prefers it over the context-free LookupBatch when present.
type CtxTable interface {
	Table
	LookupBatchCtx(ctx context.Context, keys []int64) ([][]float64, error)
}

// SchemaChecker is an optional Table extension for remote tables that can
// validate their server-side schema against the operator's expectations up
// front, so a bad binding surfaces at artifact Load/rebind time with a
// descriptive error instead of failing on the first predict.
type SchemaChecker interface {
	CheckSchema(dim int) error
}

// StoreStats is a point-in-time snapshot of a production remote-store
// client's health counters, aggregated per model over its lookup tables'
// clients. It lives in ops (rather than the store package) so core and
// serving can aggregate it without importing the client implementation. It
// is also the `feature_store` block of the serving stats response — the
// json tags and the field order are that wire format, so a new field is
// declared here once (and exported on /metrics by one row of serving's
// family table).
type StoreStats struct {
	// Requests counts remote multi-get calls that reached the network path.
	Requests int64 `json:"requests"`
	// Retries counts re-attempts after transient failures.
	Retries int64 `json:"retries"`
	// HedgesIssued / HedgesWon count speculative second attempts launched
	// against tail latency, and how many returned before the primary.
	HedgesIssued int64 `json:"hedges_issued,omitempty"`
	HedgesWon    int64 `json:"hedges_won"`
	// Degraded counts requests answered from cached/default feature values
	// while the circuit breaker was open (the request still succeeded).
	Degraded int64 `json:"degraded,omitempty"`
	// BreakerOpens counts closed/half-open -> open transitions.
	BreakerOpens int64 `json:"breaker_opens,omitempty"`
	// BreakerState is "closed", "half-open", or "open".
	BreakerState string `json:"breaker_state"`
	// Inflight is the number of lookups currently on the wire.
	Inflight int64 `json:"inflight,omitempty"`
	// P50Millis / P99Millis are windowed lookup latency quantiles.
	P50Millis float64 `json:"p50_ms,omitempty"`
	P99Millis float64 `json:"p99_ms"`
}

// merged folds another snapshot into this one (multiple store clients bound
// to one pipeline): counters sum, quantiles take the worst, and the breaker
// state reports the most degraded client.
func (s StoreStats) merged(o StoreStats) StoreStats {
	s.Requests += o.Requests
	s.Retries += o.Retries
	s.HedgesIssued += o.HedgesIssued
	s.HedgesWon += o.HedgesWon
	s.Degraded += o.Degraded
	s.BreakerOpens += o.BreakerOpens
	s.Inflight += o.Inflight
	if BreakerRank(o.BreakerState) > BreakerRank(s.BreakerState) {
		s.BreakerState = o.BreakerState
	}
	s.P50Millis = max(s.P50Millis, o.P50Millis)
	s.P99Millis = max(s.P99Millis, o.P99Millis)
	return s
}

// BreakerRank orders breaker states by how degraded the client is: 0
// closed, 1 half-open, 2 open. It is also the state's gauge value on
// /metrics.
func BreakerRank(state string) int {
	switch state {
	case "open":
		return 2
	case "half-open":
		return 1
	default:
		return 0
	}
}

// Merge folds snapshots from several reporters into one pipeline-level view.
func MergeStoreStats(snaps ...StoreStats) StoreStats {
	var out StoreStats
	for i, s := range snaps {
		if i == 0 {
			out = s
			continue
		}
		out = out.merged(s)
	}
	return out
}

// StoreStatsReporter is implemented by remote-store clients that expose
// health counters. Optimized pipelines walk their lookup tables for it when
// building per-model stats.
type StoreStatsReporter interface {
	StoreStats() StoreStats
}

// LocalTable is an in-memory feature table (a local Pandas-dataframe join in
// the original benchmarks).
type LocalTable struct {
	dim      int
	rows     map[int64][]float64
	requests atomic.Int64
}

// NewLocalTable builds a local table of feature vectors with width dim.
func NewLocalTable(dim int, rows map[int64][]float64) *LocalTable {
	for k, v := range rows {
		if len(v) != dim {
			panic(fmt.Sprintf("ops: NewLocalTable: key %d has %d features, want %d", k, len(v), dim))
		}
	}
	return &LocalTable{dim: dim, rows: rows}
}

// Dim implements Table.
func (t *LocalTable) Dim() int { return t.dim }

// LookupBatch implements Table.
func (t *LocalTable) LookupBatch(keys []int64) ([][]float64, error) {
	t.requests.Add(int64(len(keys)))
	out := make([][]float64, len(keys))
	for i, k := range keys {
		out[i] = t.rows[k] // nil if missing
	}
	return out, nil
}

// Requests implements Table.
func (t *LocalTable) Requests() int64 { return t.requests.Load() }

// Rows returns the backing row map (shared, do not mutate). Artifact
// serialization inlines it so a deployment process needs no external store.
func (t *LocalTable) Rows() map[int64][]float64 { return t.rows }

// Lookup joins a key column against a feature table, producing one dense
// feature vector per row. Missing keys produce zero vectors. Lookup is
// compilable: batch lookups pipeline through the table's LookupBatch.
//
// A Lookup decoded from an artifact may arrive without a bound table (when
// the table was remote and could not be inlined); it must be bound with
// BindTable before use.
type Lookup struct {
	TableName string
	table     Table
	dim       int

	mu       sync.Mutex
	defaults []float64
}

// NewLookup returns a lookup operator against the given table.
func NewLookup(tableName string, table Table) *Lookup {
	return &Lookup{
		TableName: tableName,
		table:     table,
		dim:       table.Dim(),
		defaults:  make([]float64, table.Dim()),
	}
}

// Name implements graph.Op.
func (l *Lookup) Name() string { return "lookup(" + l.TableName + ")" }

// Compilable implements graph.Op.
func (l *Lookup) Compilable() bool { return true }

// Commutative implements graph.Op.
func (l *Lookup) Commutative() bool { return false }

// Width returns the joined feature width.
func (l *Lookup) Width() int { return l.dim }

// Table returns the backing table (nil for an unbound decoded Lookup).
func (l *Lookup) Table() Table { return l.table }

// NeedsTable reports whether the lookup still needs a table bound to it.
func (l *Lookup) NeedsTable() bool { return l.table == nil }

// TableRef returns the name callers use to bind a table at load time.
func (l *Lookup) TableRef() string { return l.TableName }

// BindTable attaches a backing table to an unbound decoded Lookup. The
// table's width must match the width the operator was fitted with.
func (l *Lookup) BindTable(t Table) error {
	if t == nil {
		return fmt.Errorf("ops: %s: BindTable(nil)", l.Name())
	}
	if t.Dim() != l.dim {
		return fmt.Errorf("ops: %s: bound table has width %d, artifact expects %d", l.Name(), t.Dim(), l.dim)
	}
	if sc, ok := t.(SchemaChecker); ok {
		// Remote tables can report a locally-configured width that disagrees
		// with what the server actually holds; validate against the server
		// now so the mismatch is a bind-time error, not a first-predict one.
		if err := sc.CheckSchema(l.dim); err != nil {
			return fmt.Errorf("ops: %s: schema validation: %w", l.Name(), err)
		}
	}
	l.table = t
	return nil
}

// Materialize builds the lookup's dense output from rows fetched out of
// band (a batch fetch, or an async prefetch joining at consume time). Rows
// arrive in key order; nil rows produce the default zero vector.
func (l *Lookup) Materialize(rows [][]float64, n int) (value.Value, error) {
	if len(rows) != n {
		return value.Value{}, fmt.Errorf("ops: %s: table returned %d rows, want %d", l.Name(), len(rows), n)
	}
	out := feature.NewDense(n, l.dim)
	for i, v := range rows {
		if v != nil {
			copy(out.Row(i), v)
		}
	}
	return value.NewMat(out), nil
}

// lookupRows is the one table-fetch path every execution mode funnels
// through: tables that honor contexts (remote store clients) are driven via
// LookupBatchCtx so deadlines and cancellation reach the wire, and only
// context-free tables fall back to the deprecated LookupBatch. Callers
// without a real request context pass context.Background(), which for
// ctx-aware tables is exactly what their own LookupBatch wrapper does.
func (l *Lookup) lookupRows(ctx context.Context, keys []int64) ([][]float64, error) {
	if ct, ok := l.table.(CtxTable); ok && ctx != nil {
		return ct.LookupBatchCtx(ctx, keys)
	}
	return l.table.LookupBatch(keys)
}

// Apply implements graph.Op.
func (l *Lookup) Apply(ins []value.Value) (value.Value, error) {
	return applyFresh(l, ins)
}

// ApplyCtx is Apply with request-context propagation: when the bound table
// honors contexts (a remote store client), the request's deadline and
// cancellation reach the wire and store trace spans land on the request's
// trace. Tables without context support use the context-free batch path.
func (l *Lookup) ApplyCtx(ctx context.Context, ins []value.Value) (value.Value, error) {
	if l.table == nil {
		return value.Value{}, fmt.Errorf("ops: %s: no table bound; supply one when loading the artifact", l.Name())
	}
	if len(ins) != 1 {
		return value.Value{}, errArity(l.Name(), len(ins), 1)
	}
	if ins[0].Kind != value.Ints {
		return value.Value{}, errKind(l.Name(), 0, ins[0].Kind, value.Ints)
	}
	keys := ins[0].Ints
	vecs, err := l.lookupRows(ctx, keys)
	if err != nil {
		return value.Value{}, fmt.Errorf("ops: %s: %w", l.Name(), err)
	}
	return l.Materialize(vecs, len(keys))
}

// ApplyBoxed implements graph.Op: one remote/local request per row, exactly
// how an unoptimized Python pipeline issues point lookups.
func (l *Lookup) ApplyBoxed(ins []any) (any, error) {
	return l.ApplyBoxedCtx(context.Background(), ins)
}

// ApplyBoxedCtx implements graph.CtxBoxedApplier: the interpreted drivers
// pass the run's request context here, so even the one-request-per-row
// baseline path propagates deadlines end-to-end instead of falling back to
// the table's fixed I/O timeout.
func (l *Lookup) ApplyBoxedCtx(ctx context.Context, ins []any) (any, error) {
	if l.table == nil {
		return nil, fmt.Errorf("ops: %s: no table bound; supply one when loading the artifact", l.Name())
	}
	if len(ins) != 1 {
		return nil, errArity(l.Name(), len(ins), 1)
	}
	k, ok := ins[0].(int64)
	if !ok {
		return nil, errBoxed(l.Name(), 0, ins[0], "int64")
	}
	vecs, err := l.lookupRows(ctx, []int64{k})
	if err != nil {
		return nil, fmt.Errorf("ops: %s: %w", l.Name(), err)
	}
	out := make([]float64, l.dim)
	if vecs[0] != nil {
		copy(out, vecs[0])
	}
	return out, nil
}

// lookupState is the serialized form of a Lookup operator. For local
// in-memory tables the rows are inlined (keys serialized as decimal
// strings), making the artifact fully self-contained; remote tables
// serialize as unbound references that the loader must rebind.
type lookupState struct {
	TableName string                     `json:"table_name"`
	Dim       int                        `json:"dim"`
	Rows      map[string]artifact.Vector `json:"rows,omitempty"`
	Inline    bool                       `json:"inline,omitempty"`
}

// MarshalState implements StateMarshaler.
func (l *Lookup) MarshalState() ([]byte, error) {
	st := lookupState{TableName: l.TableName, Dim: l.dim}
	if lt, ok := l.table.(*LocalTable); ok {
		st.Inline = true
		st.Rows = make(map[string]artifact.Vector, len(lt.Rows()))
		for k, v := range lt.Rows() {
			st.Rows[strconv.FormatInt(k, 10)] = artifact.Vector(v)
		}
	}
	return json.Marshal(st)
}

// UnmarshalState implements StateUnmarshaler.
func (l *Lookup) UnmarshalState(state []byte) error {
	var st lookupState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	if st.Dim < 0 {
		return fmt.Errorf("ops: lookup state has negative width %d", st.Dim)
	}
	l.TableName = st.TableName
	l.dim = st.Dim
	l.defaults = make([]float64, st.Dim)
	l.table = nil
	if st.Inline {
		rows := make(map[int64][]float64, len(st.Rows))
		for ks, v := range st.Rows {
			k, err := strconv.ParseInt(ks, 10, 64)
			if err != nil {
				return fmt.Errorf("ops: lookup state key %q: %w", ks, err)
			}
			if len(v) != st.Dim {
				return fmt.Errorf("ops: lookup state key %q has %d features, want %d", ks, len(v), st.Dim)
			}
			rows[k] = []float64(v)
		}
		l.table = NewLocalTable(st.Dim, rows)
	}
	return nil
}

// Package pipeline assembles the six benchmark pipelines of the paper's
// evaluation (Table 1) from the synthetic datasets in internal/data, the
// operators in internal/ops, and the models in internal/model. Each builder
// returns a Benchmark: an untrained core.Pipeline plus train/validation/test
// datasets, together with handles on the pipeline's feature tables so the
// remote-lookup experiments can count requests. Product and Toxic share one
// graph builder, the lookup benchmarks one table binder, and every builder
// ends in one split-and-assemble tail; node labels and insertion order fix
// the IFV indices, so they are part of each benchmark's definition.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"willump/internal/core"
	"willump/internal/graph"
	"willump/internal/kvstore"
	"willump/internal/model"
	"willump/internal/ops"
	"willump/internal/store"
	"willump/internal/value"
)

// Backend chooses where a pipeline's feature tables live.
type Backend interface {
	// Table materializes a keyed feature table of width dim.
	Table(name string, dim int, rows map[int64][]float64) (ops.Table, error)
	// Close releases any resources (servers, connections).
	Close() error
}

// LocalBackend stores tables in process memory (the "data tables stored
// locally" configuration of section 6.3).
type LocalBackend struct{}

// Table implements Backend.
func (LocalBackend) Table(name string, dim int, rows map[int64][]float64) (ops.Table, error) {
	return ops.NewLocalTable(dim, rows), nil
}

// Close implements Backend.
func (LocalBackend) Close() error { return nil }

// RemoteBackend stores each table in its own kvstore server (the "remotely
// stored features" configuration: Redis in the paper's setup) with the given
// injected per-request latency.
type RemoteBackend struct {
	Latency time.Duration

	servers []*kvstore.Server
	clients []*store.Client
}

// syncTable is the synchronous view of a store client: ops.Table and
// ops.CtxTable, but not ops.AsyncTable. Without StartLookup weld cannot
// prefetch every lookup when a run starts, so a remote request is issued only
// where a plan step consumes it — which is what lets the remote experiments
// (Tables 2-3) show cascades and feature caching removing requests.
type syncTable struct{ c *store.Client }

func (t syncTable) Dim() int        { return t.c.Dim() }
func (t syncTable) Requests() int64 { return t.c.Requests() }
func (t syncTable) LookupBatch(keys []int64) ([][]float64, error) {
	return t.c.LookupBatch(keys)
}
func (t syncTable) LookupBatchCtx(ctx context.Context, keys []int64) ([][]float64, error) {
	return t.c.LookupBatchCtx(ctx, keys)
}

// Dial connects to a kvstore server that is already running and returns the
// synchronous view of its table; Close closes the connection. The client runs
// with retries, hedging and the circuit breaker off, so one lookup is one
// request and a store failure is an error rather than a degraded answer; the
// long request timeout covers fit-time lookups, which fetch a whole training
// split in one multi-get from a server with injected latency.
func (b *RemoteBackend) Dial(addr string, dim int) (ops.Table, error) {
	cli, err := store.Dial(context.Background(), store.Config{
		Addr:             addr,
		ExpectDim:        dim,
		RequestTimeout:   10 * time.Second,
		Retries:          -1,
		BreakerThreshold: -1,
		FallbackCapacity: -1,
	})
	if err != nil {
		return nil, err
	}
	b.clients = append(b.clients, cli)
	return syncTable{cli}, nil
}

// Table implements Backend.
func (b *RemoteBackend) Table(name string, dim int, rows map[int64][]float64) (ops.Table, error) {
	srv := kvstore.NewServer(dim, b.Latency)
	if err := srv.Load(rows); err != nil {
		return nil, fmt.Errorf("pipeline: loading table %s: %w", name, err)
	}
	addr, err := srv.Start()
	if err != nil {
		return nil, fmt.Errorf("pipeline: starting table %s: %w", name, err)
	}
	t, err := b.Dial(addr, dim)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("pipeline: dialing table %s: %w", name, err)
	}
	b.servers = append(b.servers, srv)
	return t, nil
}

// Close implements Backend.
func (b *RemoteBackend) Close() error {
	var first error
	for _, c := range b.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, s := range b.servers {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	b.clients, b.servers = nil, nil
	return first
}

// Benchmark is one fully assembled benchmark workload.
type Benchmark struct {
	// Name is the paper's benchmark name (product, music, toxic, credit,
	// price, tracking).
	Name string
	// Pipeline is the untrained pipeline handed to core.Optimize.
	Pipeline *core.Pipeline
	// Train, Valid, Test are the dataset splits.
	Train, Valid, Test core.Dataset
	// Tables maps table names to their backing stores, for request counting
	// in the remote experiments. Nil for text benchmarks.
	Tables map[string]ops.Table

	backend Backend
}

// Close releases the benchmark's backend resources.
func (b *Benchmark) Close() error {
	if b.backend == nil {
		return nil
	}
	return b.backend.Close()
}

// TotalTableRequests sums request counts over all tables.
func (b *Benchmark) TotalTableRequests() int64 {
	var total int64
	for _, t := range b.Tables {
		total += t.Requests()
	}
	return total
}

// Config controls benchmark construction.
type Config struct {
	// Seed drives all dataset generation.
	Seed int64
	// N is the total number of rows across splits (default 4000).
	N int
	// Backend stores the benchmark's tables (default LocalBackend).
	Backend Backend
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 4000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Backend == nil {
		c.Backend = LocalBackend{}
	}
	return c
}

// assemble is the tail every builder shares: it builds the graph, splits
// the per-row columns into contiguous 50/20/30 train/validation/test
// blocks, and packages them with the untrained model and the benchmark's
// tables (nil for the text benchmarks).
func assemble(cfg Config, name string, b *graph.Builder, m model.Model, inputs map[string]value.Value, y []float64, tables map[string]ops.Table) (*Benchmark, error) {
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	train, valid, test := splitDataset(core.Dataset{Inputs: inputs, Y: y}, cfg.N)
	return &Benchmark{
		Name:     name,
		Pipeline: &core.Pipeline{Graph: g, Model: m},
		Train:    train, Valid: valid, Test: test,
		Tables:  tables,
		backend: cfg.Backend,
	}, nil
}

// splitDataset cuts n rows of all into contiguous train/valid/test blocks.
func splitDataset(all core.Dataset, n int) (train, valid, test core.Dataset) {
	nTrain, nValid := n*5/10, n*2/10
	block := func(lo, hi int) core.Dataset {
		rows := make([]int, hi-lo)
		for i := range rows {
			rows[i] = lo + i
		}
		return all.Gather(rows)
	}
	return block(0, nTrain), block(nTrain, nTrain+nValid), block(nTrain+nValid, n)
}

// All builds every benchmark with the same configuration. Callers must
// Close each returned benchmark.
func All(cfg Config) ([]*Benchmark, error) {
	builders := []func(Config) (*Benchmark, error){
		Product, Music, Toxic, Credit, Price, Tracking,
	}
	out := make([]*Benchmark, 0, len(builders))
	for _, build := range builders {
		b, err := build(cfg)
		if err != nil {
			for _, done := range out {
				done.Close()
			}
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// ByName builds one benchmark by its paper name.
func ByName(name string, cfg Config) (*Benchmark, error) {
	switch name {
	case "product":
		return Product(cfg)
	case "music":
		return Music(cfg)
	case "toxic":
		return Toxic(cfg)
	case "credit":
		return Credit(cfg)
	case "price":
		return Price(cfg)
	case "tracking":
		return Tracking(cfg)
	default:
		return nil, fmt.Errorf("pipeline: unknown benchmark %q", name)
	}
}

// Names lists the benchmark names in the paper's Table 1 order.
func Names() []string {
	return []string{"product", "music", "toxic", "credit", "price", "tracking"}
}

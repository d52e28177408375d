// Package experiments regenerates every table and figure of the paper's
// evaluation (section 6) against the synthetic benchmark suite. Each
// function prints rows shaped like the paper's, and returns structured
// results so tests can assert the qualitative claims (who wins, by roughly
// what factor, where crossovers fall). The cmd/willump-bench binary and the
// repository-root benchmarks are thin wrappers over this package.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"willump/internal/core"
	"willump/internal/model"
	"willump/internal/pipeline"
)

// Setup controls experiment scale. Quick() keeps everything test-sized;
// Full() approaches the paper's batch sizes where feasible.
type Setup struct {
	// N is the per-benchmark dataset size.
	N int
	// Seed drives data generation.
	Seed int64
	// PointQueries is the number of example-at-a-time queries measured.
	PointQueries int
	// Reps is the number of timed repetitions per throughput measurement.
	Reps int
	// RemoteLatency is the injected per-request latency for the
	// remote-table experiments.
	RemoteLatency time.Duration
	// InterpretedRows bounds how many rows the interpreted baseline
	// processes per measurement (it is slow by design); throughput is
	// still reported in rows/second.
	InterpretedRows int
}

// Quick returns a setup sized for CI and unit tests.
func Quick() Setup {
	return Setup{
		N: 1600, Seed: 1, PointQueries: 30, Reps: 2,
		RemoteLatency: 300 * time.Microsecond, InterpretedRows: 200,
	}
}

// Full returns the default experiment scale used by cmd/willump-bench.
func Full() Setup {
	return Setup{
		N: 6000, Seed: 1, PointQueries: 100, Reps: 3,
		RemoteLatency: time.Millisecond, InterpretedRows: 500,
	}
}

// boundedRows gathers at most limit rows of a dataset for the interpreted
// baseline.
func boundedRows(d core.Dataset, limit int) core.Dataset {
	if d.Len() <= limit {
		return d
	}
	rows := make([]int, limit)
	for i := range rows {
		rows[i] = i
	}
	return d.Gather(rows)
}

// buildOptimized constructs a benchmark and optimizes it with the given
// options; the caller must Close the returned benchmark. The experiments
// that isolate one optimization (compilation, cascades, top-K filters) pass
// Workers: 1, so their ratios measure it and not row-parallel batches; Fig. 8
// sweeps the thread count itself.
func buildOptimized(name string, s Setup, backend pipeline.Backend, opts core.Options) (*pipeline.Benchmark, *core.Optimized, *core.Report, error) {
	b, err := pipeline.ByName(name, pipeline.Config{Seed: s.Seed, N: s.N, Backend: backend})
	if err != nil {
		return nil, nil, nil, err
	}
	o, rep, err := core.Optimize(context.Background(), b.Pipeline, b.Train, b.Valid, opts)
	if err != nil {
		b.Close()
		return nil, nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	return b, o, rep, nil
}

// accuracyOf computes task-appropriate quality: accuracy for classifiers,
// negative MSE for regressors (so bigger is always better).
func accuracyOf(m model.Model, preds, y []float64) float64 {
	if m.Task() == model.Classification {
		return model.Accuracy(preds, y)
	}
	return -model.MSE(preds, y)
}

// header prints a table header line.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"willump/internal/cascade"
	"willump/internal/core"
	"willump/internal/metrics"
	"willump/internal/model"
	"willump/internal/pipeline"
)

// Fig5Row is one benchmark's batch-throughput measurements (Figure 5):
// the original interpreted pipeline, Willump compilation, and compilation
// plus end-to-end cascades.
type Fig5Row struct {
	Benchmark          string
	PythonThroughput   float64
	CompiledThroughput float64
	CascadesThroughput float64 // 0 for regression benchmarks (N/A)
	// CascadedFrac is the share of test rows the cascade sent on to the full
	// model (cascade.ServeStats Cascaded/Total): the cause of the cascade
	// speedup, and unlike the throughput ratio the same on every run of one
	// plan.
	CascadedFrac float64

	PythonAccuracy   float64
	CompiledAccuracy float64
	CascadesAccuracy float64
}

// Fig5 reproduces Figure 5: batch-query throughput across all six
// benchmarks with data tables stored locally.
func Fig5(w io.Writer, s Setup) ([]Fig5Row, error) {
	header(w, "Figure 5: batch throughput (rows/s), local tables")
	fmt.Fprintf(w, "%-10s %14s %14s %14s %10s %10s\n", "benchmark", "python", "compiled", "+cascades", "speedup", "full rows")
	var out []Fig5Row
	for _, name := range pipeline.Names() {
		row, err := fig5One(name, s)
		if err != nil {
			return nil, err
		}
		casc, speedup, full := "N/A", "N/A", "N/A"
		if row.CascadesThroughput > 0 {
			casc = fmt.Sprintf("%14.0f", row.CascadesThroughput)
			speedup = fmt.Sprintf("%.2fx", row.CascadesThroughput/row.CompiledThroughput)
			full = fmt.Sprintf("%.1f%%", 100*row.CascadedFrac)
		}
		fmt.Fprintf(w, "%-10s %14.0f %14.0f %14s %10s %10s\n",
			row.Benchmark, row.PythonThroughput, row.CompiledThroughput, casc, speedup, full)
		out = append(out, row)
	}
	return out, nil
}

func fig5One(name string, s Setup) (Fig5Row, error) {
	b, o, _, err := buildOptimized(name, s, pipeline.LocalBackend{}, core.Options{})
	if err != nil {
		return Fig5Row{}, err
	}
	defer b.Close()
	row := Fig5Row{Benchmark: name}

	// Interpreted ("Python") baseline over a bounded prefix.
	interp := boundedRows(b.Test, s.InterpretedRows)
	var interpPreds []float64
	row.PythonThroughput, err = metrics.Throughput(interp.Len(), s.Reps, func() error {
		interpPreds, err = o.PredictInterpreted(context.Background(), interp.Inputs)
		return err
	})
	if err != nil {
		return Fig5Row{}, err
	}
	row.PythonAccuracy = accuracyOf(b.Pipeline.Model, interpPreds, interp.Y)

	// Willump compilation.
	var compiledPreds []float64
	row.CompiledThroughput, err = metrics.Throughput(b.Test.Len(), s.Reps, func() error {
		compiledPreds, err = o.PredictFull(context.Background(), b.Test.Inputs)
		return err
	})
	if err != nil {
		return Fig5Row{}, err
	}
	row.CompiledAccuracy = accuracyOf(b.Pipeline.Model, compiledPreds, b.Test.Y)

	// Compilation + cascades (classification only, as in the paper).
	if b.Pipeline.Model.Task() == model.Classification {
		bc, oc, rep, err := buildOptimized(name, s, pipeline.LocalBackend{},
			core.Options{Cascades: true, AccuracyTarget: 0.015})
		if err != nil {
			return Fig5Row{}, err
		}
		defer bc.Close()
		if rep.CascadeBuilt {
			var cascPreds []float64
			var served cascade.ServeStats
			row.CascadesThroughput, err = metrics.Throughput(bc.Test.Len(), s.Reps, func() error {
				cascPreds, served, err = oc.PredictBatchOptions(context.Background(), bc.Test.Inputs, core.PredictOptions{})
				return err
			})
			if err != nil {
				return Fig5Row{}, err
			}
			row.CascadedFrac = float64(served.Cascaded) / float64(served.Total)
			row.CascadesAccuracy = accuracyOf(bc.Pipeline.Model, cascPreds, bc.Test.Y)
		}
	}
	return row, nil
}

// Fig6Row is one benchmark's example-at-a-time latency measurements
// (Figure 6).
type Fig6Row struct {
	Benchmark       string
	PythonLatency   time.Duration
	CompiledLatency time.Duration
	CascadesLatency time.Duration // 0 for regression benchmarks
	// CascadedFrac is the share of the timed point queries whose small-model
	// confidence fell below the threshold, so that the full model ran
	// (cascade.ServeStats Cascaded/Total over the same rows as one batch).
	CascadedFrac float64
}

// Fig6 reproduces Figure 6: example-at-a-time query latency across all six
// benchmarks with data tables stored locally.
func Fig6(w io.Writer, s Setup) ([]Fig6Row, error) {
	header(w, "Figure 6: example-at-a-time latency, local tables")
	fmt.Fprintf(w, "%-10s %14s %14s %14s %10s %10s\n", "benchmark", "python", "compiled", "+cascades", "speedup", "full rows")
	var out []Fig6Row
	for _, name := range pipeline.Names() {
		row, err := fig6One(name, s)
		if err != nil {
			return nil, err
		}
		casc, speedup, full := "N/A", "N/A", "N/A"
		if row.CascadesLatency > 0 {
			casc = row.CascadesLatency.Round(time.Microsecond).String()
			speedup = fmt.Sprintf("%.2fx", float64(row.CompiledLatency)/float64(row.CascadesLatency))
			full = fmt.Sprintf("%.1f%%", 100*row.CascadedFrac)
		}
		fmt.Fprintf(w, "%-10s %14s %14s %14s %10s %10s\n", row.Benchmark,
			row.PythonLatency.Round(time.Microsecond),
			row.CompiledLatency.Round(time.Microsecond), casc, speedup, full)
		out = append(out, row)
	}
	return out, nil
}

func fig6One(name string, s Setup) (Fig6Row, error) {
	b, o, _, err := buildOptimized(name, s, pipeline.LocalBackend{}, core.Options{})
	if err != nil {
		return Fig6Row{}, err
	}
	defer b.Close()
	row := Fig6Row{Benchmark: name}
	k := s.PointQueries
	if k > b.Test.Len() {
		k = b.Test.Len()
	}
	points := make([]core.Dataset, k)
	for i := 0; i < k; i++ {
		points[i] = b.Test.Row(i)
	}
	row.PythonLatency, err = metrics.Latency(k, func(i int) error {
		_, err := o.PredictInterpreted(context.Background(), points[i].Inputs)
		return err
	})
	if err != nil {
		return Fig6Row{}, err
	}
	row.CompiledLatency, err = metrics.Latency(k, func(i int) error {
		_, err := o.PredictPoint(context.Background(), points[i].Inputs)
		return err
	})
	if err != nil {
		return Fig6Row{}, err
	}
	if b.Pipeline.Model.Task() == model.Classification {
		bc, oc, rep, err := buildOptimized(name, s, pipeline.LocalBackend{},
			core.Options{Cascades: true, AccuracyTarget: 0.015})
		if err != nil {
			return Fig6Row{}, err
		}
		defer bc.Close()
		if rep.CascadeBuilt {
			cpoints := make([]core.Dataset, k)
			for i := 0; i < k; i++ {
				cpoints[i] = bc.Test.Row(i)
			}
			row.CascadesLatency, err = metrics.Latency(k, func(i int) error {
				_, err := oc.PredictPoint(context.Background(), cpoints[i].Inputs)
				return err
			})
			if err != nil {
				return Fig6Row{}, err
			}
			_, served, err := oc.PredictBatchOptions(context.Background(), boundedRows(bc.Test, k).Inputs, core.PredictOptions{})
			if err != nil {
				return Fig6Row{}, err
			}
			row.CascadedFrac = float64(served.Cascaded) / float64(served.Total)
		}
	}
	return row, nil
}

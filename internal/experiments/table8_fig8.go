package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"willump/internal/cascade"
	"willump/internal/core"
	"willump/internal/graph"
	"willump/internal/metrics"
	"willump/internal/model"
	"willump/internal/ops"
	"willump/internal/pipeline"
	"willump/internal/value"
	"willump/internal/weld"
)

// Table8Row is one (benchmark, selection strategy) cascade-throughput
// measurement.
type Table8Row struct {
	Benchmark string
	Strategy  string
	// OrigThroughput is the compiled, cascade-free throughput.
	OrigThroughput float64
	// CascThroughput is throughput with cascades built under the strategy.
	CascThroughput float64
	// Efficient is the IFV set the strategy chose (empty when the strategy
	// produced a degenerate set and cascades were skipped).
	Efficient []int
}

// Table8 reproduces Table 8: Willump's efficient-IFV selection (Algorithm
// 1) against choosing the most important IFVs, the cheapest IFVs, and an
// exhaustive oracle, on Product and Toxic.
func Table8(w io.Writer, s Setup) ([]Table8Row, error) {
	header(w, "Table 8: efficient-IFV selection strategies (cascade throughput)")
	fmt.Fprintf(w, "%-10s %-10s %14s %14s %s\n", "benchmark", "strategy", "orig", "cascades", "efficient set")
	var out []Table8Row
	for _, name := range []string{"product", "toxic"} {
		rows, err := table8One(name, s)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			fmt.Fprintf(w, "%-10s %-10s %14.0f %14.0f %v\n",
				r.Benchmark, r.Strategy, r.OrigThroughput, r.CascThroughput, r.Efficient)
			out = append(out, r)
		}
	}
	return out, nil
}

func table8One(name string, s Setup) ([]Table8Row, error) {
	b, o, _, err := buildOptimized(name, s, pipeline.LocalBackend{}, core.Options{})
	if err != nil {
		return nil, err
	}
	defer b.Close()

	origTput, err := metrics.Throughput(b.Test.Len(), s.Reps, func() error {
		_, err := o.PredictFull(context.Background(), b.Test.Inputs)
		return err
	})
	if err != nil {
		return nil, err
	}
	trainX, err := o.Prog.RunBatch(context.Background(), b.Train.Inputs)
	if err != nil {
		return nil, err
	}

	strategies := []struct {
		name   string
		pick   func(stats []cascade.IFVStat) []int
		oracle bool
	}{
		{name: "willump"},
		{name: "important", pick: cascade.SelectMostImportant},
		{name: "cheap", pick: cascade.SelectCheapest},
		{name: "oracle", oracle: true},
	}
	var rows []Table8Row
	for _, st := range strategies {
		row := Table8Row{Benchmark: name, Strategy: st.name, OrigThroughput: origTput}
		cfg := cascade.Config{AccuracyTarget: 0.015, Selection: st.pick}
		if st.oracle {
			subset, err := cascade.OracleSelect(context.Background(), o.Prog, o.Model, b.Train.Inputs, trainX,
				b.Train.Y, b.Valid.Inputs, b.Valid.Y, 0.015)
			if err != nil {
				// No subset met the target: report the no-cascade numbers.
				row.CascThroughput = origTput
				rows = append(rows, row)
				continue
			}
			cfg.Selection = func([]cascade.IFVStat) []int { return subset }
		}
		c, err := cascade.Train(context.Background(), o.Prog, o.Model, b.Train.Inputs, trainX, b.Train.Y,
			b.Valid.Inputs, b.Valid.Y, cfg)
		if err != nil {
			// Degenerate selection (all or none): cascades revert to full.
			row.CascThroughput = origTput
			rows = append(rows, row)
			continue
		}
		row.Efficient = c.Efficient
		row.CascThroughput, err = metrics.Throughput(b.Test.Len(), s.Reps, func() error {
			_, _, err := c.PredictBatch(context.Background(), b.Test.Inputs)
			return err
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig8Row is one (benchmark, threads, speedup) parallelization measurement.
type Fig8Row struct {
	Benchmark string
	Threads   int
	Speedup   float64
}

// Fig8 reproduces Figure 8: example-at-a-time latency speedup from
// query-aware parallelization. Real benchmarks (Product, Toxic) are limited
// by one dominant IFV (Amdahl's law); the synthetic pipeline — the same
// TF-IDF feature generator instantiated four times — parallelizes nearly
// linearly.
func Fig8(w io.Writer, s Setup) ([]Fig8Row, error) {
	header(w, "Figure 8: per-query parallelization speedup")
	fmt.Fprintf(w, "%-10s %8s %8s\n", "benchmark", "threads", "speedup")
	var out []Fig8Row
	for _, name := range []string{"product", "toxic"} {
		rows, err := fig8Real(name, s)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			fmt.Fprintf(w, "%-10s %8d %8.2f\n", r.Benchmark, r.Threads, r.Speedup)
			out = append(out, r)
		}
	}
	rows, err := fig8Synthetic(s)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %8d %8.2f\n", r.Benchmark, r.Threads, r.Speedup)
		out = append(out, r)
	}
	return out, nil
}

func fig8Real(name string, s Setup) ([]Fig8Row, error) {
	b, o, _, err := buildOptimized(name, s, pipeline.LocalBackend{}, core.Options{})
	if err != nil {
		return nil, err
	}
	defer b.Close()
	return fig8Sweep(name, o.Prog, b.Test, s, min(3, runtime.NumCPU()))
}

// fig8Synthetic builds the paper's synthetic benchmark: four copies of the
// same TF-IDF feature generator over one text input, concatenated into a
// linear model's feature vector. Documents are long (hundreds of words) so
// that per-generator work dominates thread-coordination overhead, as it did
// at the paper's per-query latency scale.
func fig8Synthetic(s Setup) ([]Fig8Row, error) {
	text, err := pipeline.Toxic(pipeline.Config{Seed: s.Seed, N: s.N})
	if err != nil {
		return nil, err
	}
	defer text.Close()
	longDocs := func(d core.Dataset) core.Dataset {
		src := d.Inputs["comment"].Strings
		out := make([]string, len(src))
		for i := range out {
			var joined string
			for j := 0; j < 40; j++ {
				joined += src[(i+j)%len(src)] + " "
			}
			out[i] = joined
		}
		return core.Dataset{
			Inputs: map[string]value.Value{"comment": value.NewStrings(out)},
			Y:      d.Y,
		}
	}
	train := longDocs(text.Train)
	test := longDocs(text.Test)

	gb := graph.NewBuilder()
	in := gb.Input("comment")
	var roots []graph.NodeID
	for i := 0; i < 4; i++ {
		clean := gb.Add(fmt.Sprintf("clean%d", i), ops.NewClean(), in)
		tok := gb.Add(fmt.Sprintf("tok%d", i), ops.NewTokenize(), clean)
		tf := gb.Add(fmt.Sprintf("tfidf%d", i), ops.NewTFIDF(1500, ops.NormL2), tok)
		roots = append(roots, tf)
	}
	cat := gb.Add("concat", ops.NewConcat(), roots...)
	gb.SetOutput(cat)
	g, err := gb.Build()
	if err != nil {
		return nil, err
	}
	prog, err := weld.Compile(g)
	if err != nil {
		return nil, err
	}
	if _, err := prog.Fit(context.Background(), train.Inputs); err != nil {
		return nil, err
	}
	// The sweep is capped at the machine's core count: with fewer cores
	// than the paper's four, oversubscribed goroutines only add scheduler
	// contention (see EXPERIMENTS.md).
	return fig8Sweep("synthetic", prog, test, s, min(4, runtime.NumCPU()))
}

func fig8Sweep(name string, prog *weld.Program, test core.Dataset, s Setup, maxThreads int) ([]Fig8Row, error) {
	k := s.PointQueries
	if k > test.Len() {
		k = test.Len()
	}
	points := make([]map[string]value.Value, k)
	for i := 0; i < k; i++ {
		points[i] = test.Row(i).Inputs
	}
	// One pooled point query with the IFVs computed across at most threads
	// threads (one is the sequential path).
	latency := func(threads int) (time.Duration, error) {
		prog.Workers = threads
		return metrics.Latency(k, func(i int) error {
			r, err := prog.NewRun(context.Background(), points[i])
			if err != nil {
				return err
			}
			defer r.Close()
			if err := r.ComputeIFVsParallel(prog.AllIFVs()); err != nil {
				return err
			}
			_, err = r.PointMatrix(prog.AllIFVs())
			return err
		})
	}
	base, err := latency(1)
	if err != nil {
		return nil, err
	}
	rows := []Fig8Row{{Benchmark: name, Threads: 1, Speedup: 1}}
	for threads := 2; threads <= maxThreads; threads++ {
		lat, err := latency(threads)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig8Row{
			Benchmark: name, Threads: threads,
			Speedup: float64(base) / float64(lat),
		})
	}
	return rows, nil
}

var _ = model.Classification // keep model import for documentation references

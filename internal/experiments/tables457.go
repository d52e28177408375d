package experiments

import (
	"context"
	"fmt"
	"io"

	"willump/internal/core"
	"willump/internal/metrics"
	"willump/internal/pipeline"
	"willump/internal/topk"
)

// topKBenchmarks lists the Table 4 benchmarks: all except Tracking, whose
// top-K is degenerate (many elements share extreme class probabilities).
var topKBenchmarks = []string{"product", "toxic", "price", "music", "credit"}

// Table4Row is one benchmark's top-K filter-model measurements (Table 4).
type Table4Row struct {
	Benchmark string
	K         int

	PythonThroughput   float64
	CompiledThroughput float64
	FilteredThroughput float64

	Precision            float64
	MeanAveragePrecision float64
	PythonAverageValue   float64
	FilteredAverageValue float64
}

// table4K picks the query's K for the configured dataset size: the paper
// uses top-100 on full competition datasets; we scale K to keep the default
// subset (max(c_k*K, 5% of batch)) a strict sub-fraction of the batch.
func table4K(testLen int) int {
	k := testLen / 60
	if k < 5 {
		k = 5
	}
	return k
}

// Table4 reproduces Table 4: top-K query throughput and ranking accuracy
// with automatically constructed filter models. Lookup benchmarks store
// tables remotely, as in the paper.
func Table4(w io.Writer, s Setup) ([]Table4Row, error) {
	header(w, "Table 4: top-K filter models (remote tables for lookup benchmarks)")
	fmt.Fprintf(w, "%-10s %5s %12s %12s %12s %9s %6s %12s %12s\n",
		"benchmark", "K", "python", "compiled", "filtered", "precision", "mAP", "py avg val", "filt avg val")
	var out []Table4Row
	for _, name := range topKBenchmarks {
		row, err := table4One(name, s)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%-10s %5d %12.0f %12.0f %12.0f %9.2f %6.2f %12.4f %12.4f\n",
			row.Benchmark, row.K, row.PythonThroughput, row.CompiledThroughput,
			row.FilteredThroughput, row.Precision, row.MeanAveragePrecision,
			row.PythonAverageValue, row.FilteredAverageValue)
		out = append(out, row)
	}
	return out, nil
}

// topKBackend gives lookup benchmarks a remote backend, text benchmarks a
// local one.
func topKBackend(name string, s Setup) pipeline.Backend {
	switch name {
	case "music", "credit", "tracking":
		return &pipeline.RemoteBackend{Latency: s.RemoteLatency}
	default:
		return pipeline.LocalBackend{}
	}
}

func table4One(name string, s Setup) (Table4Row, error) {
	b, o, _, err := buildOptimized(name, s, topKBackend(name, s), core.Options{Workers: 1, TopK: true})
	if err != nil {
		return Table4Row{}, err
	}
	defer b.Close()
	k := table4K(b.Test.Len())
	row := Table4Row{Benchmark: name, K: k}

	// Ground truth and true scores from the exact (compiled) query.
	exact, scores, err := o.TopKExact(context.Background(), b.Test.Inputs, k)
	if err != nil {
		return Table4Row{}, err
	}

	// Python baseline: interpreted full pipeline over the whole batch, then
	// rank.
	interp := boundedRows(b.Test, s.InterpretedRows)
	row.PythonThroughput, err = metrics.Throughput(interp.Len(), s.Reps, func() error {
		preds, err := o.PredictInterpreted(context.Background(), interp.Inputs)
		if err != nil {
			return err
		}
		kk := k
		if kk > len(preds) {
			kk = len(preds)
		}
		topk.TopIndices(preds, kk)
		return nil
	})
	if err != nil {
		return Table4Row{}, err
	}

	// Compiled unfiltered top-K.
	row.CompiledThroughput, err = metrics.Throughput(b.Test.Len(), s.Reps, func() error {
		_, _, err := o.TopKExact(context.Background(), b.Test.Inputs, k)
		return err
	})
	if err != nil {
		return Table4Row{}, err
	}

	// Filtered top-K.
	var predicted []int
	row.FilteredThroughput, err = metrics.Throughput(b.Test.Len(), s.Reps, func() error {
		predicted, err = o.TopK(context.Background(), b.Test.Inputs, k)
		return err
	})
	if err != nil {
		return Table4Row{}, err
	}

	row.Precision = topk.Precision(predicted, exact)
	row.MeanAveragePrecision = topk.MeanAveragePrecision(predicted, exact)
	row.PythonAverageValue = topk.AverageValue(exact, scores)
	row.FilteredAverageValue = topk.AverageValue(predicted, scores)
	return row, nil
}

// Table5Row compares a filter model to random sampling at matched
// throughput (Table 5).
type Table5Row struct {
	Benchmark     string
	SamplingRatio float64

	SampledPrecision  float64
	FilteredPrecision float64
	SampledMAP        float64
	FilteredMAP       float64
	SampledAvgValue   float64
	FilteredAvgValue  float64
	TrueAvgValue      float64
}

// Table5 reproduces Table 5: automatically constructed filter models versus
// random sampling, with the sampling ratio chosen so sampled throughput
// matches filtered throughput (sampling n/r rows cuts full-pipeline work by
// r).
func Table5(w io.Writer, s Setup) ([]Table5Row, error) {
	header(w, "Table 5: filter models vs random sampling at matched throughput")
	fmt.Fprintf(w, "%-10s %7s %10s %10s %8s %8s %10s %10s %10s\n",
		"benchmark", "ratio", "samp prec", "filt prec", "samp mAP", "filt mAP",
		"samp avg", "filt avg", "true avg")
	var out []Table5Row
	for _, name := range []string{"music", "product", "credit"} {
		row, err := table5One(name, s)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%-10s %7.1f %10.2f %10.2f %8.2f %8.2f %10.4f %10.4f %10.4f\n",
			row.Benchmark, row.SamplingRatio, row.SampledPrecision, row.FilteredPrecision,
			row.SampledMAP, row.FilteredMAP, row.SampledAvgValue, row.FilteredAvgValue,
			row.TrueAvgValue)
		out = append(out, row)
	}
	return out, nil
}

func table5One(name string, s Setup) (Table5Row, error) {
	b, o, _, err := buildOptimized(name, s, topKBackend(name, s), core.Options{Workers: 1, TopK: true})
	if err != nil {
		return Table5Row{}, err
	}
	defer b.Close()
	k := table4K(b.Test.Len())
	exact, scores, err := o.TopKExact(context.Background(), b.Test.Inputs, k)
	if err != nil {
		return Table5Row{}, err
	}
	filtered, err := o.TopK(context.Background(), b.Test.Inputs, k)
	if err != nil {
		return Table5Row{}, err
	}
	// Matched-throughput sampling ratio: the filter evaluates the full
	// pipeline on subsetSize rows (plus the cheap filter pass), so sampling
	// the batch down to roughly that many rows costs about the same.
	n := b.Test.Len()
	subset := o.Filter.SubsetSize(n, k)
	ratio := float64(n) / float64(subset)
	if ratio < 1 {
		ratio = 1
	}
	sampled, err := o.Filter.SampledTopK(context.Background(), b.Test.Inputs, k, ratio, s.Seed+99)
	if err != nil {
		return Table5Row{}, err
	}
	return Table5Row{
		Benchmark:         name,
		SamplingRatio:     ratio,
		SampledPrecision:  topk.Precision(sampled, exact),
		FilteredPrecision: topk.Precision(filtered, exact),
		SampledMAP:        topk.MeanAveragePrecision(sampled, exact),
		FilteredMAP:       topk.MeanAveragePrecision(filtered, exact),
		SampledAvgValue:   topk.AverageValue(sampled, scores),
		FilteredAvgValue:  topk.AverageValue(filtered, scores),
		TrueAvgValue:      topk.AverageValue(exact, scores),
	}, nil
}

// Table7Row is one subset-size setting in the Table 7 sweep.
type Table7Row struct {
	Benchmark     string
	SubsetPercent float64
	SubsetSize    int
	Throughput    float64
	Precision     float64
	MAP           float64
	AverageValue  float64
}

// Table7 reproduces Table 7: the effect of the filtered subset size on
// top-K performance and accuracy for Music and Toxic. Subset percentages
// sweep downward from the 5% default; performance should move little while
// accuracy collapses below a knee.
func Table7(w io.Writer, s Setup) ([]Table7Row, error) {
	header(w, "Table 7: filtered subset size vs top-K performance and accuracy")
	fmt.Fprintf(w, "%-10s %8s %8s %12s %9s %6s %10s\n",
		"benchmark", "subset%", "size", "throughput", "precision", "mAP", "avg value")
	var out []Table7Row
	for _, name := range []string{"music", "toxic"} {
		rows, err := table7One(name, s)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			fmt.Fprintf(w, "%-10s %8.2f %8d %12.0f %9.2f %6.2f %10.4f\n",
				r.Benchmark, r.SubsetPercent, r.SubsetSize, r.Throughput,
				r.Precision, r.MAP, r.AverageValue)
			out = append(out, r)
		}
	}
	return out, nil
}

func table7One(name string, s Setup) ([]Table7Row, error) {
	b, o, _, err := buildOptimized(name, s, topKBackend(name, s), core.Options{Workers: 1, TopK: true})
	if err != nil {
		return nil, err
	}
	defer b.Close()
	n := b.Test.Len()
	k := table4K(n)
	exact, scores, err := o.TopKExact(context.Background(), b.Test.Inputs, k)
	if err != nil {
		return nil, err
	}
	var rows []Table7Row
	for _, pct := range []float64{20, 10, 5, 2.5, float64(k) / float64(n) * 100} {
		size := int(pct / 100 * float64(n))
		if size < k {
			size = k
		}
		var predicted []int
		tput, err := metrics.Throughput(n, s.Reps, func() error {
			predicted, err = o.Filter.TopKSubset(context.Background(), b.Test.Inputs, k, size)
			return err
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table7Row{
			Benchmark:     name,
			SubsetPercent: pct,
			SubsetSize:    size,
			Throughput:    tput,
			Precision:     topk.Precision(predicted, exact),
			MAP:           topk.MeanAveragePrecision(predicted, exact),
			AverageValue:  topk.AverageValue(predicted, scores),
		})
	}
	return rows, nil
}

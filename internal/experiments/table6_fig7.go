package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"willump/internal/core"
	"willump/internal/metrics"
	"willump/internal/model"
	"willump/internal/pipeline"
	"willump/internal/serving"
)

// Table6Row is one (benchmark, batch size) Clipper-integration measurement.
type Table6Row struct {
	Benchmark string
	BatchSize int
	// ClipperLatency hosts the unoptimized (interpreted) pipeline.
	ClipperLatency time.Duration
	// WillumpLatency hosts the Willump-optimized (compiled + cascades)
	// pipeline behind the same frontend.
	WillumpLatency time.Duration
}

// Table6 reproduces Table 6: end-to-end RPC latency of the Clipper-like
// serving system hosting the Product and Toxic pipelines, with and without
// Willump optimization, at batch sizes 1, 10, and 100. Improvement grows
// with batch size because the frontend's fixed RPC overheads amortize while
// Willump shrinks per-row compute.
func Table6(w io.Writer, s Setup) ([]Table6Row, error) {
	header(w, "Table 6: Clipper integration (RPC latency)")
	fmt.Fprintf(w, "%-10s %6s %16s %18s\n", "benchmark", "batch", "clipper", "clipper+willump")
	var out []Table6Row
	for _, name := range []string{"product", "toxic"} {
		rows, err := table6One(name, s)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			fmt.Fprintf(w, "%-10s %6d %16s %18s\n", r.Benchmark, r.BatchSize,
				r.ClipperLatency.Round(10*time.Microsecond),
				r.WillumpLatency.Round(10*time.Microsecond))
			out = append(out, r)
		}
	}
	return out, nil
}

func table6One(name string, s Setup) ([]Table6Row, error) {
	b, o, _, err := buildOptimized(name, s, pipeline.LocalBackend{},
		core.Options{Cascades: true, AccuracyTarget: 0.015})
	if err != nil {
		return nil, err
	}
	defer b.Close()

	measure := func(pred serving.Predictor, batchSize int) (time.Duration, error) {
		srv, err := serving.NewPredictorServer(pred, serving.Options{})
		if err != nil {
			return 0, err
		}
		base, err := srv.Start()
		if err != nil {
			return 0, err
		}
		defer srv.Close()
		cli := serving.NewClient(base)
		reps := s.PointQueries / 2
		if reps < 5 {
			reps = 5
		}
		maxStart := b.Test.Len() - batchSize
		if maxStart < 1 {
			maxStart = 1
		}
		return metrics.Latency(reps, func(i int) error {
			start := (i * batchSize) % maxStart
			rows := make([]int, batchSize)
			for j := range rows {
				rows[j] = start + j
			}
			_, err := cli.Predict(context.Background(), b.Test.Gather(rows).Inputs)
			return err
		})
	}

	var rows []Table6Row
	for _, batchSize := range []int{1, 10, 100} {
		clipper, err := measure(serving.PredictorFunc(o.PredictInterpreted), batchSize)
		if err != nil {
			return nil, err
		}
		willump, err := measure(serving.PredictorFunc(o.BatchPredictor()), batchSize)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table6Row{
			Benchmark: name, BatchSize: batchSize,
			ClipperLatency: clipper, WillumpLatency: willump,
		})
	}
	return rows, nil
}

// Fig7Point is one (threshold, throughput, accuracy) sample of the cascade
// tradeoff curve.
type Fig7Point struct {
	Benchmark  string
	Threshold  float64 // +Inf marks the full model, -1 the small model alone
	Throughput float64
	Accuracy   float64
}

// Fig7 reproduces Figure 7: throughput versus accuracy as the cascade
// threshold varies, for the four classification benchmarks. The curve's
// endpoints are the full model (blue circle in the paper) and the small
// model alone (orange X).
func Fig7(w io.Writer, s Setup) ([]Fig7Point, error) {
	header(w, "Figure 7: cascade threshold sweep (throughput vs accuracy)")
	fmt.Fprintf(w, "%-10s %10s %12s %9s\n", "benchmark", "threshold", "throughput", "accuracy")
	var out []Fig7Point
	for _, name := range []string{"product", "toxic", "music", "tracking"} {
		pts, err := fig7One(name, s)
		if err != nil {
			return nil, err
		}
		for _, p := range pts {
			label := fmt.Sprintf("%.1f", p.Threshold)
			if math.IsInf(p.Threshold, 1) {
				label = "full"
			} else if p.Threshold < 0 {
				label = "small"
			}
			fmt.Fprintf(w, "%-10s %10s %12.0f %9.4f\n", p.Benchmark, label, p.Throughput, p.Accuracy)
			out = append(out, p)
		}
	}
	return out, nil
}

func fig7One(name string, s Setup) ([]Fig7Point, error) {
	// Lookup benchmarks sweep with remote tables, text benchmarks locally,
	// matching the throughput scales of the paper's Figure 7 panels.
	b, o, rep, err := buildOptimized(name, s, topKBackend(name, s),
		core.Options{Cascades: true, AccuracyTarget: 0.015})
	if err != nil {
		return nil, err
	}
	defer b.Close()
	if !rep.CascadeBuilt {
		return nil, fmt.Errorf("fig7: no cascade built for %s", name)
	}
	c := o.Cascade
	var pts []Fig7Point

	// Full model endpoint.
	var fullPreds []float64
	tput, err := metrics.Throughput(b.Test.Len(), s.Reps, func() error {
		fullPreds, err = o.PredictFull(context.Background(), b.Test.Inputs)
		return err
	})
	if err != nil {
		return nil, err
	}
	pts = append(pts, Fig7Point{
		Benchmark: name, Threshold: math.Inf(1), Throughput: tput,
		Accuracy: model.Accuracy(fullPreds, b.Test.Y),
	})

	// Threshold sweep, high to low.
	for _, t := range []float64{0.9, 0.8, 0.7, 0.6, 0.5} {
		var preds []float64
		tput, err := metrics.Throughput(b.Test.Len(), s.Reps, func() error {
			preds, _, err = c.PredictBatchThreshold(context.Background(), b.Test.Inputs, t)
			return err
		})
		if err != nil {
			return nil, err
		}
		pts = append(pts, Fig7Point{
			Benchmark: name, Threshold: t, Throughput: tput,
			Accuracy: model.Accuracy(preds, b.Test.Y),
		})
	}

	// Small model alone.
	var smallPreds []float64
	tput, err = metrics.Throughput(b.Test.Len(), s.Reps, func() error {
		smallPreds, err = c.SmallOnlyPredict(context.Background(), b.Test.Inputs)
		return err
	})
	if err != nil {
		return nil, err
	}
	pts = append(pts, Fig7Point{
		Benchmark: name, Threshold: -1, Throughput: tput,
		Accuracy: model.Accuracy(smallPreds, b.Test.Y),
	})
	return pts, nil
}

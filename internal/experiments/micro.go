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

// DriverRow reports the Weld-driver marshaling overhead for one benchmark
// (section 6.4: never more than 1.6% of runtime).
type DriverRow struct {
	Benchmark        string
	OverheadFraction float64
}

// MicroDrivers measures driver (marshaling) overhead as a fraction of
// compiled execution time for every benchmark. Fully compilable pipelines
// report zero; Credit's non-compilable debt-ratio UDF exercises the real
// boxing/unboxing path.
func MicroDrivers(w io.Writer, s Setup) ([]DriverRow, error) {
	header(w, "Micro: Weld driver overhead (fraction of compiled runtime)")
	fmt.Fprintf(w, "%-10s %10s\n", "benchmark", "overhead")
	var out []DriverRow
	for _, name := range pipeline.Names() {
		b, o, _, err := buildOptimized(name, s, pipeline.LocalBackend{}, core.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		o.Prog.Prof.ResetDriver()
		for rep := 0; rep < 3; rep++ {
			if _, err := o.Features(context.Background(), b.Test.Inputs); err != nil {
				b.Close()
				return nil, err
			}
		}
		frac := o.Prog.Prof.DriverOverheadFraction()
		b.Close()
		fmt.Fprintf(w, "%-10s %9.2f%%\n", name, 100*frac)
		out = append(out, DriverRow{Benchmark: name, OverheadFraction: frac})
	}
	return out, nil
}

// ThresholdRow reports cascade-threshold robustness for one classification
// benchmark (section 6.4): the threshold is selected on the validation set
// and evaluated on held-out data.
type ThresholdRow struct {
	Benchmark       string
	Threshold       float64
	FullAccuracy    float64 // on held-out test data
	CascadeAccuracy float64
	// Significant reports whether the loss is statistically significant at
	// 95% for the test-set size (the paper's criterion).
	Significant bool
}

// MicroThreshold verifies threshold robustness across validation sets: the
// accuracy loss on a fresh set stays statistically insignificant.
func MicroThreshold(w io.Writer, s Setup) ([]ThresholdRow, error) {
	header(w, "Micro: cascade threshold robustness (held-out evaluation)")
	fmt.Fprintf(w, "%-10s %9s %9s %9s %12s\n", "benchmark", "thresh", "full", "cascade", "significant?")
	var out []ThresholdRow
	for _, name := range []string{"product", "toxic", "music", "tracking"} {
		b, o, rep, err := buildOptimized(name, s, pipeline.LocalBackend{},
			core.Options{Workers: 1, Cascades: true, AccuracyTarget: 0.015})
		if err != nil {
			return nil, err
		}
		if !rep.CascadeBuilt {
			b.Close()
			continue
		}
		cascPreds, _, err := o.Cascade.PredictBatch(context.Background(), b.Test.Inputs)
		if err != nil {
			b.Close()
			return nil, err
		}
		fullPreds, err := o.PredictFull(context.Background(), b.Test.Inputs)
		if err != nil {
			b.Close()
			return nil, err
		}
		row := ThresholdRow{
			Benchmark:       name,
			Threshold:       o.Cascade.Threshold,
			FullAccuracy:    model.Accuracy(fullPreds, b.Test.Y),
			CascadeAccuracy: model.Accuracy(cascPreds, b.Test.Y),
		}
		row.Significant = metrics.SignificantLoss(row.FullAccuracy, row.CascadeAccuracy, b.Test.Len())
		fmt.Fprintf(w, "%-10s %9.1f %9.4f %9.4f %12v\n",
			row.Benchmark, row.Threshold, row.FullAccuracy, row.CascadeAccuracy, row.Significant)
		out = append(out, row)
		b.Close()
	}
	return out, nil
}

// GammaRow reports the gamma stopping-rule ablation on Music (section 6.4).
type GammaRow struct {
	AccuracyTarget float64
	// SpeedupWithRule and SpeedupWithoutRule are cascade throughput
	// improvements over the compiled pipeline.
	SpeedupWithRule    float64
	SpeedupWithoutRule float64
}

// MicroGamma ablates Algorithm 1's gamma stopping rule on the
// classification benchmark with the most IFVs (Music), at two accuracy
// targets, mirroring the paper's 1.41x/1.75x-vs-1.31x/1.47x comparison.
// Both arms share one compiled program (hence one cost profile), so the
// comparison isolates the selection rule itself.
func MicroGamma(w io.Writer, s Setup) ([]GammaRow, error) {
	header(w, "Micro: Algorithm 1 gamma-rule ablation (Music)")
	fmt.Fprintf(w, "%10s %12s %14s\n", "target", "with rule", "without rule")

	backend := &pipeline.RemoteBackend{Latency: s.RemoteLatency}
	b, o, _, err := buildOptimized("music", s, backend, core.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	defer b.Close()
	trainX, err := o.Prog.RunBatch(context.Background(), b.Train.Inputs)
	if err != nil {
		return nil, err
	}
	baseTput, err := metrics.Throughput(b.Test.Len(), s.Reps, func() error {
		_, err := o.PredictFull(context.Background(), b.Test.Inputs)
		return err
	})
	if err != nil {
		return nil, err
	}

	speedup := func(target float64, disable bool) (float64, error) {
		c, err := cascade.Train(context.Background(), o.Prog, o.Model, b.Train.Inputs, trainX, b.Train.Y,
			b.Valid.Inputs, b.Valid.Y,
			cascade.Config{AccuracyTarget: target, DisableGammaRule: disable})
		if err != nil {
			return 1, nil // degenerate selection: cascades revert to full
		}
		cascTput, err := metrics.Throughput(b.Test.Len(), s.Reps, func() error {
			_, _, err := c.PredictBatch(context.Background(), b.Test.Inputs)
			return err
		})
		if err != nil {
			return 0, err
		}
		return cascTput / baseTput, nil
	}

	var out []GammaRow
	for _, target := range []float64{0.001, 0.005} {
		row := GammaRow{AccuracyTarget: target}
		if row.SpeedupWithRule, err = speedup(target, false); err != nil {
			return nil, err
		}
		if row.SpeedupWithoutRule, err = speedup(target, true); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "%9.1f%% %11.2fx %13.2fx\n",
			100*row.AccuracyTarget, row.SpeedupWithRule, row.SpeedupWithoutRule)
		out = append(out, row)
	}
	return out, nil
}

// OptTimeRow reports Willump's optimization time for one benchmark
// (section 6.4: never exceeding thirty seconds).
type OptTimeRow struct {
	Benchmark string
	Duration  time.Duration
}

// MicroOptTime measures end-to-end optimization time (compile + fit +
// train + cascade construction) per benchmark.
func MicroOptTime(w io.Writer, s Setup) ([]OptTimeRow, error) {
	header(w, "Micro: optimization time per benchmark")
	fmt.Fprintf(w, "%-10s %12s\n", "benchmark", "time")
	var out []OptTimeRow
	for _, name := range pipeline.Names() {
		b, err := pipeline.ByName(name, pipeline.Config{Seed: s.Seed, N: s.N})
		if err != nil {
			return nil, err
		}
		_, rep, err := core.Optimize(context.Background(), b.Pipeline, b.Train, b.Valid,
			core.Options{Workers: 1, Cascades: true, AccuracyTarget: 0.015, TopK: true})
		if err != nil {
			// Regression benchmarks skip cascades; retry with top-K only.
			_, rep, err = core.Optimize(context.Background(), b.Pipeline, b.Train, b.Valid, core.Options{Workers: 1, TopK: true})
			if err != nil {
				b.Close()
				return nil, err
			}
		}
		fmt.Fprintf(w, "%-10s %12s\n", name, rep.OptimizeTime.Round(time.Millisecond))
		out = append(out, OptTimeRow{Benchmark: name, Duration: rep.OptimizeTime})
		b.Close()
	}
	return out, nil
}

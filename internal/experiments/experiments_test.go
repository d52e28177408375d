package experiments

import (
	"context"
	"io"
	"math"
	"strconv"
	"testing"

	"willump/internal/core"
	"willump/internal/pipeline"
	"willump/internal/value"
)

// qs is the shared quick setup for experiment shape tests.
func qs() Setup { return Quick() }

// skipTimingUnderRace skips tests whose assertions are throughput or
// latency margins; the race detector's instrumentation distorts the
// compiled-vs-interpreted ratios they pin.
func skipTimingUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("timing-margin assertions are not meaningful under the race detector")
	}
}

// minAllocRatio is how many times fewer heap allocations per row the compiled
// path must make than the interpreted one on the text benchmarks (measured:
// product 10.6x, toxic 8.7x, price 16.3x, the same on every run).
const minAllocRatio = 4

// allocsPerRow counts heap allocations per row of the interpreted baseline
// and of the compiled path over the rows Fig5 times the baseline on.
func allocsPerRow(t *testing.T, name string) (interpreted, compiled float64) {
	t.Helper()
	b, o, _, err := buildOptimized(name, qs(), pipeline.LocalBackend{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rows := boundedRows(b.Test, qs().InterpretedRows)
	run := func(predict func(context.Context, map[string]value.Value) ([]float64, error)) float64 {
		return testing.AllocsPerRun(2, func() {
			if _, err := predict(context.Background(), rows.Inputs); err != nil {
				t.Fatal(err)
			}
		}) / float64(rows.Len())
	}
	return run(o.PredictInterpreted), run(o.PredictFull)
}

// maxCascadedFrac bounds the share of product/toxic test rows the cascade may
// send on to the full model.
const maxCascadedFrac = 0.5

func TestFig5Shapes(t *testing.T) {
	skipTimingUnderRace(t)
	rows, err := Fig5(io.Discard, qs())
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 benchmarks", len(rows))
	}
	byName := make(map[string]Fig5Row)
	for _, r := range rows {
		byName[r.Benchmark] = r
		if r.PythonThroughput <= 0 || r.CompiledThroughput <= 0 {
			t.Errorf("%s: non-positive throughput", r.Benchmark)
		}
	}
	// Shape: compilation beats the interpreted baseline on the text benchmarks
	// (the paper's 3.2-4.3x rows) because it runs whole columns through each
	// operator where the baseline boxes every value of every row. Assert that
	// cause, a count that does not depend on the machine's load, and of the
	// timing only its direction: the ratio, printed by willump-bench -exp fig5,
	// measured 1.47-3.76x on price and 2.96-9.21x on product and toxic over 30
	// runs on an idle 2-core machine.
	for _, name := range []string{"product", "toxic", "price"} {
		r := byName[name]
		if r.CompiledThroughput <= r.PythonThroughput {
			t.Errorf("%s: compiled %.0f <= python %.0f", name, r.CompiledThroughput, r.PythonThroughput)
		}
		interpreted, compiled := allocsPerRow(t, name)
		if compiled*minAllocRatio > interpreted {
			t.Errorf("%s: compiled %.1f allocs/row, interpreted %.1f, want >= %dx fewer", name, compiled, interpreted, minAllocRatio)
		}
		t.Logf("%s: compiled %.2fx python, %.1f vs %.1f allocs/row", name,
			r.CompiledThroughput/r.PythonThroughput, compiled, interpreted)
	}
	// Shape: cascades win on Product and Toxic (paper: 2.1-4.1x) because the
	// full model scores a minority of the rows. Assert that cause, a count
	// that does not depend on the machine's load; the throughput ratio itself
	// is printed by willump-bench -exp fig5.
	for _, name := range []string{"product", "toxic"} {
		r := byName[name]
		if r.CascadesThroughput <= 0 {
			t.Errorf("%s: no cascade was built", name)
		} else if r.CascadedFrac > maxCascadedFrac {
			t.Errorf("%s: full model scored %.1f%% of rows, want <= %.0f%%", name, 100*r.CascadedFrac, 100*maxCascadedFrac)
		}
		t.Logf("%s: cascades %.2fx compiled, full model on %.1f%% of rows", name,
			r.CascadesThroughput/r.CompiledThroughput, 100*r.CascadedFrac)
	}
	// Shape: regression benchmarks have no cascades.
	for _, name := range []string{"credit", "price"} {
		if byName[name].CascadesThroughput != 0 {
			t.Errorf("%s: cascades reported for a regression benchmark", name)
		}
	}
}

func TestFig6Shapes(t *testing.T) {
	skipTimingUnderRace(t)
	rows, err := Fig6(io.Discard, qs())
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.PythonLatency <= 0 || r.CompiledLatency <= 0 {
			t.Errorf("%s: non-positive latency", r.Benchmark)
		}
		// Shape: compilation cuts point latency on the text benchmarks, and
		// the cascade answers most point queries from the small model alone
		// (the cause of Figure 6's cascade rows; the latency ratio is printed
		// by willump-bench -exp fig6).
		if r.Benchmark == "product" || r.Benchmark == "toxic" {
			if r.CompiledLatency >= r.PythonLatency {
				t.Errorf("%s: compiled latency %v >= python %v", r.Benchmark, r.CompiledLatency, r.PythonLatency)
			}
			if r.CascadesLatency <= 0 {
				t.Errorf("%s: no cascade was built", r.Benchmark)
			} else if r.CascadedFrac > maxCascadedFrac {
				t.Errorf("%s: full model answered %.1f%% of point queries, want <= %.0f%%", r.Benchmark, 100*r.CascadedFrac, 100*maxCascadedFrac)
			}
		}
	}
}

func TestTables23Shapes(t *testing.T) {
	rows, err := Tables23(io.Discard, qs())
	if err != nil {
		t.Fatalf("Tables23: %v", err)
	}
	get := func(bench, cfg string) Table23Row {
		for _, r := range rows {
			if r.Benchmark == bench && r.Config == cfg {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", bench, cfg)
		return Table23Row{}
	}
	for _, bench := range []string{"music", "tracking"} {
		e2e := get(bench, "e2e-cache")
		feat := get(bench, "feature-cache")
		casc := get(bench, "cascades")
		both := get(bench, "feature-cache+cascades")
		unopt := get(bench, "unoptimized")
		// Shape (Table 2): feature caching reduces remote requests far more
		// than end-to-end caching; combining adds cascades' savings.
		if feat.RequestReduction <= e2e.RequestReduction {
			t.Errorf("%s: feature-cache reduction %.1f <= e2e %.1f",
				bench, feat.RequestReduction, e2e.RequestReduction)
		}
		if feat.RequestReduction < 40 {
			t.Errorf("%s: feature-cache reduction %.1f < 40%%", bench, feat.RequestReduction)
		}
		if casc.RequestReduction <= 10 {
			t.Errorf("%s: cascades reduction %.1f <= 10%%", bench, casc.RequestReduction)
		}
		if both.RequestReduction < feat.RequestReduction {
			t.Errorf("%s: combined reduction %.1f < feature-cache alone %.1f",
				bench, both.RequestReduction, feat.RequestReduction)
		}
		// Shape (Table 3): latency orders follow request reductions.
		if feat.Latency >= unopt.Latency {
			t.Errorf("%s: feature-cache latency %v >= unoptimized %v", bench, feat.Latency, unopt.Latency)
		}
		if both.Latency >= unopt.Latency {
			t.Errorf("%s: combined latency %v >= unoptimized %v", bench, both.Latency, unopt.Latency)
		}
	}
}

func TestTable4Shapes(t *testing.T) {
	rows, err := Table4(io.Discard, qs())
	if err != nil {
		t.Fatalf("Table4: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 (tracking excluded)", len(rows))
	}
	for _, r := range rows {
		if r.Benchmark == "tracking" {
			t.Error("tracking must be excluded from top-K (degenerate)")
		}
		// Shape: filtering beats the compiled unfiltered query, because the
		// full model scores only the kept subset (rows, not the clock).
		if r.FullRows >= r.Rows {
			t.Errorf("%s: the full model scores %d of %d rows per filtered query", r.Benchmark,
				r.FullRows, r.Rows)
		}
		if math.IsNaN(r.FilteredAverageValue) || math.IsNaN(r.PythonAverageValue) {
			t.Errorf("%s: NaN average value (model diverged?)", r.Benchmark)
		}
		// Shape: even lossy filters keep average value close to the truth.
		if r.PythonAverageValue != 0 {
			gap := math.Abs(r.PythonAverageValue-r.FilteredAverageValue) / math.Abs(r.PythonAverageValue)
			if gap > 0.1 {
				t.Errorf("%s: average-value gap %.3f > 10%%", r.Benchmark, gap)
			}
		}
	}
}

func TestTable5Shapes(t *testing.T) {
	rows, err := Table5(io.Discard, qs())
	if err != nil {
		t.Fatalf("Table5: %v", err)
	}
	for _, r := range rows {
		// Shape: filter models beat random sampling at matched throughput.
		if r.FilteredPrecision < r.SampledPrecision {
			t.Errorf("%s: filtered precision %.2f < sampled %.2f",
				r.Benchmark, r.FilteredPrecision, r.SampledPrecision)
		}
		if r.FilteredMAP < r.SampledMAP {
			t.Errorf("%s: filtered mAP %.2f < sampled %.2f",
				r.Benchmark, r.FilteredMAP, r.SampledMAP)
		}
	}
}

func TestTable6Shapes(t *testing.T) {
	skipTimingUnderRace(t)
	rows, err := Table6(io.Discard, qs())
	if err != nil {
		t.Fatalf("Table6: %v", err)
	}
	improvement := func(r Table6Row) float64 {
		return float64(r.ClipperLatency) / float64(r.WillumpLatency)
	}
	byKey := make(map[string]Table6Row)
	for _, r := range rows {
		byKey[r.Benchmark+"-"+itoa(r.BatchSize)] = r
	}
	for _, bench := range []string{"product", "toxic"} {
		b100 := byKey[bench+"-100"]
		// Shape: Willump clearly wins at batch 100 (paper: 3.0-6.8x), and
		// the improvement grows from batch 1 to batch 100.
		if improvement(b100) < 1.5 {
			t.Errorf("%s: batch-100 improvement %.2f < 1.5x", bench, improvement(b100))
		}
		b1 := byKey[bench+"-1"]
		if improvement(b100) < improvement(b1)*0.8 {
			t.Errorf("%s: improvement does not grow with batch size (b1 %.2f, b100 %.2f)",
				bench, improvement(b1), improvement(b100))
		}
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

func TestFig7Shapes(t *testing.T) {
	pts, err := Fig7(io.Discard, qs())
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	byBench := make(map[string][]Fig7Point)
	for _, p := range pts {
		byBench[p.Benchmark] = append(byBench[p.Benchmark], p)
	}
	for bench, curve := range byBench {
		var full, small Fig7Point
		for _, p := range curve {
			if math.IsInf(p.Threshold, 1) {
				full = p
			}
			if p.Threshold < 0 {
				small = p
			}
		}
		// Shape: the small model alone is fast but less accurate than the
		// full model (up to sampling noise on the quick-mode test sets);
		// high-threshold cascades track full-model accuracy.
		if small.Accuracy > full.Accuracy+0.01 {
			t.Errorf("%s: small model accuracy %.3f above full %.3f", bench, small.Accuracy, full.Accuracy)
		}
		for _, p := range curve {
			if p.Threshold == 0.9 && p.Accuracy < full.Accuracy-0.03 {
				t.Errorf("%s: threshold 0.9 accuracy %.3f far below full %.3f",
					bench, p.Accuracy, full.Accuracy)
			}
		}
	}
}

func TestTable7Shapes(t *testing.T) {
	rows, err := Table7(io.Discard, qs())
	if err != nil {
		t.Fatalf("Table7: %v", err)
	}
	byBench := make(map[string][]Table7Row)
	for _, r := range rows {
		byBench[r.Benchmark] = append(byBench[r.Benchmark], r)
	}
	for bench, sweep := range byBench {
		// Shape: precision decreases (weakly) as the subset shrinks, and
		// the largest subset is the most accurate.
		first, last := sweep[0], sweep[len(sweep)-1]
		if first.Precision < last.Precision {
			t.Errorf("%s: precision rose as subset shrank (%.2f -> %.2f)",
				bench, first.Precision, last.Precision)
		}
		if first.Precision < 0.5 {
			t.Errorf("%s: largest subset precision %.2f < 0.5", bench, first.Precision)
		}
	}
}

func TestTable8Shapes(t *testing.T) {
	skipTimingUnderRace(t)
	rows, err := Table8(io.Discard, qs())
	if err != nil {
		t.Fatalf("Table8: %v", err)
	}
	byKey := make(map[string]Table8Row)
	for _, r := range rows {
		byKey[r.Benchmark+"-"+r.Strategy] = r
	}
	for _, bench := range []string{"product", "toxic"} {
		w := byKey[bench+"-willump"]
		// Shape: Willump's selection yields a real speedup over the
		// unoptimized compiled pipeline.
		if w.CascThroughput < 1.2*w.OrigThroughput {
			t.Errorf("%s: willump cascade %.0f < 1.2x orig %.0f",
				bench, w.CascThroughput, w.OrigThroughput)
		}
		// Shape: Willump is at least competitive with the worse of the two
		// baseline heuristics (the paper's claim: it beats both, matching
		// oracle; allow measurement slack on small data).
		imp := byKey[bench+"-important"]
		cheap := byKey[bench+"-cheap"]
		worst := imp.CascThroughput
		if cheap.CascThroughput < worst {
			worst = cheap.CascThroughput
		}
		if w.CascThroughput < 0.7*worst {
			t.Errorf("%s: willump %.0f far below baseline heuristics (worst %.0f)",
				bench, w.CascThroughput, worst)
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	skipTimingUnderRace(t)
	rows, err := Fig8(io.Discard, qs())
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	var bestSynthetic float64
	sawSynthetic := false
	for _, r := range rows {
		if r.Benchmark == "synthetic" {
			sawSynthetic = true
			if r.Speedup > bestSynthetic {
				bestSynthetic = r.Speedup
			}
		}
	}
	if !sawSynthetic {
		t.Fatal("no synthetic rows")
	}
	// Shape: the synthetic 4-generator benchmark must not regress under
	// parallelization. The paper's near-linear scaling needs one core per
	// generator; CI machines may have as few as two, where GC contention
	// caps gains (documented in EXPERIMENTS.md), so the bound is loose.
	if bestSynthetic < 0.8 {
		t.Errorf("synthetic best speedup %.2f < 0.8x (regression)", bestSynthetic)
	}
}

func TestMicroDrivers(t *testing.T) {
	rows, err := MicroDrivers(io.Discard, qs())
	if err != nil {
		t.Fatalf("MicroDrivers: %v", err)
	}
	for _, r := range rows {
		if r.Benchmark == "credit" {
			if r.OverheadFraction <= 0 {
				t.Error("credit's Python UDF should record driver overhead")
			}
			continue
		}
		// Fully compilable pipelines cross no drivers at all.
		if r.OverheadFraction != 0 {
			t.Errorf("%s: driver overhead %.4f != 0 for fully compiled pipeline",
				r.Benchmark, r.OverheadFraction)
		}
	}
}

func TestMicroThreshold(t *testing.T) {
	rows, err := MicroThreshold(io.Discard, qs())
	if err != nil {
		t.Fatalf("MicroThreshold: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("no cascades built")
	}
	for _, r := range rows {
		// Shape (section 6.4): held-out accuracy loss is statistically
		// insignificant.
		if r.Significant {
			t.Errorf("%s: cascade loss is statistically significant (full %.4f, cascade %.4f)",
				r.Benchmark, r.FullAccuracy, r.CascadeAccuracy)
		}
	}
}

func TestMicroGamma(t *testing.T) {
	skipTimingUnderRace(t)
	rows, err := MicroGamma(io.Discard, qs())
	if err != nil {
		t.Fatalf("MicroGamma: %v", err)
	}
	for _, r := range rows {
		// Shape: the gamma rule never hurts materially. When cascades barely
		// engage (both speedups near 1x), the comparison is measurement
		// noise, so the bound is loose.
		if r.SpeedupWithRule < 0.8*r.SpeedupWithoutRule {
			t.Errorf("target %.3f: with-rule %.2fx below without-rule %.2fx",
				r.AccuracyTarget, r.SpeedupWithRule, r.SpeedupWithoutRule)
		}
	}
}

func TestMicroOptTime(t *testing.T) {
	rows, err := MicroOptTime(io.Discard, qs())
	if err != nil {
		t.Fatalf("MicroOptTime: %v", err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		// Shape (section 6.4): optimization never exceeds thirty seconds.
		if r.Duration.Seconds() > 30 {
			t.Errorf("%s: optimization took %v > 30s", r.Benchmark, r.Duration)
		}
	}
}

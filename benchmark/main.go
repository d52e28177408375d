// Command benchmark is the one benchmark of the whole stack: five
// paper-shaped workloads, end-to-end metrics with regression bounds, and a
// per-layer waterfall timed from outside the program. See README.md and the
// contract in BENCHMARK.json at the repo root.
//
//	go run ./benchmark                      every workload, untraced then traced
//	go run ./benchmark -repeat 2            two sets, compared against the bounds
//	go run ./benchmark --workload toxic-point --seed 3 --seconds 18 --trace 0
//
// With --workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
)

// setupRuns is how many set-ups of the workload an untraced run drives, each
// for windows/setupRuns of the timed windows; setup_s is the median over all
// set-ups made. A set-up whose plan is not the workload's reference plan is
// timed but not driven; maxSetups bounds the set-ups made until enough have
// come up with it.
const (
	setupRuns = 5
	maxSetups = 16
)

// result is one run of one workload.
type result struct {
	attempted int
	failed    int
	metrics   map[string]float64
	plan      string
}

func (r result) correct() bool { return r.failed == 0 && r.attempted > 0 }

func main() {
	name := flag.String("workload", "", "run one workload and print the contract's JSON result line (default: all)")
	seed := flag.Int64("seed", 1, "seed of the generated request streams")
	seconds := flag.Float64("seconds", 18, "measuring time per run")
	trace := flag.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 makes the traced pass and reports per-layer metrics")
	repeat := flag.Int("repeat", 1, "without -workload: run this many full sets and compare them against the bounds")
	out := flag.String("out", filepath.Join("benchmark", "out"), "directory for trace-<workload>.json")
	flag.Parse()
	ctx := context.Background()
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds %v: need at least 1", *seconds))
	}
	printHeader(*seed, *seconds)
	if *name == "" {
		os.Exit(runAll(ctx, *seed, *seconds, *repeat, *out))
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	res, err := runOne(ctx, workloads[i], *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fatal(err)
	}
	printResultLine(res, *trace == 1)
	if !res.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func printHeader(seed int64, seconds float64) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("willump benchmark: seed=%d seconds=%g GOMAXPROCS=%d nproc=%d %s commit=%s\n",
		seed, seconds, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit)
}

// runOne sets a workload up and measures it. With tracing off it makes the
// end-to-end metrics: the workload is set up until setupRuns set-ups have come
// up with the reference plan, and each of those is driven for its share of
// --seconds, so that what differs from one set-up to the next (the feature
// cache's split, where the heap put things) is inside every run's medians
// and not between runs. A traced run makes the per-layer metrics from
// counters and the traced pass, on one set-up.
func runOne(ctx context.Context, w workload, seed int64, seconds float64, traced bool, outDir string) (result, error) {
	res := result{metrics: map[string]float64{}}
	want := setupRuns
	if traced {
		want = 1
	}
	var inst *instance
	var su []setupTime
	var all closedResult // untraced: the windows of every set-up driven
	var speedBefore float64
	if !traced {
		speedBefore = machineSpeed()
	}
	driven := 0
	for k := 0; k < maxSetups && driven < want; k++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		cpu, wall := cpuNanos(), now()
		var err error
		if inst, err = w.setup(ctx, seed); err != nil {
			return res, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		t := setupTime{s: inst.setupS, cpuShare: cpuShare(cpuNanos()-cpu, now()-wall, 1)}
		if !traced {
			speedAfter := machineSpeed()
			t.speed = (speedBefore + speedAfter) / 2
			speedBefore = speedAfter
		}
		su = append(su, t)
		if inst.plan != w.plan {
			continue
		}
		driven++
		if !traced {
			all.merge(driveClosed(ctx, inst, seconds/setupRuns, windows/setupRuns, true))
			speedBefore = machineSpeed()
		}
	}
	defer inst.close()
	if driven == 0 && !traced {
		all = driveClosed(ctx, inst, seconds, windows, true)
	}
	if inst.evaluate != nil {
		if err := inst.evaluate(ctx); err != nil {
			return res, fmt.Errorf("%s: measuring quality: %w", w.name, err)
		}
	}
	res.plan = inst.plan
	fmt.Printf("\n== %s (seed %d, inputs %s)\n   why: %s\n   plan: %s %s (%d set-ups, %d driven)\n",
		w.name, seed, inst.digest, w.why, inst.plan, inst.planDetail, len(su), max(driven, 1))
	if driven == 0 {
		fmt.Printf("   plan_changed: the reference plan %q did not come up in %d set-ups\n", w.plan, len(su))
	}

	var err error
	if traced {
		err = measureLayers(ctx, w, inst, seconds, outDir, &res)
	} else {
		err = reportEndToEnd(inst, summarise(all), su, &res)
	}
	if err != nil {
		return res, fmt.Errorf("%s: %w", w.name, err)
	}
	checked, wrong, err := inst.gate(ctx)
	if err != nil {
		return res, fmt.Errorf("%s: correctness gate: %w", w.name, err)
	}
	res.attempted += checked
	res.failed += wrong
	fmt.Printf("   correctness gate: %d checked, %d wrong; attempted=%d failed=%d fail_frac=%g\n",
		checked, wrong, res.attempted, res.failed, float64(res.failed)/float64(res.attempted))
	return res, nil
}

// setupTime is one set-up of a run: its time, the share of it spent on the
// CPU, and the machine speed around it.
type setupTime struct{ s, cpuShare, speed float64 }

// reportEndToEnd fills the end-to-end metrics from the windows driven, the
// set-ups made and the last instance. Timings are at nominal machine speed
// (see machineSpeed), converted window by window and set-up by set-up; the
// values as measured are printed beside them.
func reportEndToEnd(inst *instance, m measured, su []setupTime, res *result) error {
	res.attempted, res.failed = m.attempted, m.failed
	if m.firstErr != nil {
		fmt.Printf("   first failed operation: %v\n", m.firstErr)
	}
	if m.samples == 0 {
		return fmt.Errorf("no operation completed")
	}
	var setups, asMeasured []float64
	for _, t := range su {
		setups = append(setups, atNominal(t.s, t.cpuShare, t.speed))
		asMeasured = append(asMeasured, t.s)
	}
	e := res.metrics
	e["setup_s"] = median(setups)
	e["rows_per_s"] = m.rowsPerS
	e["p50_us"] = m.p50us
	e["allocs_per_op"] = m.allocsPerOp()
	e["heap_mb"] = heapMiB()
	e["quality"] = inst.quality
	how := "median of per-window p99"
	if m.pooled {
		how = "p99 of the pooled windows (single windows hold too few samples)"
	}
	fmt.Printf("   %d timed calls in %d windows; p99 is the %s: %.6g us\n", m.samples, m.windows, how, m.p99us)
	fmt.Printf("   machine speed %.3f of nominal (mean over the windows), CPU share of the callers' time %.2f\n", m.speed, m.cpuShare)
	fmt.Printf("   as measured: set-ups %.4g s (median %.4g), rows_per_s %.6g, p50_us %.6g, p99_us %.6g\n",
		asMeasured, median(asMeasured), m.rawRowsPerS, m.rawP50us, m.rawP99us)
	printMetrics(e, endToEnd)
	if !math.IsNaN(inst.accuracyLoss) {
		fmt.Printf("   %-28s %12.6g %s\n", "accuracy_loss", inst.accuracyLoss, "ratio")
	}
	return nil
}

// printResultLine prints the contract's result object.
func printResultLine(res result, traced bool) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(specs))
	for _, s := range specs {
		metrics[s.Name] = mv{res.metrics[s.Name], s.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func printMetrics(vals map[string]float64, specs []metricSpec) {
	for _, s := range specs {
		if v, ok := vals[s.Name]; ok {
			fmt.Printf("   %-28s %12.6g %s\n", s.Name, v, s.Unit)
		}
	}
}

// runAll runs every workload, untraced then traced, `repeat` times, and with
// two or more sets compares the end-to-end metrics of the first two against
// the bounds in BENCHMARK.json. It returns the process exit code.
func runAll(ctx context.Context, seed int64, seconds float64, repeat int, outDir string) int {
	code := 0
	sets := make([]map[string]result, repeat)
	for r := range sets {
		sets[r] = map[string]result{}
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				res, err := runOne(ctx, w, seed, seconds, traced, outDir)
				if err != nil {
					fatal(err)
				}
				if !res.correct() {
					code = 1
				}
				if !traced {
					sets[r][w.name] = res
				}
			}
		}
	}
	if repeat < 2 {
		return code
	}
	bounds, err := contractBounds("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n== repeat: set 2 against set 1 (positive = worse), same code\n")
	fmt.Printf("   %-20s %-12s %12s %12s %9s %7s\n", "workload", "metric", "set 1", "set 2", "worse by", "bound")
	for _, w := range workloads {
		a, b := sets[0][w.name], sets[1][w.name]
		for _, s := range endToEnd {
			worse := worseBy(a.metrics[s.Name], b.metrics[s.Name], s.Better)
			flag := ""
			if a.plan != b.plan {
				flag = " plan_changed"
			}
			if worse > bounds[s.Name] {
				flag += " EXCEEDS"
				code = 1
			}
			fmt.Printf("   %-20s %-12s %12.6g %12.6g %+8.2f%% %6.0f%%%s\n", w.name, s.Name,
				a.metrics[s.Name], b.metrics[s.Name], 100*worse, 100*bounds[s.Name], flag)
		}
	}
	return code
}

// worseBy is how much worse b is than a, as a share of a.
func worseBy(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// contractBounds reads the end-to-end bounds from BENCHMARK.json, the one
// place they are written down.
func contractBounds(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range c.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// writeTrace writes the spans kept in memory during the traced pass.
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), raw, 0o644)
}

// printWaterfall prints each span name's mean self time per traced operation
// and its share of the root; the rows sum to the root.
func printWaterfall(workload string, spans []span) (shares map[string]float64) {
	self, rootTotal, roots := selfTimes(spans)
	shares = map[string]float64{}
	if roots == 0 || rootTotal == 0 {
		return shares
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Printf("   waterfall of %s: %d traced operations, mean self time per operation\n", workload, roots)
	var sum int64
	for _, n := range names {
		sum += self[n]
		share := float64(self[n]) / float64(rootTotal)
		shares[strings.SplitN(n, ".", 2)[0]] += share
		fmt.Printf("     %-28s %12.3f us %6.1f%%\n", n, float64(self[n])/float64(roots)/1e3, 100*share)
	}
	fmt.Printf("     %-28s %12.3f us %6.1f%%  (root %.3f us)\n", "sum", float64(sum)/float64(roots)/1e3,
		100*float64(sum)/float64(rootTotal), float64(rootTotal)/float64(roots)/1e3)
	return shares
}

// Command willump-loadgen drives a Willump serving tier with open-loop,
// trace-driven load and reports per-scenario SLOs (coordinated-omission-
// corrected p50/p99/p999, shed/error/degraded counts, error budgets).
//
// Usage:
//
//	willump-loadgen -self                          # full suite, in-process stack
//	willump-loadgen -self -quick                   # CI-sized smoke suite
//	willump-loadgen -self -scenario smoke          # the CI smoke subset
//	willump-loadgen -self -scenario poisson,drain  # named scenarios
//	willump-loadgen -self -record trace.out -scenario poisson
//	willump-loadgen -self -replay trace.out
//
// Scenario budgets are enforced: any violated budget exits nonzero. The
// latencies are read from metrics.Hist, the histogram the serving tier's own
// stats use, so a scenario's p99 and the server's LatencyP99 are the same
// estimator (nearest rank, bucket midpoints within 1/32).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"willump/internal/loadgen"
)

func main() {
	var (
		self     = flag.Bool("self", false, "drive a self-contained in-process serving stack (required; remote targets need the env's chaos hooks)")
		scenario = flag.String("scenario", "", "comma-separated scenario names, or 'smoke' for the CI subset (default: all)")
		quick    = flag.Bool("quick", false, "CI-sized run: scale QPS and durations to ~1/4")
		scale    = flag.Float64("scale", 0, "explicit QPS/duration scale factor (overrides -quick)")
		record   = flag.String("record", "", "write each scenario's generated schedule to <path>.<scenario> trace files")
		replay   = flag.String("replay", "", "replay a recorded trace file as scenario 'replay' instead of the catalog")
	)
	flag.Parse()
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "willump-loadgen:", err)
		os.Exit(1)
	}
	if !*self {
		fatal(fmt.Errorf("only -self mode is implemented: chaos scenarios need in-process fault hooks"))
	}

	// SIGINT/SIGTERM stop the dispatcher and drain workers, so an
	// interrupted run still prints the reports gathered so far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sc := *scale
	if sc == 0 && *quick {
		sc = 0.25
	}
	var names []string
	if *scenario == "smoke" {
		names = loadgen.SmokeScenarios
	} else if *scenario != "" {
		names = strings.Split(*scenario, ",")
	}

	var reports []loadgen.Report
	var err error
	switch {
	case *replay != "":
		reports, err = runReplay(ctx, *replay)
	case *record != "":
		reports, err = runRecorded(ctx, sc, names, *record)
	default:
		reports, err = loadgen.RunSuite(ctx, loadgen.SuiteConfig{
			Scale: sc, Scenarios: names, Out: os.Stdout,
		})
	}
	if err != nil {
		fatal(err)
	}

	if failed := loadgen.Failed(reports); len(failed) > 0 {
		for _, r := range failed {
			for _, v := range r.Violations {
				fmt.Fprintf(os.Stderr, "willump-loadgen: %s: %s\n", r.Scenario, v)
			}
		}
		os.Exit(1)
	}
}

// runRecorded runs the selected scenarios while writing each generated
// schedule to prefix.<scenario> for later replay.
func runRecorded(ctx context.Context, scale float64, names []string, prefix string) ([]loadgen.Report, error) {
	specs, err := loadgen.SelectScenarios(loadgen.Catalog(scale), names)
	if err != nil {
		return nil, err
	}
	for _, s := range specs {
		events, err := s.Events()
		if err != nil {
			return nil, err
		}
		path := prefix + "." + s.Name
		if err := loadgen.SaveTrace(path, events); err != nil {
			return nil, err
		}
		fmt.Printf("recorded %d events to %s\n", len(events), path)
	}
	return loadgen.RunSuite(ctx, loadgen.SuiteConfig{Scale: scale, Scenarios: names, Out: os.Stdout})
}

// runReplay drives a recorded trace file through a fresh env as one
// scenario with a lenient budget (the trace carries no SLO).
func runReplay(ctx context.Context, path string) ([]loadgen.Report, error) {
	env, err := loadgen.NewLocalEnv(loadgen.EnvConfig{})
	if err != nil {
		return nil, err
	}
	defer env.Close()
	rep, err := loadgen.RunScenario(ctx, env, loadgen.ScenarioSpec{
		Name:      "replay",
		TracePath: path,
		Budget:    loadgen.Budget{MaxErrorRate: 0.01, MaxOverloadRate: 0.05},
	})
	if err != nil {
		return nil, err
	}
	rep.Print(os.Stdout)
	return []loadgen.Report{rep}, nil
}

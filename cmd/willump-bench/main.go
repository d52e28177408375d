// Command willump-bench regenerates the tables and figures of the Willump
// paper's evaluation (section 6) against this repository's synthetic
// benchmark suite.
//
// Usage:
//
//	willump-bench -exp all                # every experiment
//	willump-bench -exp fig5              # one experiment
//	willump-bench -exp table4 -n 8000    # custom dataset size
//	willump-bench -exp fig7 -quick       # CI-sized run
//
// Experiments: fig5, fig6, table2 (alias table3), table4, table5, table6,
// table7, table8, fig7, fig8, artifact, remote-lookup, micro-drivers,
// micro-threshold, micro-gamma, micro-opttime, all.
//
// These are the paper's tables, printed for reading. The repository's
// performance gate is benchmark/ (see BENCHMARK.json); the in-process
// predict-path numbers are `go test -bench 'Predict|TextPipelines' .`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"willump/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id (fig5, fig6, table2..table8, fig7, fig8, artifact, remote-lookup, micro-*, all)")
		n     = flag.Int("n", 0, "rows per benchmark (0 = experiment default)")
		seed  = flag.Int64("seed", 1, "dataset seed")
		quick = flag.Bool("quick", false, "CI-sized datasets and repetition counts")
	)
	flag.Parse()

	s := experiments.Full()
	if *quick {
		s = experiments.Quick()
	}
	if *n > 0 {
		s.N = *n
	}
	s.Seed = *seed

	if err := run(os.Stdout, *exp, s); err != nil {
		fmt.Fprintln(os.Stderr, "willump-bench:", err)
		os.Exit(1)
	}
}

type runner struct {
	id   string
	desc string
	fn   func(io.Writer, experiments.Setup) error
}

func wrap[T any](fn func(io.Writer, experiments.Setup) (T, error)) func(io.Writer, experiments.Setup) error {
	return func(w io.Writer, s experiments.Setup) error {
		_, err := fn(w, s)
		return err
	}
}

var runners = []runner{
	{"fig5", "batch throughput: python vs compilation vs cascades", wrap(experiments.Fig5)},
	{"fig6", "example-at-a-time latency", wrap(experiments.Fig6)},
	{"table2", "remote request reduction + latency (also table3)", wrap(experiments.Tables23)},
	{"table3", "remote request reduction + latency (alias of table2)", wrap(experiments.Tables23)},
	{"table4", "top-K filter models", wrap(experiments.Table4)},
	{"table5", "filter models vs random sampling", wrap(experiments.Table5)},
	{"table6", "Clipper integration", wrap(experiments.Table6)},
	{"table7", "filtered subset size sweep", wrap(experiments.Table7)},
	{"table8", "efficient-IFV selection strategies", wrap(experiments.Table8)},
	{"fig7", "cascade threshold sweep", wrap(experiments.Fig7)},
	{"fig8", "per-query parallelization speedup", wrap(experiments.Fig8)},
	{"artifact", "artifact round trip: train once, deploy many", wrap(experiments.Artifact)},
	{"remote-lookup", "remote feature-store latency sweep: sync vs prefetch vs prefetch+hedge", experiments.RemoteLookup},
	{"micro-drivers", "Weld driver overhead", wrap(experiments.MicroDrivers)},
	{"micro-threshold", "cascade threshold robustness", wrap(experiments.MicroThreshold)},
	{"micro-gamma", "Algorithm 1 gamma-rule ablation", wrap(experiments.MicroGamma)},
	{"micro-opttime", "optimization time", wrap(experiments.MicroOptTime)},
}

func run(w io.Writer, exp string, s experiments.Setup) error {
	if exp == "all" {
		start := time.Now()
		for _, r := range runners {
			if r.id == "table3" {
				continue // alias of table2
			}
			if err := r.fn(w, s); err != nil {
				return fmt.Errorf("%s: %w", r.id, err)
			}
		}
		fmt.Fprintf(w, "\nall experiments completed in %s\n", time.Since(start).Round(time.Second))
		return nil
	}
	for _, r := range runners {
		if r.id == exp {
			return r.fn(w, s)
		}
	}
	fmt.Fprintln(w, "unknown experiment; available:")
	for _, r := range runners {
		fmt.Fprintf(w, "  %-16s %s\n", r.id, r.desc)
	}
	return fmt.Errorf("unknown experiment %q", exp)
}

package loadgen

import (
	"context"
	"fmt"
	"io"
)

// SuiteConfig parameterizes a scenario-suite run against a local env.
type SuiteConfig struct {
	// Env is the shared environment (scenarios with EnvOverride get their
	// own regardless).
	Env EnvConfig
	// Scale compresses/stretches catalog QPS and durations (default 1.0).
	Scale float64
	// Scenarios filters the catalog by name (nil: all).
	Scenarios []string
	// Out receives human-readable per-scenario summaries (nil: discarded).
	Out io.Writer
}

// RunSuite runs the selected scenarios and returns their reports. A
// scenario with EnvOverride runs in a dedicated env torn down afterwards;
// the rest share one env, so cross-scenario state (warm connections, cache
// contents) carries over like it would in a long-lived deployment. The
// returned error covers infrastructure failures only — budget violations
// live in the reports.
func RunSuite(ctx context.Context, cfg SuiteConfig) ([]Report, error) {
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	specs, err := SelectScenarios(Catalog(cfg.Scale), cfg.Scenarios)
	if err != nil {
		return nil, err
	}

	var shared *Env
	sharedEnv := func() (*Env, error) {
		if shared == nil {
			shared, err = NewLocalEnv(cfg.Env)
			if err != nil {
				return nil, fmt.Errorf("loadgen: building env: %w", err)
			}
		}
		return shared, nil
	}
	defer func() {
		if shared != nil {
			shared.Close()
		}
	}()

	reports := make([]Report, 0, len(specs))
	for _, s := range specs {
		if err := ctx.Err(); err != nil {
			return reports, err
		}
		e := shared
		if s.EnvOverride != nil {
			e, err = NewLocalEnv(*s.EnvOverride)
			if err != nil {
				return reports, fmt.Errorf("loadgen: building env for %s: %w", s.Name, err)
			}
		} else if e, err = sharedEnv(); err != nil {
			return reports, err
		}
		rep, err := RunScenario(ctx, e, s)
		if s.EnvOverride != nil {
			e.Close()
		}
		if err != nil {
			return reports, err
		}
		rep.Print(out)
		reports = append(reports, rep)
	}
	return reports, nil
}

// Failed returns the reports that violated their budgets.
func Failed(reports []Report) []Report {
	var out []Report
	for _, r := range reports {
		if !r.Passed() {
			out = append(out, r)
		}
	}
	return out
}

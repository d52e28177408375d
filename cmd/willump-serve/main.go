// Command willump-serve is the deployment half of Willump's train-once /
// deploy-many lifecycle: it loads pipeline artifacts written by
// willump.Save / willump.SaveFile and hosts them behind the multi-model
// HTTP serving frontend (named/versioned model routes, request queueing
// with admission control, adaptive batching, per-model stats), with
// graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	willump-serve -artifact pipeline.willump               # one artifact on 127.0.0.1:8000
//	willump-serve -models deploy/ -addr :9090              # every *.willump in deploy/
//	willump-serve -models deploy/ -default toxic           # choose the legacy-route model
//	willump-serve -artifact pipeline.willump -describe     # inspect, don't serve
//
// In model-directory mode each deploy/NAME.willump file is deployed as
// model NAME, versioned by its content hash. SIGHUP rescans the directory
// and hot-swaps changed artifacts with zero downtime: new files deploy,
// modified files atomically replace their running version (in-flight work
// drains on the old version), and removed files undeploy. The single
// -artifact mode reloads its file on SIGHUP the same way.
//
// Serving endpoints: POST /v1/models/{name}/predict and /topk with
// per-request options (cascade threshold, top-K budget, point modality,
// deadline), GET /v1/models (+ /{name}, /{name}/stats), the legacy POST
// /predict route against the default model, GET /healthz, and the
// observability surface: GET /metrics (Prometheus text exposition) and —
// with -trace — GET /v1/traces (retained request traces). -pprof
// additionally mounts net/http/pprof under /debug/pprof/.
//
// Overload defense: -slo-p99 gives every model an SLO-aware admission
// controller (predictive shedding of requests forecast to miss their
// deadline, adaptive AIMD concurrency limiting; 429s carry a Retry-After
// drain forecast). -brownout additionally degrades answers before shedding
// them — cascade small-model-only scoring, shrunken top-K budgets, then
// prediction-cache answers — marked with a `degraded` field on the
// response. -criticality-header names a request header (low|normal|high)
// so high-priority traffic degrades and sheds last.
//
// Drift defense: -adapt attaches an online adaptation controller to every
// deployed model. Live traffic is shadow-sampled into drift detectors
// (key-reuse against the trained cache plan, score distribution); confirmed
// drift re-fits the cascade threshold and feature-cache budget split from
// recent traffic and rolls the re-fit plan in as a guarded canary
// (-adapt-canary-frac of traffic) that promotes automatically or rolls back
// and cools down (-adapt-cooldown). Adaptation state rides on each model's
// /stats response and on /metrics.
//
// Artifacts whose pipelines join against remote (non-inlined) tables are
// hostable too: -store-addr points every unbound table at a remote feature
// store, served through a pooled client with retries, request hedging
// (-store-hedge), and a circuit breaker that degrades to last-known feature
// values instead of failing predictions. Store health rides along on each
// model's /stats response and on /metrics. For bindings the flag cannot
// express (per-table addresses, in-process tables), use willump.LoadFile
// with willump.WithTableBinding or willump.WithTableResolver instead.
package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"willump"
	"willump/internal/adapt"
	"willump/internal/artifact"
	"willump/internal/store"
	"willump/internal/trace"
)

func main() {
	var (
		path         = flag.String("artifact", "", "path to a single pipeline artifact written by willump.SaveFile")
		modelsDir    = flag.String("models", "", "directory of *.willump artifacts to deploy as named models")
		defaultModel = flag.String("default", "", "model served on the legacy /predict route (default: first deployed)")
		addr         = flag.String("addr", "127.0.0.1:8000", "listen address (host:port)")
		maxBatch     = flag.Int("max-batch", 0, "adaptive batching: max rows per merged batch (0 = default)")
		batchTimeout = flag.Duration("batch-timeout", 0, "adaptive batching: cap on how long a merged batch is held open for more work; the wait itself is the batch's forecast service time (0 = default 500us)")
		queueDepth   = flag.Int("queue-depth", 0, "per-model request queue bound; full queues reject with HTTP 429 (0 = default)")
		cache        = flag.Int("cache", 0, "per-model end-to-end prediction cache capacity (0 disables, < 0 unbounded)")
		sloP99       = flag.Duration("slo-p99", 0, "per-model p99 completion target; enables SLO-aware admission (predictive shedding + adaptive concurrency; 0 disables)")
		brownout     = flag.Bool("brownout", false, "with -slo-p99: degrade answers under pressure (cascade small-only, shrunken top-K budgets, prediction-cache answers) before shedding them")
		critHeader   = flag.String("criticality-header", "", "HTTP request header carrying per-request criticality (low|normal|high); high-criticality traffic degrades and sheds last")
		drain        = flag.Duration("drain-timeout", 30*time.Second, "max time to drain in-flight requests on shutdown")
		describe     = flag.Bool("describe", false, "print the artifacts' contents and exit without serving")
		traceOn      = flag.Bool("trace", false, "enable per-request tracing and shadow profiling on deployed pipelines")
		traceSample  = flag.Float64("trace-sample", 0.01, "head-sampling rate with -trace (1 traces every request)")
		traceBuffer  = flag.Int("trace-buffer", 0, "retained-trace ring capacity with -trace (0 = default)")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		adaptOn   = flag.Bool("adapt", false, "enable online adaptation per model: drift detectors on live traffic, guarded threshold/cache-plan re-fit, canaried swap with automatic rollback")
		adaptFrac = flag.Float64("adapt-canary-frac", 0, "with -adapt: traffic fraction routed to a candidate plan while canarying (0 = default)")
		adaptCool = flag.Duration("adapt-cooldown", 0, "with -adapt: pause after a canary rollback before re-attempting adaptation (0 = default)")

		storeAddr       = flag.String("store-addr", "", "remote feature store address; unbound lookup tables in loaded artifacts resolve here")
		storeTimeout    = flag.Duration("store-timeout", 0, "per-request feature store deadline (0 = default)")
		storeRetries    = flag.Int("store-retries", 0, "transient feature store failures retried per request (0 = default, < 0 disables)")
		storeHedge      = flag.Bool("store-hedge", true, "hedge slow feature store requests with a speculative second attempt")
		storeHedgeDelay = flag.Duration("store-hedge-delay", 0, "fixed hedge trigger delay (0 = adaptive, tracks the store's p90 latency)")
	)
	flag.Parse()

	if (*path == "") == (*modelsDir == "") {
		fmt.Fprintln(os.Stderr, "willump-serve: exactly one of -artifact or -models is required")
		flag.Usage()
		os.Exit(2)
	}
	opts := willump.ServeOptions{
		MaxBatch:          *maxBatch,
		BatchTimeout:      *batchTimeout,
		QueueDepth:        *queueDepth,
		CacheCapacity:     *cache,
		SLOTargetP99:      *sloP99,
		Brownout:          *brownout,
		CriticalityHeader: *critHeader,
	}
	if *brownout && *sloP99 <= 0 {
		fmt.Fprintln(os.Stderr, "willump-serve: -brownout requires -slo-p99")
		os.Exit(2)
	}
	obs := obsConfig{pprof: *pprofOn}
	if *traceOn {
		// Rate -> 1-in-N, same rounding and defaulting as willump.WithTracing:
		// a non-positive rate keeps the package default (1 in 128) rather than
		// silently tracing every request.
		obs.traceEvery = trace.DefaultSampleEvery
		switch {
		case *traceSample >= 1:
			obs.traceEvery = 1
		case *traceSample > 0:
			obs.traceEvery = int(1/(*traceSample) + 0.5)
		}
		obs.traceBuffer = *traceBuffer
	}
	var adaptCfg *adapt.Config
	if *adaptOn {
		adaptCfg = &adapt.Config{
			CanaryFraction: *adaptFrac,
			Cooldown:       *adaptCool,
		}
	} else if *adaptFrac != 0 || *adaptCool != 0 {
		fmt.Fprintln(os.Stderr, "willump-serve: -adapt-canary-frac and -adapt-cooldown require -adapt")
		os.Exit(2)
	}
	var storeCfg *store.Config
	if *storeAddr != "" {
		storeCfg = &store.Config{
			Addr:           *storeAddr,
			RequestTimeout: *storeTimeout,
			Retries:        *storeRetries,
			Hedge:          *storeHedge,
			HedgeDelay:     *storeHedgeDelay,
		}
	}
	if err := run(*path, *modelsDir, *defaultModel, *addr, opts, obs, storeCfg, adaptCfg, *drain, *describe); err != nil {
		fmt.Fprintln(os.Stderr, "willump-serve:", err)
		os.Exit(1)
	}
}

// obsConfig carries the observability flags: tracing (0 traceEvery means
// disabled — artifacts never persist tracing, so the deployer re-enables it
// on every loaded pipeline) and the pprof mount.
type obsConfig struct {
	traceEvery  int
	traceBuffer int
	pprof       bool
}

func run(path, modelsDir, defaultModel, addr string, opts willump.ServeOptions, obs obsConfig, storeCfg *store.Config, adaptCfg *adapt.Config, drain time.Duration, describe bool) error {
	scan := func() ([]string, error) { return []string{path}, nil }
	if modelsDir != "" {
		scan = func() ([]string, error) { return scanModels(modelsDir) }
	}
	paths, err := scan()
	if err != nil {
		return err
	}
	if describe {
		for i, p := range paths {
			if i > 0 {
				fmt.Println()
			}
			if err := describeArtifact(p); err != nil {
				return err
			}
		}
		return nil
	}

	d := &deployer{
		reg:          willump.NewRegistryWithOptions(opts),
		deployed:     make(map[string]string),
		defaultModel: defaultModel,
		obs:          obs,
		storeCfg:     storeCfg,
		adaptCfg:     adaptCfg,
		stores:       make(map[string]*store.Client),
	}
	defer d.closeStores()
	if err := d.sync(paths); err != nil {
		return err
	}
	if len(d.deployed) == 0 {
		return fmt.Errorf("no deployable artifacts found")
	}
	if defaultModel != "" && d.deployed[defaultModel] == "" {
		return fmt.Errorf("-default %q: no such artifact deployed", defaultModel)
	}

	server := willump.ServeRegistry(d.reg)
	if obs.pprof {
		server.EnablePprof()
	}
	url, err := server.StartOn(addr)
	if err != nil {
		return err
	}
	fmt.Printf("willump-serve: serving %d model(s) on %s\n", len(d.deployed), url)
	for _, name := range sortedNames(d.deployed) {
		fmt.Printf("willump-serve:   %s (version %s): POST %s/v1/models/%s/predict\n", name, d.deployed[name], url, name)
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for s := range sig {
		if s == syscall.SIGHUP {
			paths, err := scan()
			if err != nil {
				fmt.Fprintf(os.Stderr, "willump-serve: reload: %v\n", err)
				continue
			}
			if err := d.sync(paths); err != nil {
				fmt.Fprintf(os.Stderr, "willump-serve: reload: %v\n", err)
			}
			continue
		}
		fmt.Printf("willump-serve: %v received, draining (up to %v)\n", s, drain)
		break
	}

	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := server.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Println("willump-serve: drained cleanly")
	return nil
}

// scanModels lists the *.willump artifacts in dir, sorted by name.
func scanModels(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("scanning %s: %w", dir, err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".willump") {
			continue
		}
		out = append(out, filepath.Join(dir, e.Name()))
	}
	sort.Strings(out)
	return out, nil
}

// deployer reconciles the registry against a set of artifact files: new
// files deploy, changed files (by content hash) hot-swap, missing files
// undeploy. A broken artifact is reported and skipped — it must never take
// down the models already serving.
type deployer struct {
	reg      *willump.Registry
	deployed map[string]string // model name -> deployed version tag
	// defaultModel is the operator's -default choice, re-asserted after
	// every sync so reloads never silently reroute the legacy /predict
	// route.
	defaultModel string
	obs          obsConfig
	// storeCfg is the -store-addr remote feature store template (nil when the
	// flag is unset). stores caches one dialed client per table name so
	// hot-swaps and models sharing a table share its connection pool, breaker
	// state, and fallback cache.
	storeCfg *store.Config
	stores   map[string]*store.Client
	// adaptCfg is the -adapt online-adaptation template (nil when the flag
	// is unset), enabled once per freshly deployed model; hot-swaps keep
	// their controller through the registry's own readapt-on-deploy path.
	adaptCfg *adapt.Config
}

// resolveTable satisfies unbound lookup tables in loaded artifacts against
// the -store-addr feature store, dialing (and caching) one client per table
// name. Without -store-addr it declines, preserving the legacy "remote table
// requires a binding" load error.
func (d *deployer) resolveTable(name string) (willump.Table, error) {
	if d.storeCfg == nil {
		return nil, nil
	}
	if c, ok := d.stores[name]; ok {
		return c, nil
	}
	cfg := *d.storeCfg
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := store.Dial(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("table %q: dialing feature store %s: %w", name, cfg.Addr, err)
	}
	d.stores[name] = c
	return c, nil
}

func (d *deployer) closeStores() {
	for _, c := range d.stores {
		c.Close()
	}
}

func (d *deployer) sync(paths []string) error {
	seen := make(map[string]bool, len(paths))
	var firstErr error
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ".willump")
		// The file exists in the scan: whatever happens below, this model is
		// not a removal candidate. A transiently unreadable or corrupt
		// artifact must never undeploy the healthy version already serving.
		seen[name] = true
		tag, err := contentTag(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "willump-serve: %s: %v (skipped)\n", p, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if d.deployed[name] == tag {
			continue // unchanged
		}
		o, err := willump.LoadFile(p, willump.WithTableResolver(d.resolveTable))
		if err != nil {
			fmt.Fprintf(os.Stderr, "willump-serve: %s: %v (skipped)\n", p, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if d.obs.traceEvery > 0 {
			// Tracing is a runtime property, never persisted in artifacts;
			// every loaded (or hot-swapped) pipeline re-enables it here.
			o.EnableTracing(d.obs.traceEvery, d.obs.traceBuffer)
		}
		if err := d.reg.Deploy(name, tag, o); err != nil {
			fmt.Fprintf(os.Stderr, "willump-serve: deploying %s: %v (skipped)\n", name, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if d.deployed[name] == "" {
			fmt.Printf("willump-serve: deployed %s (version %s)\n", name, tag)
			if d.adaptCfg != nil {
				if err := d.reg.EnableAdaptation(name, *d.adaptCfg); err != nil {
					fmt.Fprintf(os.Stderr, "willump-serve: adaptation for %s: %v\n", name, err)
				} else {
					fmt.Printf("willump-serve: online adaptation enabled for %s\n", name)
				}
			}
		} else {
			fmt.Printf("willump-serve: hot-swapped %s (%s -> %s)\n", name, d.deployed[name], tag)
		}
		d.deployed[name] = tag
	}
	for name := range d.deployed {
		if seen[name] {
			continue
		}
		if err := d.reg.Undeploy(name); err != nil {
			fmt.Fprintf(os.Stderr, "willump-serve: undeploying %s: %v\n", name, err)
			continue
		}
		delete(d.deployed, name)
		fmt.Printf("willump-serve: undeployed %s (artifact removed)\n", name)
	}
	// Re-assert the serving default deterministically: the operator's
	// -default choice survives reloads, and otherwise the alphabetically
	// first deployed model serves /predict — never whichever deploy happened
	// to reset it.
	target := d.defaultModel
	if d.deployed[target] == "" {
		if names := sortedNames(d.deployed); len(names) > 0 {
			target = names[0]
			if d.defaultModel != "" {
				fmt.Fprintf(os.Stderr, "willump-serve: default model %q is gone; /predict now serves %q\n", d.defaultModel, target)
			}
		} else {
			target = ""
		}
	}
	if target != "" {
		if err := d.reg.SetDefault(target); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Only fail hard when nothing could be deployed at all; partial
	// degradation keeps serving.
	if len(d.deployed) == 0 && firstErr != nil {
		return firstErr
	}
	return nil
}

// contentTag derives a model version tag from the artifact's content hash
// (streamed, not slurped: artifacts carry model weights and inlined lookup
// tables), so unchanged files never redeploy and every byte change
// hot-swaps.
func contentTag(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:6]), nil
}

func sortedNames(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// describeArtifact prints a human-readable summary of an artifact without
// reconstructing (or even validating) the full pipeline.
func describeArtifact(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	art, err := artifact.Read(f)
	if err != nil {
		return err
	}
	nodes, sources := 0, 0
	for _, n := range art.Graph.Nodes {
		if n.Op == nil {
			sources++
		} else {
			nodes++
		}
	}
	fmt.Printf("artifact:        %s\n", path)
	fmt.Printf("format version:  %d\n", art.Version)
	fmt.Printf("graph:           %d inputs, %d transformation nodes, %d IFVs\n", sources, nodes, len(art.Widths))
	fmt.Printf("model:           %s\n", art.Model.Kind)
	if art.Approx != nil {
		fmt.Printf("filter model:    %s on efficient IFVs %v\n", art.Approx.Small.Kind, art.Approx.Efficient)
	}
	if art.Cascade != nil {
		fmt.Printf("cascade:         threshold %.2f (full acc %.4f, cascade acc %.4f)\n",
			float64(art.Cascade.Threshold), float64(art.Cascade.FullAccuracy), float64(art.Cascade.CascadeAccuracy))
	}
	if art.Options.TopK {
		fmt.Printf("top-K filter:    ck=%d, min subset fraction %.2f\n", art.Options.CK, art.Options.MinSubsetFrac)
	}
	if art.Options.FeatureCache {
		switch {
		case len(art.Options.FeatureCachePlan) > 0:
			fmt.Printf("feature cache:   budget %d entries, plan", art.Options.FeatureCacheBudget)
			for _, sp := range art.Options.FeatureCachePlan {
				if sp.Capacity > 0 {
					fmt.Printf(" ifv%d=%d", sp.IFV, sp.Capacity)
				} else {
					fmt.Printf(" ifv%d=unbounded", sp.IFV)
				}
			}
			fmt.Println()
		default:
			fmt.Printf("feature cache:   capacity %d\n", art.Options.FeatureCacheCapacity)
		}
	}
	switch w := art.Options.Workers; w {
	case 0:
		fmt.Println("parallelism:     up to GOMAXPROCS workers")
	case 1:
		fmt.Println("parallelism:     sequential")
	default:
		fmt.Printf("parallelism:     up to %d workers\n", w)
	}
	return nil
}

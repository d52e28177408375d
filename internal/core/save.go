package core

import (
	"fmt"
	"io"
	"sort"

	"willump/internal/artifact"
	"willump/internal/cascade"
	"willump/internal/graph"
	"willump/internal/model"
	"willump/internal/ops"
	"willump/internal/topk"
	"willump/internal/weld"
)

// TableBinder is implemented by operators (ops.Lookup, and any custom
// registered operator) that reference an external keyed table which cannot
// be inlined into an artifact. Load binds tables supplied by the caller to
// every operator still needing one.
type TableBinder interface {
	// NeedsTable reports whether the operator still lacks its table.
	NeedsTable() bool
	// TableRef names the table for load-time binding.
	TableRef() string
	// BindTable attaches the table.
	BindTable(t ops.Table) error
}

// Save serializes an optimized pipeline into the versioned artifact format:
// graph topology, fitted operator state, trained model weights, cascade and
// top-K filter state, profiled costs, and the resolved options. The written
// artifact is everything a fresh process needs to serve identical
// predictions — Load never touches training data.
func Save(o *Optimized, w io.Writer) error {
	if o == nil || o.Prog == nil || o.Model == nil {
		return fmt.Errorf("core: Save: nil optimized pipeline")
	}
	if !o.Prog.Fitted() {
		return fmt.Errorf("core: Save: program is not fitted")
	}
	gspec, err := o.Prog.G.Spec(ops.Codec{})
	if err != nil {
		return err
	}
	mk, ms, err := model.EncodeModel(o.Model)
	if err != nil {
		return err
	}
	art := &artifact.Artifact{
		Options: artifact.Options{
			Cascades:             o.opts.Cascades,
			AccuracyTarget:       o.opts.AccuracyTarget,
			Gamma:                o.opts.Gamma,
			TopK:                 o.opts.TopK,
			CK:                   o.opts.CK,
			MinSubsetFrac:        o.opts.MinSubsetFrac,
			FeatureCache:         o.opts.FeatureCache,
			FeatureCacheCapacity: o.opts.FeatureCacheCapacity,
			FeatureCacheBudget:   o.opts.FeatureCacheBudget,
			FeatureCachePlanned:  o.opts.FeatureCache,
			FeatureCachePlan:     encodeCachePlan(o.Prog.CacheSpecs()),
			Workers:              o.opts.Workers,
		},
		Graph:   *gspec,
		Widths:  make(map[int]int, len(o.Prog.Widths)),
		Profile: o.Prog.Prof.Snapshot(),
		Model:   artifact.Model{Kind: mk, State: ms},
	}
	for id, width := range o.Prog.Widths {
		art.Widths[int(id)] = width
	}
	if o.Filter != nil {
		cfg := o.Filter.Config()
		art.Options.TopK = true
		art.Options.CK = cfg.CK
		art.Options.MinSubsetFrac = cfg.MinSubsetFrac
	}
	if o.Approx != nil {
		sk, ss, err := model.EncodeModel(o.Approx.Small)
		if err != nil {
			return fmt.Errorf("core: Save: approximate model: %w", err)
		}
		spec := &artifact.Approx{
			Small:     artifact.Model{Kind: sk, State: ss},
			Efficient: append([]int(nil), o.Approx.Efficient...),
			Rest:      append([]int(nil), o.Approx.Rest...),
			Stats:     make([]artifact.IFVStat, len(o.Approx.Stats)),
		}
		for i, s := range o.Approx.Stats {
			spec.Stats[i] = artifact.IFVStat{
				Index:      s.Index,
				Importance: artifact.Scalar(s.Importance),
				Cost:       artifact.Scalar(s.Cost),
			}
		}
		art.Approx = spec
	}
	if o.Cascade != nil {
		art.Cascade = &artifact.Cascade{
			Threshold:       artifact.Scalar(o.Cascade.Threshold),
			FullAccuracy:    artifact.Scalar(o.Cascade.FullAccuracy),
			CascadeAccuracy: artifact.Scalar(o.Cascade.CascadeAccuracy),
		}
	}
	return artifact.Write(w, art)
}

// Load reconstructs an optimized pipeline from an artifact stream: the
// graph is rebuilt from decoded operators (their fitted state intact), the
// weld program is recompiled and fused in-process, and the trained models,
// cascade, and top-K filter are reassembled — all without touching training
// data. tables supplies backing stores for lookup operators whose tables
// were not inlined in the artifact (remote tables); it may be nil when
// every table was inlined.
func Load(r io.Reader, tables map[string]ops.Table) (*Optimized, error) {
	return LoadWithResolver(r, tables, nil)
}

// TableResolver produces a backing table for an unbound table reference by
// name — typically by dialing a remote feature-store client. It is
// consulted only for names absent from the explicit tables map, and only
// once per distinct name per load.
type TableResolver func(name string) (ops.Table, error)

// LoadWithResolver is Load with a fallback resolver for table references
// the explicit map does not cover, letting a serving process bind every
// remote table in an artifact to a store client without naming each one.
func LoadWithResolver(r io.Reader, tables map[string]ops.Table, resolve TableResolver) (*Optimized, error) {
	art, err := artifact.Read(r)
	if err != nil {
		return nil, err
	}
	g, err := graph.FromSpec(&art.Graph, ops.Codec{})
	if err != nil {
		return nil, err
	}
	if err := bindTables(g, tables, resolve); err != nil {
		return nil, err
	}
	prog, err := weld.Compile(g)
	if err != nil {
		return nil, err
	}
	prog.Workers = art.Options.Workers
	widths := make(map[graph.NodeID]int, len(art.Widths))
	for id, width := range art.Widths {
		widths[graph.NodeID(id)] = width
	}
	if err := prog.Restore(widths, weld.ProfileFromSnapshot(art.Profile)); err != nil {
		return nil, err
	}
	m, err := model.DecodeModel(art.Model.Kind, art.Model.State)
	if err != nil {
		return nil, err
	}
	// A model whose input width disagrees with the restored feature vector
	// would load and then panic (or silently misread columns) on the first
	// prediction.
	if got, want := m.NumFeatures(), spanWidth(prog, prog.AllIFVs()); got != want {
		return nil, fmt.Errorf("core: artifact model takes %d features but the pipeline produces %d", got, want)
	}
	o := &Optimized{
		Prog:   prog,
		Model:  m,
		scorer: model.Bind(m),
		opts: Options{
			Cascades:             art.Options.Cascades,
			AccuracyTarget:       art.Options.AccuracyTarget,
			Gamma:                art.Options.Gamma,
			TopK:                 art.Options.TopK,
			CK:                   art.Options.CK,
			MinSubsetFrac:        art.Options.MinSubsetFrac,
			FeatureCache:         art.Options.FeatureCache,
			FeatureCacheCapacity: art.Options.FeatureCacheCapacity,
			FeatureCacheBudget:   art.Options.FeatureCacheBudget,
			Workers:              art.Options.Workers,
		},
	}
	if art.Approx != nil {
		small, err := model.DecodeModel(art.Approx.Small.Kind, art.Approx.Small.State)
		if err != nil {
			return nil, fmt.Errorf("core: loading approximate model: %w", err)
		}
		nIFVs := len(prog.A.IFVs)
		for _, idx := range art.Approx.Efficient {
			if idx < 0 || idx >= nIFVs {
				return nil, fmt.Errorf("core: artifact efficient IFV index %d out of range [0, %d)", idx, nIFVs)
			}
		}
		if got, want := small.NumFeatures(), spanWidth(prog, art.Approx.Efficient); got != want {
			return nil, fmt.Errorf("core: artifact approximate model takes %d features but its efficient IFVs produce %d", got, want)
		}
		approx := &cascade.Approx{
			Prog:      prog,
			Small:     small,
			Efficient: append([]int(nil), art.Approx.Efficient...),
			Rest:      append([]int(nil), art.Approx.Rest...),
			Stats:     make([]cascade.IFVStat, len(art.Approx.Stats)),
		}
		for i, s := range art.Approx.Stats {
			approx.Stats[i] = cascade.IFVStat{
				Index:      s.Index,
				Importance: float64(s.Importance),
				Cost:       float64(s.Cost),
			}
		}
		o.Approx = approx
		if art.Cascade != nil {
			o.Cascade = cascade.Restore(approx, m,
				float64(art.Cascade.Threshold),
				float64(art.Cascade.FullAccuracy),
				float64(art.Cascade.CascadeAccuracy))
		}
	}
	if o.opts.TopK {
		if o.Approx == nil {
			return nil, fmt.Errorf("core: artifact enables top-K but carries no filter model")
		}
		o.Filter = topk.NewFilter(o.Approx, m, topk.Config{CK: o.opts.CK, MinSubsetFrac: o.opts.MinSubsetFrac})
	}
	applyLoadedCachePlan(prog, art.Options)
	return o, nil
}

// spanWidth sums the column widths of the given IFVs of a fitted program.
func spanWidth(prog *weld.Program, ifvs []int) int {
	w := 0
	for _, i := range ifvs {
		w += prog.Spans[i].Width()
	}
	return w
}

// applyLoadedCachePlan re-installs a loaded artifact's feature-cache layout.
// Planner-written artifacts (FeatureCachePlanned) replay their recorded plan
// verbatim — an empty plan means the planner deliberately cached nothing
// (e.g. every generator was uncacheable), not that information is missing.
// Pre-planner artifacts carry only the flat fields and map onto the same
// spec path: one spec of FeatureCacheCapacity per IFV.
func applyLoadedCachePlan(prog *weld.Program, opts artifact.Options) {
	if !opts.FeatureCache {
		return
	}
	var specs []weld.CacheSpec
	if opts.FeatureCachePlanned {
		for _, sp := range opts.FeatureCachePlan {
			specs = append(specs, weld.CacheSpec{IFV: sp.IFV, Capacity: sp.Capacity})
		}
	} else {
		for _, i := range prog.AllIFVs() {
			specs = append(specs, weld.CacheSpec{IFV: i, Capacity: opts.FeatureCacheCapacity})
		}
	}
	prog.EnableFeatureCachingSpecs(specs)
}

// encodeCachePlan converts the program's active cache plan to its artifact
// form (nil when caching is off).
func encodeCachePlan(specs []weld.CacheSpec) []artifact.CacheSpec {
	if len(specs) == 0 {
		return nil
	}
	out := make([]artifact.CacheSpec, len(specs))
	for i, sp := range specs {
		out[i] = artifact.CacheSpec{IFV: sp.IFV, Capacity: sp.Capacity}
	}
	return out
}

// bindTables attaches caller-supplied tables to every decoded operator
// still needing one, failing with the full list of unbound table names so
// the operator of a deployment process sees everything missing at once.
func bindTables(g *graph.Graph, tables map[string]ops.Table, resolve TableResolver) error {
	var missing []string
	resolved := make(map[string]ops.Table)
	for _, n := range g.Nodes() {
		if n.IsSource() {
			continue
		}
		tb, ok := n.Op.(TableBinder)
		if !ok || !tb.NeedsTable() {
			continue
		}
		name := tb.TableRef()
		t, have := tables[name]
		if !have {
			t, have = resolved[name]
		}
		if !have && resolve != nil {
			rt, err := resolve(name)
			if err != nil {
				return fmt.Errorf("core: resolving table %q: %w", name, err)
			}
			if rt != nil {
				t, have = rt, true
				resolved[name] = rt
			}
		}
		if !have {
			missing = append(missing, name)
			continue
		}
		if err := tb.BindTable(t); err != nil {
			return fmt.Errorf("core: binding table %q: %w", name, err)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("core: artifact references external tables %q: bind them at load time", missing)
	}
	return nil
}

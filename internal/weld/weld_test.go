package weld

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"willump/internal/feature"
	"willump/internal/graph"
	"willump/internal/ops"
	"willump/internal/value"
)

// textPipeline builds a Toxic-style two-generator text graph:
// text -> clean -> tok -> ngram -> tfidf  (generator 0)
//
//	\--> stats                      (generator 1)
//
// concat(tfidf, stats)
func textPipeline(t *testing.T) (*graph.Graph, map[string]value.Value) {
	t.Helper()
	docs := []string{
		"good dog plays fetch", "bad cat is bad", "the quick brown fox",
		"bad weather today", "nice sunny day", "dogs and cats living together",
	}
	return textGraph(t, nil), map[string]value.Value{"text": value.NewStrings(docs)}
}

// textGraph is the text pipeline's graph, word TF-IDF (a CSR root) beside
// TextStats (a dense one), with spine, when set, over their concatenation.
func textGraph(t *testing.T, spine graph.Op) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	text := b.Input("text")
	clean := b.Add("clean", ops.NewClean(), text)
	tok := b.Add("tok", ops.NewTokenize(), clean)
	ng := b.Add("ngram", ops.NewWordNGrams(1, 2), tok)
	tfidf := b.Add("tfidf", ops.NewTFIDF(64, ops.NormL2), ng)
	stats := b.Add("stats", ops.NewTextStats([]string{"bad"}), text)
	out := b.Add("concat", ops.NewConcat(), tfidf, stats)
	if spine != nil {
		out = b.Add("spine", spine, out)
	}
	b.SetOutput(out)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// lookupPipeline builds a MusicRec-style graph with two local lookup tables.
func lookupPipeline(t *testing.T) (*graph.Graph, map[string]value.Value, *ops.LocalTable, *ops.LocalTable) {
	t.Helper()
	userTable := ops.NewLocalTable(2, map[int64][]float64{
		0: {0.1, 0.2}, 1: {1.1, 1.2}, 2: {2.1, 2.2},
	})
	songTable := ops.NewLocalTable(3, map[int64][]float64{
		0: {10, 11, 12}, 1: {20, 21, 22},
	})
	b := graph.NewBuilder()
	user := b.Input("user")
	song := b.Input("song")
	uf := b.Add("user_features", ops.NewLookup("users", userTable), user)
	sf := b.Add("song_features", ops.NewLookup("songs", songTable), song)
	cat := b.Add("concat", ops.NewConcat(), uf, sf)
	b.SetOutput(cat)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	inputs := map[string]value.Value{
		"user": value.NewInts([]int64{0, 1, 2, 0, 1}),
		"song": value.NewInts([]int64{0, 1, 0, 1, 0}),
	}
	return g, inputs, userTable, songTable
}

func fitProgram(t *testing.T, g *graph.Graph, inputs map[string]value.Value) (*Program, feature.Matrix) {
	t.Helper()
	p, err := Compile(g)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	out, err := p.Fit(context.Background(), inputs)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	m, err := out.AsMatrix()
	if err != nil {
		t.Fatalf("output: %v", err)
	}
	return p, m
}

func matricesClose(t *testing.T, a, b feature.Matrix, tol float64) {
	t.Helper()
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		t.Fatalf("shape (%d,%d) != (%d,%d)", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	for r := 0; r < a.Rows(); r++ {
		for c := 0; c < a.Cols(); c++ {
			if math.Abs(a.At(r, c)-b.At(r, c)) > tol {
				t.Fatalf("(%d,%d): %v != %v", r, c, a.At(r, c), b.At(r, c))
			}
		}
	}
}

func TestFitProducesTrainingMatrix(t *testing.T) {
	g, inputs := textPipeline(t)
	p, m := fitProgram(t, g, inputs)
	if m.Rows() != 6 {
		t.Fatalf("rows = %d, want 6", m.Rows())
	}
	if m.Cols() < 5 {
		t.Fatalf("cols = %d, want tfidf width + 4 stats", m.Cols())
	}
	if len(p.Spans) != 2 {
		t.Fatalf("spans = %v, want 2 IFVs", p.Spans)
	}
	if p.Spans[1].Width() != 4 {
		t.Errorf("stats IFV width = %d, want 4", p.Spans[1].Width())
	}
	if !p.Fitted() {
		t.Error("Fitted() = false after Fit")
	}
}

func TestCompiledMatchesFitOutput(t *testing.T) {
	g, inputs := textPipeline(t)
	p, want := fitProgram(t, g, inputs)
	got, err := p.RunBatch(context.Background(), inputs)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	matricesClose(t, got, want, 1e-12)
}

func TestInterpretedMatchesCompiled(t *testing.T) {
	g, inputs := textPipeline(t)
	p, want := fitProgram(t, g, inputs)
	got, err := p.RunInterpreted(context.Background(), inputs)
	if err != nil {
		t.Fatalf("RunInterpreted: %v", err)
	}
	matricesClose(t, got, want, 1e-9)
}

func TestInterpretedMatchesCompiledLookups(t *testing.T) {
	g, inputs, _, _ := lookupPipeline(t)
	p, want := fitProgram(t, g, inputs)
	got, err := p.RunInterpreted(context.Background(), inputs)
	if err != nil {
		t.Fatalf("RunInterpreted: %v", err)
	}
	matricesClose(t, got, want, 1e-12)
}

func TestFusionHappensAndMatches(t *testing.T) {
	g, inputs := textPipeline(t)
	p, want := fitProgram(t, g, inputs)
	// After Fit, the clean->tok->ngram->tfidf chain should be fused into one
	// step: plan steps < graph transformation nodes.
	fusedSteps := 0
	for _, st := range p.Steps {
		if len(st.nodes) > 1 {
			fusedSteps++
		}
	}
	if fusedSteps == 0 {
		t.Error("no fused steps produced for a canonical text chain")
	}
	got, err := p.RunBatch(context.Background(), inputs)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	matricesClose(t, got, want, 1e-12)
}

func TestSubsetIFVMatrix(t *testing.T) {
	g, inputs, userTable, songTable := lookupPipeline(t)
	p, full := fitProgram(t, g, inputs)
	r, err := p.NewRun(context.Background(), inputs)
	if err != nil {
		t.Fatalf("NewRun: %v", err)
	}
	m0, err := r.MatrixShared([]int{0})
	if err != nil {
		t.Fatalf("MatrixShared([0]): %v", err)
	}
	if m0.Cols() != 2 {
		t.Fatalf("IFV 0 cols = %d, want 2 (user features)", m0.Cols())
	}
	for row := 0; row < m0.Rows(); row++ {
		for c := 0; c < 2; c++ {
			if m0.At(row, c) != full.At(row, c) {
				t.Fatalf("subset matrix differs at (%d,%d)", row, c)
			}
		}
	}
	// Computing only IFV 0 must not touch the song table.
	songBefore := songTable.Requests()
	r2, _ := p.NewRun(context.Background(), inputs)
	if _, err := r2.MatrixShared([]int{0}); err != nil {
		t.Fatal(err)
	}
	if songTable.Requests() != songBefore {
		t.Error("computing user IFV touched the song table")
	}
	_ = userTable
}

func TestResumeRunCompletesFullMatrix(t *testing.T) {
	g, inputs, _, _ := lookupPipeline(t)
	p, full := fitProgram(t, g, inputs)
	r, err := p.NewRun(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.MatrixShared([]int{0}); err != nil {
		t.Fatal(err)
	}
	// Resume: computing the rest must reuse IFV 0 and produce the full matrix.
	m, err := r.MatrixShared(p.AllIFVs())
	if err != nil {
		t.Fatal(err)
	}
	matricesClose(t, m, full, 1e-12)
}

func TestSubsetRunGathersComputedState(t *testing.T) {
	g, inputs, userTable, _ := lookupPipeline(t)
	p, full := fitProgram(t, g, inputs)
	r, err := p.NewRun(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.MatrixShared([]int{0}); err != nil {
		t.Fatal(err)
	}
	userReqsBefore := userTable.Requests()
	sub := r.SubsetRun([]int{1, 3})
	m, err := sub.MatrixShared(p.AllIFVs())
	if err != nil {
		t.Fatal(err)
	}
	if userTable.Requests() != userReqsBefore {
		t.Error("subset run recomputed the already-computed user IFV")
	}
	if m.Rows() != 2 {
		t.Fatalf("rows = %d, want 2", m.Rows())
	}
	for c := 0; c < m.Cols(); c++ {
		if m.At(0, c) != full.At(1, c) || m.At(1, c) != full.At(3, c) {
			t.Fatalf("subset row mismatch at col %d", c)
		}
	}
}

func TestFeatureCachingReducesTableRequests(t *testing.T) {
	g, inputs, userTable, songTable := lookupPipeline(t)
	p, full := fitProgram(t, g, inputs)
	p.EnableFeatureCachingSpecs([]CacheSpec{{IFV: 0}, {IFV: 1}})
	reqU := userTable.Requests()
	reqS := songTable.Requests()
	got, err := p.RunBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	matricesClose(t, got, full, 1e-12)
	// Batch has users {0,1,2,0,1}: first run misses 3 unique keys.
	if delta := userTable.Requests() - reqU; delta != 3 {
		t.Errorf("user lookups = %d, want 3 (unique keys only)", delta)
	}
	if delta := songTable.Requests() - reqS; delta != 2 {
		t.Errorf("song lookups = %d, want 2", delta)
	}
	// Second identical run: all hits, zero new requests.
	reqU = userTable.Requests()
	got2, err := p.RunBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	matricesClose(t, got2, full, 1e-12)
	if userTable.Requests() != reqU {
		t.Error("second run should be fully served from the feature cache")
	}
	if p.FeatureCacheStats().Hits == 0 {
		t.Error("cache reported no hits")
	}
}

func TestPointParallelMatchesSequential(t *testing.T) {
	g, inputs := textPipeline(t)
	p, _ := fitProgram(t, g, inputs)
	point := map[string]value.Value{"text": value.NewStrings([]string{"bad dog bad"})}
	seq, err := p.RunBatch(context.Background(), point)
	if err != nil {
		t.Fatal(err)
	}
	ForceFanOut(t, p, 4)
	r, err := p.NewRun(context.Background(), point)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ComputeIFVsParallel(p.AllIFVs()); err != nil {
		t.Fatal(err)
	}
	par, err := r.MatrixShared(p.AllIFVs())
	if err != nil {
		t.Fatal(err)
	}
	matricesClose(t, par, seq, 1e-12)
}

func TestBatchShardedMatchesSequential(t *testing.T) {
	g, inputs := textPipeline(t)
	p, want := fitProgram(t, g, inputs)
	ForceFanOut(t, p, 3)
	r, err := p.NewRun(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := shardRows(r, nil, p.AllIFVs())
	if err != nil {
		t.Fatal(err)
	}
	matricesClose(t, got, want, 1e-12)
}

// countingClean is ops.Clean counting the rows it is handed, on every path.
type countingClean struct {
	*ops.Clean
	rows *atomic.Int64
}

func (c countingClean) Apply(ins []value.Value) (value.Value, error) {
	c.rows.Add(int64(ins[0].Len()))
	return c.Clean.Apply(ins)
}

func (c countingClean) ApplyInto(ins []value.Value, out *value.Value, scratch *any) error {
	c.rows.Add(int64(ins[0].Len()))
	return c.Clean.ApplyInto(ins, out, scratch)
}

func (c countingClean) ApplyBoxed(ins []any) (any, error) {
	c.rows.Add(1)
	return c.Clean.ApplyBoxed(ins)
}

// sharedCleanPipeline builds the Toxic topology: a counting clean as the
// shared preprocessing node of a word generator (IFV 0) and a char generator
// (IFV 1), beside a cheap generator that reads the raw text (IFV 2).
func sharedCleanPipeline(t *testing.T) (*graph.Graph, map[string]value.Value, *atomic.Int64) {
	t.Helper()
	rows := new(atomic.Int64)
	b := graph.NewBuilder()
	text := b.Input("text")
	clean := b.Add("clean", countingClean{ops.NewClean(), rows}, text)
	word := b.Add("word_tfidf", ops.NewTFIDF(64, ops.NormL2),
		b.Add("ngram", ops.NewWordNGrams(1, 2), b.Add("tok", ops.NewTokenize(), clean)))
	char := b.Add("char_tfidf", ops.NewTFIDF(64, ops.NormL2), b.Add("chars", ops.NewCharNGrams(2, 3), clean))
	stats := b.Add("stats", ops.NewTextStats([]string{"bad"}), text)
	b.SetOutput(b.Add("concat", ops.NewConcat(), word, char, stats))
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	docs := []string{
		"Good dog plays fetch", "BAD cat is bad!", "the quick brown fox", "bad weather today",
		"nice sunny day", "BAD cat is bad!", "dogs and cats, living together", "the quick brown fox",
	}
	return g, map[string]value.Value{"text": value.NewStrings(docs)}, rows
}

// TestPreprocessingRunsOnDemand pins, by counting rows, that a preprocessing
// node runs when — and for the rows for which — an IFV descending from it is
// first computed: never for an efficient set that does not read it, on the
// hard rows alone after a cascade-style resume, on the distinct missed keys
// alone under a feature cache, and once per run however many generators
// share it or workers compute them.
func TestPreprocessingRunsOnDemand(t *testing.T) {
	g, in, cleaned := sharedCleanPipeline(t)
	p, want := fitProgram(t, g, in)
	if len(p.A.Preprocessing) != 1 || len(p.A.IFVs) != 3 {
		t.Fatalf("analysis found %d preprocessing nodes and %d IFVs, want 1 and 3", len(p.A.Preprocessing), len(p.A.IFVs))
	}
	n := in["text"].Len()
	ctx := context.Background()
	// counted runs body on a fresh run over in and returns the rows clean saw.
	counted := func(body func(r *BatchRun)) int64 {
		t.Helper()
		r, err := p.NewRun(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		cleaned.Store(0)
		body(r)
		return cleaned.Load()
	}
	assemble := func(r *BatchRun, idx []int) feature.Matrix {
		t.Helper()
		m, err := r.MatrixShared(idx)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	hard := []int{1, 4, 6}
	if got := counted(func(r *BatchRun) {
		assemble(r, []int{2})
		if got := cleaned.Load(); got != 0 {
			t.Errorf("efficient-only MatrixShared cleaned %d rows, want 0", got)
		}
		sub := r.SubsetRun(hard)
		defer sub.Close()
		m := assemble(sub, p.AllIFVs())
		for k, row := range hard {
			for c := 0; c < m.Cols(); c++ {
				if m.At(k, c) != want.At(row, c) {
					t.Fatalf("resumed hard row %d differs at column %d", row, c)
				}
			}
		}
	}); got != int64(len(hard)) {
		t.Errorf("cascade-style resume cleaned %d rows, want the %d hard rows", got, len(hard))
	}

	if got := counted(func(r *BatchRun) { matricesClose(t, assemble(r, p.AllIFVs()), want, 0) }); got != int64(n) {
		t.Errorf("MatrixShared(all) cleaned %d rows, want %d (once for both generators)", got, n)
	}

	for _, workers := range []int{1, 3} {
		ForceFanOut(t, p, workers)
		if got := counted(func(r *BatchRun) {
			m, err := shardRows(r, nil, p.AllIFVs())
			if err != nil {
				t.Fatal(err)
			}
			matricesClose(t, m, want, 0)
		}); got != int64(n) {
			t.Errorf("batch on %d workers cleaned %d rows, want %d", workers, got, n)
		}
		point := map[string]value.Value{"text": value.NewStrings(in["text"].Strings[1:2])}
		r, err := p.NewRun(ctx, point)
		if err != nil {
			t.Fatal(err)
		}
		cleaned.Store(0)
		if err := r.ComputeIFVsParallel(p.AllIFVs()); err != nil {
			t.Fatal(err)
		}
		m, err := r.PointMatrix(p.AllIFVs())
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < m.Cols(); c++ {
			if m.At(0, c) != want.At(1, c) {
				t.Fatalf("point on %d workers differs at column %d", workers, c)
			}
		}
		r.Close()
		if got := cleaned.Load(); got != 1 {
			t.Errorf("point on %d workers cleaned %d rows, want 1", workers, got)
		}
	}

	// A feature cache on the word IFV: a cold batch cleans one row per
	// distinct missed key (6 distinct documents among the 8), a warm one none.
	p.EnableFeatureCachingSpecs([]CacheSpec{{IFV: 0}})
	defer p.DisableFeatureCaching()
	if got := counted(func(r *BatchRun) { assemble(r, []int{0}) }); got != 6 {
		t.Errorf("cold cached IFV cleaned %d rows, want 6 (distinct miss keys)", got)
	}
	if got := counted(func(r *BatchRun) { assemble(r, []int{0}) }); got != 0 {
		t.Errorf("warm cached IFV cleaned %d rows, want 0", got)
	}
	point := map[string]value.Value{"text": value.NewStrings([]string{"never seen before"})}
	for _, wantRows := range []int64{1, 0} { // point miss, then point hit
		r, err := p.NewRun(ctx, point)
		if err != nil {
			t.Fatal(err)
		}
		cleaned.Store(0)
		if _, err := r.PointMatrix([]int{0}); err != nil {
			t.Fatal(err)
		}
		r.Close()
		if got := cleaned.Load(); got != wantRows {
			t.Errorf("cached point query cleaned %d rows, want %d", got, wantRows)
		}
	}
}

func TestPythonNodeDriverAccounting(t *testing.T) {
	// Insert a non-compilable op and confirm driver time is recorded and the
	// result still matches the interpreted reference.
	b := graph.NewBuilder()
	x := b.Input("x")
	ns := b.Add("stats", ops.NewNumericStats(), x)
	py := b.Add("py_clip", pythonClip{}, ns)
	cat := b.Add("concat", ops.NewConcat(), py)
	b.SetOutput(cat)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i%200) - 100
	}
	inputs := map[string]value.Value{"x": value.NewFloats(xs)}
	p, fitOut := fitProgram(t, g, inputs)
	got, err := p.RunBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	matricesClose(t, got, fitOut, 1e-12)
	if p.Prof.DriverSeconds() <= 0 {
		t.Error("no driver time recorded crossing a Python node during compiled execution")
	}
	interp, err := p.RunInterpreted(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	matricesClose(t, interp, fitOut, 1e-12)
}

// pythonClip is a non-compilable clip used to exercise the driver path.
type pythonClip struct{}

func (pythonClip) Name() string      { return "python_clip" }
func (pythonClip) Compilable() bool  { return false }
func (pythonClip) Commutative() bool { return false }
func (pythonClip) Apply(ins []value.Value) (value.Value, error) {
	return ops.NewClip(-10, 10).Apply(ins)
}
func (pythonClip) ApplyBoxed(ins []any) (any, error) {
	return ops.NewClip(-10, 10).ApplyBoxed(ins)
}

func TestProfileCostsPopulated(t *testing.T) {
	g, inputs := textPipeline(t)
	p, _ := fitProgram(t, g, inputs)
	total := 0.0
	for i := range p.A.IFVs {
		c := p.Prof.IFVCost(p.A, i)
		if c < 0 {
			t.Errorf("IFV %d cost negative", i)
		}
		total += c
	}
	if total <= 0 {
		t.Error("no IFV costs recorded during Fit")
	}
}

func TestRunBeforeFitErrors(t *testing.T) {
	g, inputs := textPipeline(t)
	p, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.NewRun(context.Background(), inputs); err == nil {
		t.Error("want error running before Fit")
	}
}

func TestMissingInputErrors(t *testing.T) {
	g, inputs := textPipeline(t)
	p, _ := fitProgram(t, g, inputs)
	if _, err := p.RunBatch(context.Background(), map[string]value.Value{}); err == nil {
		t.Error("want error for missing input")
	}
	if _, err := p.RunBatch(context.Background(), map[string]value.Value{"wrong": value.NewStrings([]string{"x"})}); err == nil {
		t.Error("want error for misnamed input")
	}
}

func TestSpineElementwiseOpAppliedPerIFV(t *testing.T) {
	// clip(concat(a, b)) must equal concat(clip(a), clip(b)); the subset path
	// applies clip per IFV.
	b := graph.NewBuilder()
	x := b.Input("x")
	y := b.Input("y")
	nx := b.Add("nx", ops.NewNumericStats(), x)
	ny := b.Add("ny", ops.NewNumericStats(), y)
	cat := b.Add("concat", ops.NewConcat(), nx, ny)
	clip := b.Add("clip", ops.NewClip(-2, 2), cat)
	b.SetOutput(clip)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]value.Value{
		"x": value.NewFloats([]float64{-5, 1, 7}),
		"y": value.NewFloats([]float64{3, -9, 0}),
	}
	p, want := fitProgram(t, g, inputs)
	got, err := p.RunBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	matricesClose(t, got, want, 1e-12)
	// And the interpreted path agrees too.
	interp, err := p.RunInterpreted(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	matricesClose(t, interp, want, 1e-12)
}

// passthrough is a compilable operator with only Apply that returns its
// input column itself, so the slot it fills holds caller memory.
type passthrough struct{}

func (passthrough) Name() string                                 { return "passthrough" }
func (passthrough) Compilable() bool                             { return true }
func (passthrough) Commutative() bool                            { return false }
func (passthrough) Apply(ins []value.Value) (value.Value, error) { return ins[0], nil }
func (passthrough) ApplyBoxed(ins []any) (any, error)            { return ins[0], nil }

// passthroughPipeline builds concat(passthrough(x), passthrough(y)) over a
// float and an int column: two IFVs whose roots are scalar columns.
func passthroughPipeline(t *testing.T) (*graph.Graph, map[string]value.Value) {
	t.Helper()
	b := graph.NewBuilder()
	cat := b.Add("concat", ops.NewConcat(),
		b.Add("px", passthrough{}, b.Input("x")),
		b.Add("py", passthrough{}, b.Input("y")))
	b.SetOutput(cat)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g, map[string]value.Value{
		"x": value.NewFloats([]float64{0.5, 1.5, 2.5, 3.5}),
		"y": value.NewInts([]int64{1, 2, 3, 4}),
	}
}

// TestPooledSubsetRunNeverWritesCallerColumns: an operator that has only
// Apply may hand its input back, leaving a caller's column in the slot. A
// pooled state must neither keep that column past Close nor gather a later
// sub-run's rows into it.
func TestPooledSubsetRunNeverWritesCallerColumns(t *testing.T) {
	g, fit := passthroughPipeline(t)
	p, _ := fitProgram(t, g, fit)
	batch := func(base float64) map[string]value.Value {
		return map[string]value.Value{
			"x": value.NewFloats([]float64{base, base + 1, base + 2, base + 3}),
			"y": value.NewInts([]int64{int64(base), int64(base) + 1, int64(base) + 2, int64(base) + 3}),
		}
	}
	ctx := context.Background()
	a, bb, c := batch(100), batch(200), batch(500)
	var live []*BatchRun
	for _, in := range []map[string]value.Value{a, bb} {
		r, err := p.NewRun(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.MatrixShared(p.AllIFVs()); err != nil {
			t.Fatal(err)
		}
		live = append(live, r)
	}
	for _, r := range live {
		r.Close()
	}
	r, err := p.NewRun(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.MatrixShared(p.AllIFVs()); err != nil {
		t.Fatal(err)
	}
	sub := r.SubsetRun([]int{3, 2})
	defer sub.Close()
	m, err := sub.MatrixShared(p.AllIFVs())
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 503 || m.At(1, 0) != 502 || m.At(0, 1) != 503 || m.At(1, 1) != 502 {
		t.Errorf("subset rows = [%v %v; %v %v], want [503 503; 502 502]", m.At(0, 0), m.At(0, 1), m.At(1, 0), m.At(1, 1))
	}
	for base, in := range map[float64]map[string]value.Value{100: a, 200: bb, 500: c} {
		if want := batch(base); !reflect.DeepEqual(in, want) {
			t.Errorf("caller batch %v overwritten: x = %v, y = %v", base, in["x"].Floats, in["y"].Ints)
		}
	}
}

// owned copies a run's shared matrix so it survives the run.
func owned(m feature.Matrix) feature.Matrix {
	rows := make([]int, m.Rows())
	for i := range rows {
		rows[i] = i
	}
	return m.Gather(rows)
}

// execModes are the surviving ways to drive a compiled plan; each returns
// the full feature matrix of in, rows in input order.
var execModes = []struct {
	name string
	run  func(p *Program, in map[string]value.Value, n int, rng *rand.Rand) (feature.Matrix, error)
}{
	{"batch", func(p *Program, in map[string]value.Value, n int, _ *rand.Rand) (feature.Matrix, error) {
		return p.RunBatch(context.Background(), in)
	}},
	{"subset-permutation", func(p *Program, in map[string]value.Value, n int, rng *rand.Rand) (feature.Matrix, error) {
		r, err := p.NewRun(context.Background(), in)
		if err != nil {
			return nil, err
		}
		defer r.Close()
		perm := rng.Perm(n)
		sub := r.SubsetRun(perm)
		defer sub.Close()
		m, err := sub.MatrixShared(p.AllIFVs())
		if err != nil {
			return nil, err
		}
		inv := make([]int, n)
		for k, row := range perm {
			inv[row] = k
		}
		return m.Gather(inv), nil
	}},
	{"row-parallel", func(p *Program, in map[string]value.Value, n int, _ *rand.Rand) (feature.Matrix, error) {
		p.Workers = 3
		return runWith(p, in, func(r *BatchRun) (feature.Matrix, error) {
			return shardRows(r, nil, p.AllIFVs())
		})
	}},
	{"point-by-point", func(p *Program, in map[string]value.Value, n int, _ *rand.Rand) (feature.Matrix, error) {
		return pointwise(p, in, n, 1)
	}},
	{"ifv-parallel-point", func(p *Program, in map[string]value.Value, n int, _ *rand.Rand) (feature.Matrix, error) {
		return pointwise(p, in, n, 2)
	}},
	{"efficient-then-all", func(p *Program, in map[string]value.Value, n int, _ *rand.Rand) (feature.Matrix, error) {
		return runWith(p, in, func(r *BatchRun) (feature.Matrix, error) {
			if _, err := r.MatrixShared([]int{0}); err != nil {
				return nil, err
			}
			return r.MatrixShared(p.AllIFVs())
		})
	}},
	{"cached-cold-warm", func(p *Program, in map[string]value.Value, n int, _ *rand.Rand) (feature.Matrix, error) {
		specs := make([]CacheSpec, len(p.A.IFVs))
		for i := range specs {
			specs[i] = CacheSpec{IFV: i, Capacity: 3} // small: the warm pass mixes hits, misses and evictions
		}
		p.EnableFeatureCachingSpecs(specs)
		defer p.DisableFeatureCaching()
		cold, err := p.RunBatch(context.Background(), in)
		if err != nil {
			return nil, err
		}
		warm, err := p.RunBatch(context.Background(), in)
		if err != nil {
			return nil, err
		}
		if !feature.Equal(cold, warm) {
			return nil, fmt.Errorf("warm cached result differs from cold")
		}
		return warm, nil
	}},
}

// runWith drives one pooled run over in and returns a copy of what body
// assembled.
func runWith(p *Program, in map[string]value.Value, body func(*BatchRun) (feature.Matrix, error)) (feature.Matrix, error) {
	r, err := p.NewRun(context.Background(), in)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	m, err := body(r)
	if err != nil {
		return nil, err
	}
	return owned(m), nil
}

// pointwise answers in one row at a time through PointMatrix, with the IFVs
// spread over at most workers threads.
func pointwise(p *Program, in map[string]value.Value, n, workers int) (feature.Matrix, error) {
	p.Workers = workers
	rows := make([][]float64, n)
	for row := range rows {
		point := make(map[string]value.Value, len(in))
		for k, v := range in {
			point[k] = v.Gather([]int{row})
		}
		m, err := runWith(p, point, func(r *BatchRun) (feature.Matrix, error) {
			if err := r.ComputeIFVsParallel(p.AllIFVs()); err != nil {
				return nil, err
			}
			return r.PointMatrix(p.AllIFVs())
		})
		if err != nil {
			return nil, err
		}
		rows[row] = feature.RowDense(m, 0, nil)
	}
	return feature.DenseFromRows(rows), nil
}

// Property: every way of driving the compiled plan agrees with the
// interpreted reference on random batches — text generators, lookup
// generators, two text generators behind a shared preprocessing node, scalar
// IFV roots from operators that have only Apply, and a plan whose spine
// needs the generic Apply branch —
// including 1-row batches and the empty batch (where the reference has no
// width to compare, so only the row count is checked). The fused mode
// scores with a random linear model through BatchRun.Score, over every IFV
// and over a random subset: to the bit what the assembled matrix scores,
// and within 1e-9 of the interpreted matrix's dot products.
func TestCompiledInterpretedAgreeProperty(t *testing.T) {
	words := []string{"bad", "dog", "cat", "fox", "sun", "rain", "good", "day"}
	tg, tin := textPipeline(t)
	tp, _ := fitProgram(t, tg, tin)
	lg, lin, _, _ := lookupPipeline(t)
	lp, _ := fitProgram(t, lg, lin)

	// clip(concat(stats(x), stats(y))) with bounds excluding zero: applying
	// the clip to stored entries only would diverge from Apply, so the plan
	// must take the assembler's generic spine branch.
	b := graph.NewBuilder()
	cat := b.Add("concat", ops.NewConcat(),
		b.Add("nx", ops.NewNumericStats(), b.Input("x")),
		b.Add("ny", ops.NewNumericStats(), b.Input("y")))
	b.SetOutput(b.Add("clip", ops.NewClip(1, 5), cat))
	cg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := fitProgram(t, cg, map[string]value.Value{
		"x": value.NewFloats([]float64{-5, 0, 7}),
		"y": value.NewFloats([]float64{3, -9, 0}),
	})
	if !cp.spineFallback {
		t.Fatal("clip with bounds excluding zero did not select the generic spine branch")
	}

	pg, pin := passthroughPipeline(t)
	pp, _ := fitProgram(t, pg, pin)

	sg, sin, _ := sharedCleanPipeline(t)
	sp, _ := fitProgram(t, sg, sin)

	textDocs := func(rng *rand.Rand, n int) map[string]value.Value {
		docs := make([]string, n)
		for i := range docs {
			k := 1 + rng.Intn(6)
			s := ""
			for j := 0; j < k; j++ {
				if j > 0 {
					s += " "
				}
				s += words[rng.Intn(len(words))]
			}
			docs[i] = s
		}
		return map[string]value.Value{"text": value.NewStrings(docs)}
	}
	plans := []struct {
		name string
		p    *Program
		gen  func(rng *rand.Rand, n int) map[string]value.Value
	}{
		{"scalar-roots", pp, func(rng *rand.Rand, n int) map[string]value.Value {
			x, y := make([]float64, n), make([]int64, n)
			for i := range x {
				x[i], y[i] = rng.Float64(), int64(rng.Intn(9))
			}
			return map[string]value.Value{"x": value.NewFloats(x), "y": value.NewInts(y)}
		}},
		{"text", tp, textDocs},
		{"shared-preprocessing", sp, textDocs},
		{"lookup", lp, func(rng *rand.Rand, n int) map[string]value.Value {
			users, songs := make([]int64, n), make([]int64, n)
			for i := range users {
				users[i], songs[i] = int64(rng.Intn(3)), int64(rng.Intn(2))
			}
			return map[string]value.Value{"user": value.NewInts(users), "song": value.NewInts(songs)}
		}},
		{"spine-fallback", cp, func(rng *rand.Rand, n int) map[string]value.Value {
			x, y := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i], y[i] = float64(rng.Intn(17)-8), float64(rng.Intn(17)-8)
			}
			return map[string]value.Value{"x": value.NewFloats(x), "y": value.NewFloats(y)}
		}},
	}
	rng := rand.New(rand.NewSource(99))
	for _, plan := range plans {
		ForceFanOut(t, plan.p, 1) // the parallel modes set their own width
		for trial := 0; trial < 20; trial++ {
			n := trial // 0 and 1 first, then random sizes
			if trial > 1 {
				n = 1 + rng.Intn(7)
			}
			in := plan.gen(rng, n)
			var want feature.Matrix
			if n > 0 {
				var err error
				if want, err = plan.p.RunInterpreted(context.Background(), in); err != nil {
					t.Fatal(err)
				}
			}
			for _, mode := range execModes {
				got, err := mode.run(plan.p, in, n, rng)
				if err != nil {
					t.Fatalf("%s/%s n=%d: %v", plan.name, mode.name, n, err)
				}
				if got.Rows() != n {
					t.Fatalf("%s/%s n=%d: %d rows out", plan.name, mode.name, n, got.Rows())
				}
				if n > 0 {
					matricesClose(t, got, want, 1e-9)
				}
			}
			if n > 0 {
				checkFusedMode(t, plan.name, plan.p, in, want, rng)
			}
		}
	}
}

// checkFusedMode is the property's fused mode over one batch.
func checkFusedMode(t *testing.T, name string, p *Program, in map[string]value.Value, want feature.Matrix, rng *rand.Rand) {
	t.Helper()
	w := make([]float64, want.Cols())
	for c := range w {
		w[c] = rng.NormFloat64()
	}
	m := linearModel(t, false, w, 0.5)
	subset := []int{}
	for _, i := range p.AllIFVs() {
		if rng.Intn(2) == 0 {
			subset = append(subset, i)
		}
	}
	for _, idx := range [][]int{p.AllIFVs(), subset} {
		r, err := p.NewRun(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Score(idx, m)
		if err != nil {
			t.Fatalf("%s/fused: %v", name, err)
		}
		requireBits(t, name+"/fused", got, assembledScores(t, p, in, idx, m))
		if len(idx) == len(p.AllIFVs()) {
			for k, z := range got {
				if ref := feature.Dot(want, k, w) + 0.5; math.Abs(z-ref) > 1e-9 {
					t.Fatalf("%s/fused: row %d scores %v, interpreted %v", name, k, z, ref)
				}
			}
		}
		r.Close()
	}
}

// TestParallelPythonStepsRaceFree pins the per-step driver-buffer contract:
// two non-compilable feature generators executed by ComputeIFVsParallel
// must not share interpreted-boundary scratch (run with -race to enforce),
// and the parallel result must match sequential execution exactly.
func TestParallelPythonStepsRaceFree(t *testing.T) {
	b := graph.NewBuilder()
	a := b.Input("a")
	c := b.Input("b")
	g0 := b.Add("ratio0", ops.NewRatio(), a, c)
	g1 := b.Add("ratio1", ops.NewRatio(), c, a)
	cat := b.Add("concat", ops.NewConcat(), g0, g1)
	b.SetOutput(cat)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	n := 64
	av := make([]float64, n)
	bv := make([]float64, n)
	for i := range av {
		av[i] = float64(i + 1)
		bv[i] = float64(2*i + 3)
	}
	inputs := map[string]value.Value{"a": value.NewFloats(av), "b": value.NewFloats(bv)}
	if _, err := p.Fit(context.Background(), inputs); err != nil {
		t.Fatal(err)
	}
	// One row puts both python generators on one state (generator-parallel);
	// the whole batch runs them on row shards (row-parallel).
	ForceFanOut(t, p, 2)
	point := map[string]value.Value{"a": value.NewFloats(av[:1]), "b": value.NewFloats(bv[:1])}
	for _, in := range []map[string]value.Value{point, inputs} {
		want, err := p.RunBatch(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 20; rep++ {
			r, err := p.NewRun(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			var got feature.Matrix
			if in["a"].Len() == 1 {
				if err = r.ComputeIFVsParallel(p.AllIFVs()); err == nil {
					got, err = r.MatrixShared(p.AllIFVs())
				}
			} else {
				got, err = shardRows(r, nil, p.AllIFVs())
			}
			if err != nil {
				t.Fatal(err)
			}
			if !feature.Equal(want, got) {
				t.Fatalf("rep %d: parallel python-step result differs from sequential", rep)
			}
			r.Close()
		}
	}
}

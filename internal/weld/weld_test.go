package weld

import (
	"context"
	"math"
	"math/rand"
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
	b := graph.NewBuilder()
	text := b.Input("text")
	clean := b.Add("clean", ops.NewClean(), text)
	tok := b.Add("tok", ops.NewTokenize(), clean)
	ng := b.Add("ngram", ops.NewWordNGrams(1, 2), tok)
	tfidf := b.Add("tfidf", ops.NewTFIDF(64, ops.NormL2), ng)
	stats := b.Add("stats", ops.NewTextStats([]string{"bad"}), text)
	cat := b.Add("concat", ops.NewConcat(), tfidf, stats)
	b.SetOutput(cat)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	docs := []string{
		"good dog plays fetch", "bad cat is bad", "the quick brown fox",
		"bad weather today", "nice sunny day", "dogs and cats living together",
	}
	return g, map[string]value.Value{"text": value.NewStrings(docs)}
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
	m0, err := r.Matrix([]int{0})
	if err != nil {
		t.Fatalf("Matrix([0]): %v", err)
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
	if _, err := r2.Matrix([]int{0}); err != nil {
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
	if _, err := r.Matrix([]int{0}); err != nil {
		t.Fatal(err)
	}
	// Resume: computing the rest must reuse IFV 0 and produce the full matrix.
	m, err := r.Matrix(p.AllIFVs())
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
	if _, err := r.Matrix([]int{0}); err != nil {
		t.Fatal(err)
	}
	userReqsBefore := userTable.Requests()
	sub := r.SubsetRun([]int{1, 3})
	m, err := sub.Matrix(p.AllIFVs())
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
	r, err := p.NewRun(context.Background(), point)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ComputeIFVsParallel(p.AllIFVs(), 4); err != nil {
		t.Fatal(err)
	}
	par, err := r.Matrix(p.AllIFVs())
	if err != nil {
		t.Fatal(err)
	}
	matricesClose(t, par, seq, 1e-12)
}

func TestBatchShardedMatchesSequential(t *testing.T) {
	g, inputs := textPipeline(t)
	p, want := fitProgram(t, g, inputs)
	got, err := p.RunBatchSharded(context.Background(), inputs, 3)
	if err != nil {
		t.Fatal(err)
	}
	matricesClose(t, got, want, 1e-12)
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

// Property: compiled and interpreted agree on random text batches.
func TestCompiledInterpretedAgreeProperty(t *testing.T) {
	g, inputs := textPipeline(t)
	p, _ := fitProgram(t, g, inputs)
	words := []string{"bad", "dog", "cat", "fox", "sun", "rain", "good", "day"}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(5)
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
		in := map[string]value.Value{"text": value.NewStrings(docs)}
		a, err := p.RunBatch(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.RunInterpreted(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		matricesClose(t, a, b, 1e-9)
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
	want, err := p.RunBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 20; rep++ {
		r, err := p.NewRun(context.Background(), inputs)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ComputeIFVsParallel(p.AllIFVs(), 2); err != nil {
			t.Fatal(err)
		}
		got, err := r.MatrixShared(p.AllIFVs())
		if err != nil {
			t.Fatal(err)
		}
		if !feature.Equal(want, got) {
			t.Fatalf("rep %d: parallel python-step result differs from sequential", rep)
		}
		r.Close()
	}
}

package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"willump/internal/value"
)

// fakeOp is a configurable stand-in operator for graph-analysis tests.
type fakeOp struct {
	name        string
	compilable  bool
	commutative bool
}

func (f *fakeOp) Name() string                                 { return f.name }
func (f *fakeOp) Apply(ins []value.Value) (value.Value, error) { return value.Value{}, nil }
func (f *fakeOp) ApplyBoxed(ins []any) (any, error)            { return nil, nil }
func (f *fakeOp) Compilable() bool                             { return f.compilable }
func (f *fakeOp) Commutative() bool                            { return f.commutative }

func op(name string) *fakeOp   { return &fakeOp{name: name, compilable: true} }
func pyOp(name string) *fakeOp { return &fakeOp{name: name} }
func concatOp() *fakeOp        { return &fakeOp{name: "concat", compilable: true, commutative: true} }

// musicRecGraph reproduces the Figure 1 topology: three lookup feature
// generators concatenated ahead of the model.
func musicRecGraph(t *testing.T) (*Graph, NodeID, NodeID, NodeID) {
	t.Helper()
	b := NewBuilder()
	user := b.Input("user")
	song := b.Input("song")
	genre := b.Input("genre")
	uf := b.Add("user_features", op("lookup"), user)
	sf := b.Add("song_features", op("lookup"), song)
	gf := b.Add("genre_features", op("lookup"), genre)
	cat := b.Add("concat", concatOp(), uf, sf, gf)
	b.SetOutput(cat)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g, uf, sf, gf
}

func TestBuildValidation(t *testing.T) {
	b := NewBuilder()
	if _, err := b.Build(); err == nil {
		t.Error("want error when no output set")
	}

	b2 := NewBuilder()
	in := b2.Input("x")
	n := b2.Add("f", op("f"), in)
	b2.Add("orphan", op("g"), in) // unreachable from output
	b2.SetOutput(n)
	if _, err := b2.Build(); err == nil {
		t.Error("want error for unreachable transformation node")
	}

	b3 := NewBuilder()
	x := b3.Input("x")
	y := b3.Add("f", op("f"), x)
	b3.SetOutput(y)
	g, err := b3.Build()
	if err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	if len(g.Sources()) != 1 || g.Output() != y {
		t.Error("graph metadata wrong")
	}
}

func TestAnalyzeMusicRec(t *testing.T) {
	g, uf, sf, gf := musicRecGraph(t)
	a, err := Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(a.IFVs) != 3 {
		t.Fatalf("IFVs = %d, want 3", len(a.IFVs))
	}
	wantRoots := []NodeID{uf, sf, gf}
	for i, ifv := range a.IFVs {
		if ifv.Root != wantRoots[i] {
			t.Errorf("IFV %d root = %d, want %d", i, ifv.Root, wantRoots[i])
		}
		if len(ifv.Nodes) != 1 || ifv.Nodes[0] != wantRoots[i] {
			t.Errorf("IFV %d nodes = %v, want [%d]", i, ifv.Nodes, wantRoots[i])
		}
		if len(ifv.Sources) != 1 {
			t.Errorf("IFV %d sources = %v, want exactly one", i, ifv.Sources)
		}
		if ifv.LeafPos != i {
			t.Errorf("IFV %d leaf pos = %d, want %d", i, ifv.LeafPos, i)
		}
	}
	if len(a.Preprocessing) != 0 {
		t.Errorf("Preprocessing = %v, want none", a.Preprocessing)
	}
	if len(a.Spine) != 1 {
		t.Errorf("Spine = %v, want the concat node only", a.Spine)
	}
}

func TestAnalyzeDeepGeneratorsAndPreprocessing(t *testing.T) {
	// text --clean--> tok --> {ngram1 -> tfidf1, ngram2 -> tfidf2} -> concat
	// clean and tok feed BOTH generators, so they are preprocessing.
	b := NewBuilder()
	text := b.Input("text")
	clean := b.Add("clean", op("clean"), text)
	tok := b.Add("tok", op("tok"), clean)
	ng1 := b.Add("ng1", op("ngram"), tok)
	tf1 := b.Add("tf1", op("tfidf"), ng1)
	ng2 := b.Add("ng2", op("ngram"), tok)
	tf2 := b.Add("tf2", op("tfidf"), ng2)
	cat := b.Add("concat", concatOp(), tf1, tf2)
	b.SetOutput(cat)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	a, err := Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(a.IFVs) != 2 {
		t.Fatalf("IFVs = %d, want 2", len(a.IFVs))
	}
	if a.IFVs[0].Root != tf1 || a.IFVs[1].Root != tf2 {
		t.Errorf("roots = %d,%d want %d,%d", a.IFVs[0].Root, a.IFVs[1].Root, tf1, tf2)
	}
	// Rule 2: ngram nodes belong to their generator.
	if got := a.IFVOf(ng1); got != 0 {
		t.Errorf("IFVOf(ng1) = %d, want 0", got)
	}
	if got := a.IFVOf(ng2); got != 1 {
		t.Errorf("IFVOf(ng2) = %d, want 1", got)
	}
	// Rule 3: clean and tok reach both roots -> preprocessing.
	pre := map[NodeID]bool{}
	for _, id := range a.Preprocessing {
		pre[id] = true
	}
	if !pre[clean] || !pre[tok] {
		t.Errorf("Preprocessing = %v, want to include clean=%d tok=%d", a.Preprocessing, clean, tok)
	}
	if a.IFVOf(clean) != -1 {
		t.Error("preprocessing node assigned to a generator")
	}
}

func TestAnalyzeNonCommutativeOutput(t *testing.T) {
	// Output is not commutative: whole graph is one feature generator.
	b := NewBuilder()
	x := b.Input("x")
	f := b.Add("f", op("f"), x)
	g2 := b.Add("g", op("g"), f)
	b.SetOutput(g2)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	a, err := Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(a.IFVs) != 1 {
		t.Fatalf("IFVs = %d, want 1", len(a.IFVs))
	}
	if a.IFVs[0].Root != g2 {
		t.Errorf("root = %d, want output %d", a.IFVs[0].Root, g2)
	}
	if len(a.IFVs[0].Nodes) != 2 {
		t.Errorf("generator nodes = %v, want both transformation nodes", a.IFVs[0].Nodes)
	}
}

func TestAnalyzeNestedCommutativeSpine(t *testing.T) {
	// concat(concat(a,b), c): nested spine should flatten to 3 leaves in order.
	b := NewBuilder()
	x := b.Input("x")
	y := b.Input("y")
	z := b.Input("z")
	fa := b.Add("fa", op("f"), x)
	fb := b.Add("fb", op("f"), y)
	fc := b.Add("fc", op("f"), z)
	inner := b.Add("inner", concatOp(), fa, fb)
	outer := b.Add("outer", concatOp(), inner, fc)
	b.SetOutput(outer)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	a, err := Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(a.IFVs) != 3 {
		t.Fatalf("IFVs = %d, want 3", len(a.IFVs))
	}
	want := []NodeID{fa, fb, fc}
	for i, ifv := range a.IFVs {
		if ifv.Root != want[i] {
			t.Errorf("leaf %d = %d, want %d", i, ifv.Root, want[i])
		}
	}
	if len(a.Spine) != 2 {
		t.Errorf("spine = %v, want two concat nodes", a.Spine)
	}
}

func TestColumnSpans(t *testing.T) {
	g, uf, sf, gf := musicRecGraph(t)
	a, err := Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	spans, err := a.ColumnSpans(map[NodeID]int{uf: 4, sf: 2, gf: 3})
	if err != nil {
		t.Fatalf("ColumnSpans: %v", err)
	}
	want := []Span{{0, 4}, {4, 6}, {6, 9}}
	for i := range want {
		if spans[i] != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, spans[i], want[i])
		}
	}
	if _, err := a.ColumnSpans(map[NodeID]int{uf: 4}); err == nil {
		t.Error("want error for missing width")
	}
}

func TestExecutionOrderSubset(t *testing.T) {
	b := NewBuilder()
	text := b.Input("text")
	clean := b.Add("clean", op("clean"), text)
	f1 := b.Add("f1", op("f"), clean)
	f2 := b.Add("f2", op("f"), clean)
	f3 := b.Add("f3", op("f"), text) // independent of clean
	cat := b.Add("concat", concatOp(), f1, f2, f3)
	b.SetOutput(cat)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	a, err := Analyze(g)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for _, tc := range []struct {
		ifvs []int
		want []NodeID
	}{
		{[]int{1}, []NodeID{clean, f2}},        // its preprocessing ancestor, not f1
		{[]int{2}, []NodeID{f3}},               // does not descend from clean: must not list it
		{[]int{2, 0}, []NodeID{clean, f1, f3}}, // topological, not argument, order
		{[]int{0, 1, 2}, []NodeID{clean, f1, f2, f3}},
		{nil, nil},
	} {
		if got := a.ExecutionOrder(g, tc.ifvs); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ExecutionOrder(%v) = %v, want %v", tc.ifvs, got, tc.want)
		}
	}
}

func TestBlockSortClustersAndPreservesTopo(t *testing.T) {
	// Python preprocessing feeding two Weld chains; block sort should produce
	// [python block][weld block] with one transition.
	b := NewBuilder()
	x := b.Input("x")
	w1 := b.Add("w1", op("w"), x)
	p1 := b.Add("p1", pyOp("p"), x)
	w2 := b.Add("w2", op("w"), w1)
	w3 := b.Add("w3", op("w"), p1)
	cat := b.Add("cat", concatOp(), w2, w3)
	b.SetOutput(cat)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	order := BlockSort(g)
	if !ValidTopo(g, order) {
		t.Fatalf("BlockSort output is not a valid topological order: %v", order)
	}
	if tr := Transitions(g, order); tr != 1 {
		t.Errorf("Transitions = %d, want 1 (python first, then weld)", tr)
	}
	blocks := Blocks(g, order)
	if len(blocks) != 2 || blocks[0].Compiled || !blocks[1].Compiled {
		t.Errorf("Blocks = %+v, want [python, weld]", blocks)
	}
}

func TestBlockSortNoWorseThanNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		n := 3 + rng.Intn(10)
		ids := []NodeID{b.Input("x")}
		for i := 0; i < n; i++ {
			k := 1 + rng.Intn(2)
			var ins []NodeID
			for j := 0; j < k; j++ {
				ins = append(ins, ids[rng.Intn(len(ids))])
			}
			o := &fakeOp{name: "n", compilable: rng.Float64() < 0.6}
			ids = append(ids, b.Add("n", o, ins...))
		}
		// Tie every leaf into a final commutative output so all nodes reach it.
		used := make(map[NodeID]bool)
		for _, nd := range ids {
			used[nd] = false
		}
		bg := b // silence shadow confusion
		_ = bg
		var leaves []NodeID
		consumed := make(map[NodeID]bool)
		// recompute consumption by scanning builder via Build on a trial graph is
		// complex; instead simply concat everything non-source.
		for _, nd := range ids[1:] {
			leaves = append(leaves, nd)
			_ = consumed
		}
		outID := b.Add("out", concatOp(), leaves...)
		b.SetOutput(outID)
		g, err := b.Build()
		if err != nil {
			return true // skip structurally invalid randoms (shouldn't happen)
		}
		sorted := BlockSort(g)
		if !ValidTopo(g, sorted) {
			return false
		}
		return Transitions(g, sorted) <= Transitions(g, g.Topo())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSourcesOf(t *testing.T) {
	g, uf, _, _ := musicRecGraph(t)
	src := g.SourcesOf(uf)
	if len(src) != 1 || g.Node(src[0]).Label != "user" {
		t.Errorf("SourcesOf(user_features) = %v, want [user]", src)
	}
	all := g.SourcesOf(g.Output())
	if len(all) != 3 {
		t.Errorf("SourcesOf(output) = %v, want all three inputs", all)
	}
}

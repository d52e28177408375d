package weld

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"willump/internal/feature"
	"willump/internal/graph"
	"willump/internal/model"
	"willump/internal/ops"
	"willump/internal/value"
)

// zeroCSR maps a float column to a 5-column CSR matrix whose rows store an
// explicit zero — NewCSR allows one, CSRBuilder.Add drops it — at column 2,
// and another at column 3 whenever x is zero: row r is (x, 0, 0, 2x, 1).
type zeroCSR struct{}

func (zeroCSR) Name() string      { return "zero_csr" }
func (zeroCSR) Compilable() bool  { return true }
func (zeroCSR) Commutative() bool { return false }

func (zeroCSR) Apply(ins []value.Value) (value.Value, error) {
	x := ins[0].Floats
	indptr := make([]int, 0, len(x)+1)
	indices := make([]int, 0, 4*len(x))
	values := make([]float64, 0, 4*len(x))
	indptr = append(indptr, 0)
	for _, v := range x {
		indices = append(indices, 0, 2, 3, 4)
		values = append(values, v, 0, 2*v, 1)
		indptr = append(indptr, len(indices))
	}
	m, err := feature.NewCSR(len(x), 5, indptr, indices, values)
	if err != nil {
		return value.Value{}, err
	}
	return value.NewMat(m), nil
}

func (zeroCSR) ApplyBoxed(ins []any) (any, error) {
	v, ok := ins[0].(float64)
	if !ok {
		return nil, fmt.Errorf("zero_csr: got %T", ins[0])
	}
	return []float64{v, 0, 0, 2 * v, 1}, nil
}

// negate is a commutative spine operator that is not elementwise, so a plan
// spined by it takes the assembler's generic branch (spineFallback). Over a
// CSR matrix it keeps every stored entry, explicit zeros included.
type negate struct{}

func (negate) Name() string      { return "negate" }
func (negate) Compilable() bool  { return true }
func (negate) Commutative() bool { return true }

func (negate) Apply(ins []value.Value) (value.Value, error) {
	switch m := ins[0].Mat.(type) {
	case *feature.Dense:
		out := feature.NewDense(m.Rows(), m.Cols())
		for r := 0; r < m.Rows(); r++ {
			for c, v := range m.Row(r) {
				out.Set(r, c, -v)
			}
		}
		return value.NewMat(out), nil
	case *feature.CSR:
		indptr := []int{0}
		var indices []int
		var values []float64
		for r := 0; r < m.Rows(); r++ {
			cols, vals := m.RowView(r)
			indices = append(indices, cols...)
			for _, v := range vals {
				values = append(values, -v)
			}
			indptr = append(indptr, len(indices))
		}
		out, err := feature.NewCSR(m.Rows(), m.Cols(), indptr, indices, values)
		if err != nil {
			return value.Value{}, err
		}
		return value.NewMat(out), nil
	}
	return value.Value{}, fmt.Errorf("negate: got %s", ins[0].Kind)
}

func (negate) ApplyBoxed(ins []any) (any, error) {
	row, ok := ins[0].([]float64)
	if !ok {
		return nil, fmt.Errorf("negate: got %T", ins[0])
	}
	out := make([]float64, len(row))
	for i, v := range row {
		out[i] = -v
	}
	return out, nil
}

// perEntryAssembly is the assembler's per-entry path over the roots the last
// MatrixShared of the IFVs idx on r concatenated: every stored entry, with
// the IFV's elementwise spine folded over it, through CSRBuilder.Add.
func perEntryAssembly(r *BatchRun, idx []int) *feature.CSR {
	ordered := slices.Sorted(slices.Values(idx))
	width := func(v *value.Value) int {
		if v.Kind == value.Mat {
			return v.Mat.Cols()
		}
		return 1
	}
	total := 0
	for _, v := range r.roots {
		total += width(v)
	}
	b := feature.NewCSRBuilder(total)
	for row := 0; row < r.n; row++ {
		off := 0
		for j, i := range ordered {
			var spine []graph.Op
			if !r.p.spineFallback {
				spine = r.p.ifvSpine[i]
			}
			v := r.roots[j]
			switch v.Kind {
			case value.Floats:
				b.Add(off, applySpineScalar(spine, v.Floats[row]))
			case value.Ints:
				b.Add(off, applySpineScalar(spine, float64(v.Ints[row])))
			case value.Mat:
				v.Mat.ForEachNZ(row, func(c int, x float64) {
					b.Add(off+c, applySpineScalar(spine, x))
				})
			}
			off += width(v)
		}
		b.EndRow()
	}
	return b.Build()
}

// sameCSR reports whether a and b store the same entries, to the bit.
func sameCSR(a, b *feature.CSR) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for r := 0; r < a.Rows(); r++ {
		ac, av := a.RowView(r)
		bc, bv := b.RowView(r)
		if !slices.Equal(ac, bc) || !sameBits(av, bv) {
			return false
		}
	}
	return true
}

// TestAssemblerAppendRowMatchesPerEntry: the assembler, which moves a CSR
// root's rows as blocks when its IFV has no spine operator, assembles the
// same matrix to the bit as every entry through CSRBuilder.Add would: over
// CSR roots that store explicit zeros, behind an elementwise spine (per
// entry), and under the generic spine branch (blocks again, over the
// spine's output).
func TestAssemblerAppendRowMatchesPerEntry(t *testing.T) {
	build := func(spine graph.Op) *graph.Graph {
		b := graph.NewBuilder()
		cat := b.Add("concat", ops.NewConcat(),
			b.Add("py", passthrough{}, b.Input("y")),
			b.Add("zx", zeroCSR{}, b.Input("x")),
			b.Add("zz", zeroCSR{}, b.Input("z")))
		if spine != nil {
			cat = b.Add("spine", spine, cat)
		}
		b.SetOutput(cat)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	inputs := func(rng *rand.Rand, n int) map[string]value.Value {
		x, z, y := make([]float64, n), make([]float64, n), make([]int64, n)
		for i := range x {
			if rng.Intn(3) > 0 {
				x[i] = rng.NormFloat64()
			}
			if rng.Intn(3) > 0 {
				z[i] = rng.NormFloat64()
			}
			y[i] = int64(rng.Intn(3))
		}
		return map[string]value.Value{"x": value.NewFloats(x), "y": value.NewInts(y), "z": value.NewFloats(z)}
	}
	rng := rand.New(rand.NewSource(5))
	for _, plan := range []struct {
		name     string
		spine    graph.Op
		fallback bool
	}{{"no-spine", nil, false}, {"elementwise-spine", ops.NewClip(-0.5, 0.5), false}, {"spine-fallback", negate{}, true}} {
		p, _ := fitProgram(t, build(plan.spine), inputs(rng, 8))
		if p.spineFallback != plan.fallback {
			t.Fatalf("%s: spineFallback = %v, want %v", plan.name, p.spineFallback, plan.fallback)
		}
		for trial := 0; trial < 20; trial++ {
			in := inputs(rng, 2+rng.Intn(8))
			r, err := p.NewRun(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			for _, idx := range [][]int{p.AllIFVs(), {2, 1}, {1}} {
				m, err := r.MatrixShared(idx)
				if err != nil {
					t.Fatal(err)
				}
				got, ok := m.(*feature.CSR)
				if !ok {
					t.Fatalf("%s: a %d-row batch assembled %T, want CSR", plan.name, r.n, m)
				}
				if want := perEntryAssembly(r, idx); !sameCSR(got, want) {
					t.Fatalf("%s trial %d IFVs %v: assembled %v, per entry %v", plan.name, trial, idx, got.ToDense(), want.ToDense())
				}
			}
			r.Close()
		}
	}
}

// TestPointRowLayout: a point row takes the batch layout. Over the mixed
// text plan, cold, behind an elementwise Clip spine and under spineFallback,
// PointMatrix assembles a CSR row that stores exactly the nonzeros of the
// same row of the sequential batch, far fewer than its width; over the
// all-dense lookup plan it assembles dense. Logistic, MLP and GBDT score
// the point row to the bit like the batch row.
func TestPointRowLayout(t *testing.T) {
	// Enough distinct n-grams to fill the vocabulary, so a row's nonzeros
	// are a small share of the width.
	words := []string{"bad", "dog", "cat", "fox", "sun", "rain", "good", "day", "tree", "lake", "road", "bird"}
	rng := rand.New(rand.NewSource(9))
	docs := make([]string, 32)
	for i := range docs {
		doc := words[rng.Intn(len(words))]
		for k := 0; k < 3; k++ {
			doc += " " + words[rng.Intn(len(words))]
		}
		docs[i] = doc
	}
	tin := map[string]value.Value{"text": value.NewStrings(docs)}
	lg, lin, _, _ := lookupPipeline(t)
	for _, plan := range []struct {
		name     string
		g        *graph.Graph
		in       map[string]value.Value
		dense    bool
		fallback bool
	}{
		{"mixed", textGraph(t, nil), tin, false, false},
		{"mixed-clip", textGraph(t, ops.NewClip(-0.5, 0.5)), tin, false, false},
		{"mixed-fallback", textGraph(t, negate{}), tin, false, true},
		{"lookup", lg, lin, true, false},
	} {
		p, x := fitProgram(t, plan.g, plan.in)
		if p.spineFallback != plan.fallback {
			t.Fatalf("%s: spineFallback = %v, want %v", plan.name, p.spineFallback, plan.fallback)
		}
		seq, err := p.RunBatch(context.Background(), plan.in)
		if err != nil {
			t.Fatal(err)
		}
		n := seq.Rows()
		y := make([]float64, n)
		for i := range y {
			y[i] = float64(i % 2)
		}
		models := []model.Model{
			model.NewLogistic(model.LinearConfig{Seed: 1}),
			model.NewMLP(model.MLPConfig{Hidden: 4, Epochs: 3, Seed: 2}),
			model.NewGBDT(model.GBDTConfig{Task: model.Classification, Trees: 5, MaxDepth: 3, Seed: 3}),
		}
		batch := make([][]float64, len(models))
		for k, m := range models {
			if err := m.Train(x, y); err != nil {
				t.Fatalf("%s: %T.Train: %v", plan.name, m, err)
			}
			batch[k] = m.Predict(seq)
		}
		s := model.GetScratch()
		for row := 0; row < n; row++ {
			point := make(map[string]value.Value, len(plan.in))
			for k, v := range plan.in {
				point[k] = v.Gather([]int{row})
			}
			r, err := p.NewRun(context.Background(), point)
			if err != nil {
				t.Fatal(err)
			}
			pm, err := r.PointMatrix(p.AllIFVs())
			if err != nil {
				t.Fatal(err)
			}
			want := feature.RowDense(seq, row, nil)
			nnz := 0
			for _, v := range want {
				if v != 0 {
					nnz++
				}
			}
			switch m := pm.(type) {
			case *feature.Dense:
				if !plan.dense {
					t.Fatalf("%s row %d: point row assembled dense over a sparse root", plan.name, row)
				}
			case *feature.CSR:
				if plan.dense {
					t.Fatalf("%s row %d: point row assembled CSR over dense roots", plan.name, row)
				}
				if m.NNZ() != nnz || 4*nnz > m.Cols() {
					t.Fatalf("%s row %d: point row stores %d entries of %d columns, want the batch row's %d nonzeros", plan.name, row, m.NNZ(), m.Cols(), nnz)
				}
			default:
				t.Fatalf("%s row %d: point row assembled %T", plan.name, row, pm)
			}
			if !sameBits(feature.RowDense(pm, 0, nil), want) {
				t.Fatalf("%s row %d: point row differs from the batch row", plan.name, row)
			}
			for k, m := range models {
				if got := model.ScoreRow(m, pm, 0, s); math.Float64bits(got) != math.Float64bits(batch[k][row]) {
					t.Fatalf("%s row %d: %T scores the point row %v, the batch row %v", plan.name, row, m, got, batch[k][row])
				}
			}
			r.Close()
		}
		model.PutScratch(s)
	}
}

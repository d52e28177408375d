package feature

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestDenseBasics(t *testing.T) {
	d := NewDense(2, 3)
	if d.Rows() != 2 || d.Cols() != 3 {
		t.Fatalf("shape = (%d, %d), want (2, 3)", d.Rows(), d.Cols())
	}
	d.Set(0, 1, 5)
	d.Set(1, 2, -2)
	if got := d.At(0, 1); got != 5 {
		t.Errorf("At(0,1) = %v, want 5", got)
	}
	if got := d.At(1, 2); got != -2 {
		t.Errorf("At(1,2) = %v, want -2", got)
	}
	if got := d.At(0, 0); got != 0 {
		t.Errorf("At(0,0) = %v, want 0", got)
	}
	if nnz := d.RowNNZ(0); nnz != 1 {
		t.Errorf("RowNNZ(0) = %d, want 1", nnz)
	}
}

func TestDenseFromRows(t *testing.T) {
	d := DenseFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if d.Rows() != 3 || d.Cols() != 2 {
		t.Fatalf("shape = (%d, %d), want (3, 2)", d.Rows(), d.Cols())
	}
	if d.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v, want 6", d.At(2, 1))
	}
}

func TestDenseFromRowsRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	DenseFromRows([][]float64{{1, 2}, {3}})
}

func TestDenseFromColumn(t *testing.T) {
	d := DenseFromColumn([]float64{7, 8, 9})
	if d.Rows() != 3 || d.Cols() != 1 {
		t.Fatalf("shape = (%d, %d), want (3, 1)", d.Rows(), d.Cols())
	}
	if d.At(1, 0) != 8 {
		t.Errorf("At(1,0) = %v, want 8", d.At(1, 0))
	}
}

func TestWrapDense(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	d := WrapDense(2, 3, data)
	if d.At(1, 0) != 4 {
		t.Errorf("At(1,0) = %v, want 4", d.At(1, 0))
	}
	data[3] = 40 // wrap shares the backing slice
	if d.At(1, 0) != 40 {
		t.Errorf("At(1,0) after mutation = %v, want 40", d.At(1, 0))
	}
}

func TestDenseGather(t *testing.T) {
	d := DenseFromRows([][]float64{{1, 0}, {2, 0}, {3, 0}})
	g := d.Gather([]int{2, 0})
	if g.Rows() != 2 {
		t.Fatalf("Rows = %d, want 2", g.Rows())
	}
	if g.At(0, 0) != 3 || g.At(1, 0) != 1 {
		t.Errorf("gathered rows wrong: got [%v, %v]", g.At(0, 0), g.At(1, 0))
	}
}

func TestDenseClone(t *testing.T) {
	d := DenseFromRows([][]float64{{1, 2}})
	c := d.Clone()
	c.Set(0, 0, 99)
	if d.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func buildCSR(t *testing.T, rows, cols int, entries map[[2]int]float64) *CSR {
	t.Helper()
	b := NewCSRBuilder(cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if v, ok := entries[[2]int{r, c}]; ok {
				b.Add(c, v)
			}
		}
		b.EndRow()
	}
	return b.Build()
}

func TestCSRBuilderAndAt(t *testing.T) {
	m := buildCSR(t, 3, 4, map[[2]int]float64{
		{0, 1}: 2, {0, 3}: 4, {1, 0}: -1, {2, 2}: 7,
	})
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = (%d, %d), want (3, 4)", m.Rows(), m.Cols())
	}
	if m.NNZ() != 4 {
		t.Errorf("NNZ = %d, want 4", m.NNZ())
	}
	cases := []struct {
		r, c int
		want float64
	}{{0, 1, 2}, {0, 3, 4}, {1, 0, -1}, {2, 2, 7}, {0, 0, 0}, {1, 3, 0}}
	for _, tc := range cases {
		if got := m.At(tc.r, tc.c); got != tc.want {
			t.Errorf("At(%d,%d) = %v, want %v", tc.r, tc.c, got, tc.want)
		}
	}
}

func TestCSRBuilderDuplicateColumnsSummed(t *testing.T) {
	b := NewCSRBuilder(3)
	b.Add(1, 2)
	b.Add(1, 3)
	b.Add(0, 1)
	b.EndRow()
	m := b.Build()
	if got := m.At(0, 1); got != 5 {
		t.Errorf("duplicate column sum = %v, want 5", got)
	}
	if got := m.At(0, 0); got != 1 {
		t.Errorf("At(0,0) = %v, want 1", got)
	}
	if m.RowNNZ(0) != 2 {
		t.Errorf("RowNNZ = %d, want 2", m.RowNNZ(0))
	}
}

func TestCSRBuilderCancellingDuplicatesDropped(t *testing.T) {
	b := NewCSRBuilder(2)
	b.Add(0, 2)
	b.Add(0, -2)
	b.EndRow()
	m := b.Build()
	if m.NNZ() != 0 {
		t.Errorf("NNZ = %d, want 0 after exact cancellation", m.NNZ())
	}
}

// TestCSRBuilderAppendRowMatchesAdd: appending sorted segments as blocks
// builds the same matrix, to the bit, as adding their entries one at a time
// — zero values dropped, segments at any offset, overlapping segments summed
// — and leaves the row flagged unsorted exactly when Add does, including a
// segment appended after a higher column.
func TestCSRBuilderAppendRowMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const cols = 40
	bulk, each := NewCSRBuilder(cols), NewCSRBuilder(cols)
	for _, c := range []struct {
		off      int
		cols     []int
		vals     []float64
		unsorted bool
	}{
		{0, []int{5, 7}, []float64{1, 1}, true},    // repeats column 5
		{0, []int{3, 7}, []float64{0, 1}, false},   // below it, but dropped
		{2, []int{4, 6}, []float64{1, 1}, false},   // shifted past it
		{0, []int{2, 9}, []float64{1, -1}, true},   // below it
		{10, []int{-4, 0}, []float64{1, 1}, false}, // negative, shifted past it
	} {
		bulk.Add(5, 2)
		each.Add(5, 2)
		bulk.AppendRow(c.off, c.cols, c.vals)
		for k, col := range c.cols {
			each.Add(c.off+col, c.vals[k])
		}
		if bulk.unsorted != c.unsorted || each.unsorted != c.unsorted {
			t.Fatalf("AppendRow(%d, %v, %v) after column 5: unsorted = %v (Add: %v), want %v",
				c.off, c.cols, c.vals, bulk.unsorted, each.unsorted, c.unsorted)
		}
		bulk.EndRow()
		each.EndRow()
	}
	for r := 0; r < 500; r++ {
		if rng.Intn(4) == 0 { // a higher column first: the row is unsorted
			c, v := cols/2+rng.Intn(cols/2), float64(1+rng.Intn(3))
			bulk.Add(c, v)
			each.Add(c, v)
		}
		for s := rng.Intn(4); s > 0; s-- {
			off := rng.Intn(cols / 2)
			var segCols []int
			var segVals []float64
			for c := 0; off+c < cols; c++ {
				if rng.Intn(3) > 0 {
					continue
				}
				v := rng.NormFloat64()
				switch rng.Intn(6) {
				case 0:
					v = 0
				case 1:
					v = math.Copysign(0, -1)
				}
				segCols, segVals = append(segCols, c), append(segVals, v)
			}
			bulk.AppendRow(off, segCols, segVals)
			for k, c := range segCols {
				each.Add(off+c, segVals[k])
			}
			if bulk.unsorted != each.unsorted {
				t.Fatalf("row %d: unsorted = %v after AppendRow, %v after Add", r, bulk.unsorted, each.unsorted)
			}
		}
		bulk.EndRow()
		each.EndRow()
	}
	got, want := bulk.Build(), each.Build()
	if !reflect.DeepEqual(got.indptr, want.indptr) || !reflect.DeepEqual(got.indices, want.indices) {
		t.Fatal("AppendRow and Add built different row structures")
	}
	for k := range want.values {
		if math.Float64bits(got.values[k]) != math.Float64bits(want.values[k]) {
			t.Fatalf("entry %d = %v, want %v", k, got.values[k], want.values[k])
		}
	}
}

// TestCSRBuilderAppendRowPanics: a segment reaching outside the matrix, or
// with more columns than values, panics instead of building a corrupt row.
func TestCSRBuilderAppendRowPanics(t *testing.T) {
	for _, c := range []struct {
		off  int
		cols []int
		vals []float64
	}{
		{0, []int{1, 4}, []float64{1, 1}},  // past the last column
		{2, []int{0, 2}, []float64{1, 1}},  // shifted past it
		{-1, []int{0, 2}, []float64{1, 1}}, // shifted before column 0
		{0, []int{0, 1}, []float64{1}},     // values missing
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendRow(%d, %v, %v) on 4 columns did not panic", c.off, c.cols, c.vals)
				}
			}()
			NewCSRBuilder(4).AppendRow(c.off, c.cols, c.vals)
		}()
	}
}

// Rows whose columns arrive strictly ascending skip the sort and the merge;
// rows that do not keep them. Both kinds, interleaved in one builder, must
// produce the matrix a per-row map would, and entries added after the last
// EndRow are not part of it.
func TestCSRBuilderSortedAndUnsortedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const cols = 12
	b := NewCSRBuilder(cols)
	var want []map[int]float64
	for r := 0; r < 200; r++ {
		row := make(map[int]float64)
		if r%2 == 0 { // ascending, no duplicates
			for c := 0; c < cols; c++ {
				if rng.Intn(3) == 0 {
					v := float64(1 + rng.Intn(5))
					b.Add(c, v)
					row[c] = v
				}
			}
		} else { // any order, duplicates, cancellations
			for k := rng.Intn(10); k > 0; k-- {
				c, v := rng.Intn(cols), float64(rng.Intn(5)-2)
				b.Add(c, v)
				row[c] += v
			}
		}
		b.EndRow()
		want = append(want, row)
	}
	b.Add(3, 9) // never ended
	m := b.Build()
	if m.Rows() != len(want) {
		t.Fatalf("rows = %d, want %d", m.Rows(), len(want))
	}
	nnz := 0
	for r, row := range want {
		for c := 0; c < cols; c++ {
			if got := m.At(r, c); got != row[c] {
				t.Fatalf("At(%d,%d) = %v, want %v", r, c, got, row[c])
			}
			if row[c] != 0 {
				nnz++
			}
		}
		cs, _ := m.RowView(r)
		if !sort.IntsAreSorted(cs) {
			t.Fatalf("row %d columns %v not ascending", r, cs)
		}
	}
	if m.NNZ() != nnz {
		t.Errorf("NNZ = %d, want %d (no stored zeros, no unended entries)", m.NNZ(), nnz)
	}
}

func TestNewCSRValidation(t *testing.T) {
	if _, err := NewCSR(2, 2, []int{0, 1}, []int{0}, []float64{1}); err == nil {
		t.Error("want error for short indptr")
	}
	if _, err := NewCSR(1, 2, []int{0, 2}, []int{1, 0}, []float64{1, 2}); err == nil {
		t.Error("want error for unsorted columns")
	}
	if _, err := NewCSR(1, 2, []int{0, 1}, []int{5}, []float64{1}); err == nil {
		t.Error("want error for out-of-range column")
	}
	if _, err := NewCSR(1, 2, []int{0, 1}, []int{0}, []float64{1, 2}); err == nil {
		t.Error("want error for indices/values length mismatch")
	}
	m, err := NewCSR(2, 3, []int{0, 1, 2}, []int{0, 2}, []float64{1, 2})
	if err != nil {
		t.Fatalf("valid CSR rejected: %v", err)
	}
	if m.At(1, 2) != 2 {
		t.Errorf("At(1,2) = %v, want 2", m.At(1, 2))
	}
}

func TestCSRGather(t *testing.T) {
	m := buildCSR(t, 3, 3, map[[2]int]float64{{0, 0}: 1, {1, 1}: 2, {2, 2}: 3})
	g := m.Gather([]int{2, 1})
	if g.Rows() != 2 {
		t.Fatalf("Rows = %d, want 2", g.Rows())
	}
	if g.At(0, 2) != 3 || g.At(1, 1) != 2 {
		t.Error("gathered entries wrong")
	}
}

func TestCSRToDense(t *testing.T) {
	m := buildCSR(t, 2, 2, map[[2]int]float64{{0, 1}: 4, {1, 0}: 5})
	d := m.ToDense()
	if !Equal(m, d) {
		t.Error("ToDense not equal to source")
	}
}

func TestHStackDense(t *testing.T) {
	a := DenseFromRows([][]float64{{1}, {2}})
	b := DenseFromRows([][]float64{{3, 4}, {5, 6}})
	m := HStack(a, b)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = (%d, %d), want (2, 3)", m.Rows(), m.Cols())
	}
	if _, ok := m.(*Dense); !ok {
		t.Errorf("HStack of dense inputs should be dense, got %T", m)
	}
	want := DenseFromRows([][]float64{{1, 3, 4}, {2, 5, 6}})
	if !Equal(m, want) {
		t.Error("HStack values wrong")
	}
}

func TestHStackMixed(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 0}, {0, 2}})
	s := buildCSR(t, 2, 3, map[[2]int]float64{{0, 2}: 9, {1, 0}: 8})
	m := HStack(a, s)
	if _, ok := m.(*CSR); !ok {
		t.Errorf("HStack with sparse input should be CSR, got %T", m)
	}
	if m.Cols() != 5 {
		t.Fatalf("Cols = %d, want 5", m.Cols())
	}
	if m.At(0, 4) != 9 || m.At(1, 2) != 8 || m.At(0, 0) != 1 || m.At(1, 1) != 2 {
		t.Error("HStack mixed values wrong")
	}
}

func TestHStackEdgeCases(t *testing.T) {
	if m := HStack(); m.Rows() != 0 || m.Cols() != 0 {
		t.Error("empty HStack should be 0x0")
	}
	a := DenseFromRows([][]float64{{1}})
	if m := HStack(a); m != Matrix(a) {
		t.Error("single-arg HStack should return its input")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on row mismatch")
		}
	}()
	HStack(a, NewDense(2, 1))
}

func TestDot(t *testing.T) {
	m := DenseFromRows([][]float64{{1, 2, 3}})
	if got := Dot(m, 0, []float64{1, 10, 100}); got != 321 {
		t.Errorf("Dot = %v, want 321", got)
	}
	s := buildCSR(t, 1, 3, map[[2]int]float64{{0, 0}: 2, {0, 2}: 5})
	if got := Dot(s, 0, []float64{3, 0, 1}); got != 11 {
		t.Errorf("sparse Dot = %v, want 11", got)
	}
}

func TestRowDense(t *testing.T) {
	s := buildCSR(t, 2, 3, map[[2]int]float64{{1, 1}: 4})
	row := RowDense(s, 1, nil)
	if len(row) != 3 || row[1] != 4 || row[0] != 0 {
		t.Errorf("RowDense = %v, want [0 4 0]", row)
	}
	// Appending semantics.
	row2 := RowDense(s, 0, []float64{9})
	if len(row2) != 4 || row2[0] != 9 {
		t.Errorf("RowDense append = %v, want prefix preserved", row2)
	}
}

func TestMeanAbs(t *testing.T) {
	m := DenseFromRows([][]float64{{-2, 0}, {4, 2}})
	got := MeanAbs(m)
	if got[0] != 3 || got[1] != 1 {
		t.Errorf("MeanAbs = %v, want [3 1]", got)
	}
	if ma := MeanAbs(NewDense(0, 2)); ma[0] != 0 || ma[1] != 0 {
		t.Error("MeanAbs of empty matrix should be zeros")
	}
}

// randomDense produces a random matrix for property tests.
func randomDense(rng *rand.Rand, rows, cols int) *Dense {
	d := NewDense(rows, cols)
	for i := range d.data {
		if rng.Float64() < 0.5 {
			d.data[i] = rng.NormFloat64()
		}
	}
	return d
}

func randomCSR(rng *rand.Rand, rows, cols int) *CSR {
	b := NewCSRBuilder(cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < 0.3 {
				b.Add(c, rng.NormFloat64())
			}
		}
		b.EndRow()
	}
	return b.Build()
}

// Property: HStack preserves every entry of its inputs at the shifted column.
func TestHStackPreservesEntriesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(8)
		a := randomDense(rng, rows, 1+rng.Intn(5))
		b := randomCSR(rng, rows, 1+rng.Intn(5))
		c := randomDense(rng, rows, 1+rng.Intn(5))
		m := HStack(a, b, c)
		for r := 0; r < rows; r++ {
			for j := 0; j < a.Cols(); j++ {
				if m.At(r, j) != a.At(r, j) {
					return false
				}
			}
			for j := 0; j < b.Cols(); j++ {
				if m.At(r, a.Cols()+j) != b.At(r, j) {
					return false
				}
			}
			for j := 0; j < c.Cols(); j++ {
				if m.At(r, a.Cols()+b.Cols()+j) != c.At(r, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: CSR round trip through ToDense preserves all values.
func TestCSRDenseRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, 1+rng.Intn(10), 1+rng.Intn(10))
		return Equal(m, m.ToDense())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Gather(identity) equals the original matrix.
func TestGatherIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(10)
		m := randomCSR(rng, rows, 1+rng.Intn(6))
		idx := make([]int, rows)
		for i := range idx {
			idx[i] = i
		}
		return Equal(m, m.Gather(idx))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Dot against a dense weight vector agrees between a CSR matrix and
// its dense materialization.
func TestDotSparseDenseAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(8)
		m := randomCSR(rng, rows, cols)
		d := m.ToDense()
		w := make([]float64, cols)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		for r := 0; r < rows; r++ {
			a, b := Dot(m, r, w), Dot(d, r, w)
			diff := a - b
			if diff < -1e-12 || diff > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

package feature

import (
	"fmt"
	"sort"
)

// CSR is a compressed sparse row matrix. Column indices within each row are
// strictly increasing.
type CSR struct {
	rows, cols int
	indptr     []int // len rows+1
	indices    []int // len nnz
	values     []float64
}

// NewCSR builds a CSR matrix from raw components. It validates shape and
// per-row column ordering.
func NewCSR(rows, cols int, indptr, indices []int, values []float64) (*CSR, error) {
	if len(indptr) != rows+1 {
		return nil, fmt.Errorf("feature: NewCSR: len(indptr)=%d, want %d", len(indptr), rows+1)
	}
	if len(indices) != len(values) {
		return nil, fmt.Errorf("feature: NewCSR: len(indices)=%d != len(values)=%d", len(indices), len(values))
	}
	if indptr[0] != 0 || indptr[rows] != len(indices) {
		return nil, fmt.Errorf("feature: NewCSR: indptr bounds [%d, %d], want [0, %d]", indptr[0], indptr[rows], len(indices))
	}
	for r := 0; r < rows; r++ {
		if indptr[r] > indptr[r+1] {
			return nil, fmt.Errorf("feature: NewCSR: indptr not monotone at row %d", r)
		}
		for i := indptr[r]; i < indptr[r+1]; i++ {
			if indices[i] < 0 || indices[i] >= cols {
				return nil, fmt.Errorf("feature: NewCSR: column %d out of range [0, %d) at row %d", indices[i], cols, r)
			}
			if i > indptr[r] && indices[i] <= indices[i-1] {
				return nil, fmt.Errorf("feature: NewCSR: columns not strictly increasing in row %d", r)
			}
		}
	}
	return &CSR{rows: rows, cols: cols, indptr: indptr, indices: indices, values: values}, nil
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the total number of stored entries.
func (m *CSR) NNZ() int { return len(m.values) }

// At returns the value at (r, c), using binary search within the row.
func (m *CSR) At(r, c int) float64 {
	lo, hi := m.indptr[r], m.indptr[r+1]
	i := lo + sort.SearchInts(m.indices[lo:hi], c)
	if i < hi && m.indices[i] == c {
		return m.values[i]
	}
	return 0
}

// ForEachNZ visits the stored entries of row r in increasing column order.
func (m *CSR) ForEachNZ(r int, fn func(c int, v float64)) {
	for i := m.indptr[r]; i < m.indptr[r+1]; i++ {
		fn(m.indices[i], m.values[i])
	}
}

// RowNNZ returns the number of stored entries in row r.
func (m *CSR) RowNNZ(r int) int { return m.indptr[r+1] - m.indptr[r] }

// RowView returns views of row r's stored column indices and values (not
// copies; callers must not mutate them). It is the allocation-free
// alternative to ForEachNZ for hot loops.
func (m *CSR) RowView(r int) ([]int, []float64) {
	lo, hi := m.indptr[r], m.indptr[r+1]
	return m.indices[lo:hi], m.values[lo:hi]
}

// Gather returns a new CSR matrix with the selected rows, in order.
func (m *CSR) Gather(rows []int) Matrix {
	return m.GatherReuse(rows, nil)
}

// GatherReuse gathers the selected rows into prev's storage when capacity
// allows, allocating only when it does not. prev must not alias m and must
// no longer be in use.
func (m *CSR) GatherReuse(rows []int, prev *CSR) *CSR {
	nnz := 0
	for _, r := range rows {
		nnz += m.RowNNZ(r)
	}
	if prev == nil {
		prev = &CSR{}
	}
	prev.indptr = growInts(prev.indptr, len(rows)+1)
	prev.indices = growInts(prev.indices, nnz)
	prev.values = growFloats(prev.values, nnz)
	prev.rows, prev.cols = len(rows), m.cols
	prev.indptr[0] = 0
	at := 0
	for i, r := range rows {
		lo, hi := m.indptr[r], m.indptr[r+1]
		at += copy(prev.indices[at:], m.indices[lo:hi])
		copy(prev.values[at-(hi-lo):], m.values[lo:hi])
		prev.indptr[i+1] = at
	}
	return prev
}

// StackCSR stacks the rows of parts, in order, into prev's storage when
// capacity allows (nil: fresh storage) and returns it: the one matrix of
// which the parts are consecutive row blocks. The parts share one column
// count; prev must not alias any of them and must no longer be in use.
func StackCSR(prev *CSR, parts []*CSR) *CSR {
	rows, nnz := 0, 0
	for _, p := range parts {
		rows, nnz = rows+p.rows, nnz+p.NNZ()
	}
	if prev == nil {
		prev = &CSR{}
	}
	prev.indptr = growInts(prev.indptr, rows+1)
	prev.indices = growInts(prev.indices, nnz)
	prev.values = growFloats(prev.values, nnz)
	prev.rows, prev.cols = rows, 0
	prev.indptr[0] = 0
	row, at := 0, 0
	for _, p := range parts {
		prev.cols = p.cols
		for r := 1; r <= p.rows; r++ {
			prev.indptr[row+r] = at + p.indptr[r]
		}
		copy(prev.indices[at:], p.indices)
		copy(prev.values[at:], p.values)
		row, at = row+p.rows, at+p.NNZ()
	}
	return prev
}

// growInts returns a slice of length n, reusing s's backing array when
// possible. Contents are unspecified.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growFloats returns a slice of length n, reusing s's backing array when
// possible. Contents are unspecified.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// ToDense materializes the matrix densely.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.rows, m.cols)
	for r := 0; r < m.rows; r++ {
		m.ForEachNZ(r, func(c int, v float64) { d.Set(r, c, v) })
	}
	return d
}

// CSRBuilder incrementally assembles a CSR matrix row by row. Entries of
// the row being built are appended straight to the matrix's index and value
// slices, past the last committed row; EndRow commits them.
type CSRBuilder struct {
	cols    int
	indptr  []int
	indices []int
	values  []float64
	// unsorted records that the current row's columns did not arrive
	// strictly ascending, so EndRow must sort them and merge duplicates.
	unsorted bool
	sorter   rowSorter // reused across EndRow calls to avoid per-row boxing
}

// NewCSRBuilder returns a builder for matrices with the given column count.
func NewCSRBuilder(cols int) *CSRBuilder {
	return &CSRBuilder{cols: cols, indptr: []int{0}}
}

// Add records entry (c, v) for the row currently being built. Duplicate
// columns within one row are summed at EndRow. Zero values are kept out.
func (b *CSRBuilder) Add(c int, v float64) {
	if v == 0 {
		return
	}
	if c < 0 || c >= b.cols {
		panic(fmt.Sprintf("feature: CSRBuilder.Add: column %d out of range [0, %d)", c, b.cols))
	}
	if n := len(b.indices); n > b.indptr[len(b.indptr)-1] && c <= b.indices[n-1] {
		b.unsorted = true
	}
	b.indices = append(b.indices, c)
	b.values = append(b.values, v)
}

// EndRow finishes the current row. Columns that arrived strictly ascending
// (every vectorizer, OneHot and the assembler's concatenation of sorted IFV
// rows) are already in place; otherwise the row's entries are sorted by
// column and duplicates summed, dropping sums that cancel to zero.
func (b *CSRBuilder) EndRow() {
	if b.unsorted {
		b.unsorted = false
		lo := b.indptr[len(b.indptr)-1]
		cols, vals := b.indices[lo:], b.values[lo:]
		b.sorter.cols, b.sorter.vals = cols, vals
		sort.Sort(&b.sorter)
		at := 0
		for i := 0; i < len(cols); i++ {
			c, v := cols[i], vals[i]
			for i+1 < len(cols) && cols[i+1] == c {
				i++
				v += vals[i]
			}
			if v != 0 {
				cols[at], vals[at] = c, v
				at++
			}
		}
		b.indices, b.values = b.indices[:lo+at], b.values[:lo+at]
	}
	b.indptr = append(b.indptr, len(b.indices))
}

// Build finalizes and returns the CSR matrix. The builder must not be reused
// afterwards, unless reinitialized with ResetFrom on the built matrix.
func (b *CSRBuilder) Build() *CSR {
	m := &CSR{}
	b.BuildInto(m)
	return m
}

// BuildInto finalizes the matrix into m, reusing m's header. The builder
// must not be reused afterwards, unless reinitialized with ResetFrom(m).
func (b *CSRBuilder) BuildInto(m *CSR) {
	m.rows = len(b.indptr) - 1
	m.cols = b.cols
	m.indptr = b.indptr
	// Entries of a row that was never ended are not part of the matrix.
	nnz := b.indptr[m.rows]
	m.indices = b.indices[:nnz]
	m.values = b.values[:nnz]
}

// ResetFrom reinitializes the builder for a matrix with the given column
// count, reclaiming the backing slices of a previously built matrix m (which
// must no longer be in use). A nil m resets with the builder's own slices.
func (b *CSRBuilder) ResetFrom(cols int, m *CSR) {
	if m != nil {
		b.indptr, b.indices, b.values = m.indptr, m.indices, m.values
	}
	b.cols = cols
	if cap(b.indptr) == 0 {
		b.indptr = make([]int, 1, 8)
	}
	b.indptr = b.indptr[:1]
	b.indptr[0] = 0
	b.indices = b.indices[:0]
	b.values = b.values[:0]
	b.unsorted = false
}

type rowSorter struct {
	cols []int
	vals []float64
}

func (s *rowSorter) Len() int           { return len(s.cols) }
func (s *rowSorter) Less(i, j int) bool { return s.cols[i] < s.cols[j] }
func (s *rowSorter) Swap(i, j int) {
	s.cols[i], s.cols[j] = s.cols[j], s.cols[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

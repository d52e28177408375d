package feature

import "fmt"

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols
}

// NewDense returns a zeroed rows x cols dense matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("feature: NewDense(%d, %d): negative dimension", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// DenseFromRows builds a dense matrix from equal-length row slices. The rows
// are copied. An empty input yields a 0x0 matrix.
func DenseFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	cols := len(rows[0])
	d := NewDense(len(rows), cols)
	for i, row := range rows {
		if len(row) != cols {
			panic(fmt.Sprintf("feature: DenseFromRows: row %d has %d cols, want %d", i, len(row), cols))
		}
		copy(d.data[i*cols:(i+1)*cols], row)
	}
	return d
}

// DenseFromColumn builds a rows x 1 matrix from a single column vector (copied).
func DenseFromColumn(col []float64) *Dense {
	d := NewDense(len(col), 1)
	copy(d.data, col)
	return d
}

// WrapDense wraps an existing row-major backing slice without copying.
// len(data) must equal rows*cols.
func WrapDense(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("feature: WrapDense: len(data)=%d, want %d", len(data), rows*cols))
	}
	return &Dense{rows: rows, cols: cols, data: data}
}

// Rows returns the number of rows.
func (d *Dense) Rows() int { return d.rows }

// Cols returns the number of columns.
func (d *Dense) Cols() int { return d.cols }

// At returns the value at (r, c).
func (d *Dense) At(r, c int) float64 { return d.data[r*d.cols+c] }

// Set stores v at (r, c).
func (d *Dense) Set(r, c int, v float64) { d.data[r*d.cols+c] = v }

// Row returns the backing slice for row r (not a copy).
func (d *Dense) Row(r int) []float64 { return d.data[r*d.cols : (r+1)*d.cols] }

// Data returns the row-major backing slice (not a copy).
func (d *Dense) Data() []float64 { return d.data }

// ForEachNZ visits every column of row r, including zeros, in column order.
func (d *Dense) ForEachNZ(r int, fn func(c int, v float64)) {
	row := d.Row(r)
	for c, v := range row {
		if v != 0 {
			fn(c, v)
		}
	}
}

// RowNNZ returns the count of non-zero entries in row r.
func (d *Dense) RowNNZ(r int) int {
	n := 0
	for _, v := range d.Row(r) {
		if v != 0 {
			n++
		}
	}
	return n
}

// Gather returns a new dense matrix with the selected rows, in order.
func (d *Dense) Gather(rows []int) Matrix {
	return d.GatherReuse(rows, nil)
}

// GatherReuse gathers the selected rows into prev's storage when it has
// enough capacity, allocating only when it does not. prev must not alias d
// and must no longer be in use.
func (d *Dense) GatherReuse(rows []int, prev *Dense) *Dense {
	out := GrowDense(prev, len(rows), d.cols)
	for i, r := range rows {
		copy(out.Row(i), d.Row(r))
	}
	return out
}

// GrowDense returns a rows x cols dense matrix, reusing prev's header and
// backing slice when capacity allows. The returned matrix's entries are NOT
// zeroed when reused; callers must overwrite every cell (or use NewDense).
func GrowDense(prev *Dense, rows, cols int) *Dense {
	n := rows * cols
	if prev == nil {
		return NewDense(rows, cols)
	}
	if cap(prev.data) < n {
		prev.data = make([]float64, n)
	}
	prev.data = prev.data[:n]
	prev.rows, prev.cols = rows, cols
	return prev
}

// Clone returns a deep copy of d.
func (d *Dense) Clone() *Dense {
	out := NewDense(d.rows, d.cols)
	copy(out.data, d.data)
	return out
}

package feature

import "fmt"

// HStack horizontally concatenates matrices with equal row counts into one
// matrix whose columns are the inputs' columns in order. This is the "feature
// concatenation" operator of the paper (Figure 1): the model's full feature
// vector is the HStack of the independent feature vectors.
//
// If every input is dense the result is dense; otherwise the result is CSR.
// HStack of zero matrices returns an empty 0x0 dense matrix.
//
// HStack is the concat operator's whole-batch Apply, the path weld.Fit
// evaluates a training batch with. Like the per-row interpreted baseline
// (weld.RunInterpreted), it stands for the unoptimized pipeline, so it visits
// sparse rows one entry at a time on purpose: only the compiled assembler
// moves them as blocks (CSRBuilder.AppendRow), and what the optimized path is
// measured against does not get faster with it.
func HStack(ms ...Matrix) Matrix {
	if len(ms) == 0 {
		return NewDense(0, 0)
	}
	if len(ms) == 1 {
		return ms[0]
	}
	rows := ms[0].Rows()
	totalCols := 0
	allDense := true
	for i, m := range ms {
		if m.Rows() != rows {
			panic(fmt.Sprintf("feature: HStack: matrix %d has %d rows, want %d", i, m.Rows(), rows))
		}
		totalCols += m.Cols()
		if _, ok := m.(*Dense); !ok {
			allDense = false
		}
	}
	if allDense {
		out := NewDense(rows, totalCols)
		for r := 0; r < rows; r++ {
			dst := out.Row(r)
			off := 0
			for _, m := range ms {
				copy(dst[off:off+m.Cols()], m.(*Dense).Row(r))
				off += m.Cols()
			}
		}
		return out
	}
	nnz := 0
	for _, m := range ms {
		for r := 0; r < rows; r++ {
			nnz += m.RowNNZ(r)
		}
	}
	indptr := make([]int, rows+1)
	indices := make([]int, 0, nnz)
	values := make([]float64, 0, nnz)
	for r := 0; r < rows; r++ {
		off := 0
		for _, m := range ms {
			m.ForEachNZ(r, func(c int, v float64) {
				indices = append(indices, off+c)
				values = append(values, v)
			})
			off += m.Cols()
		}
		indptr[r+1] = len(indices)
	}
	return &CSR{rows: rows, cols: totalCols, indptr: indptr, indices: indices, values: values}
}

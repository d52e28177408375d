// Package value defines the data values that flow along transformation-graph
// edges. The compiled (Weld-like) executor moves whole columnar batches of
// typed data; the interpreted ("Python-like") executor moves boxed per-row
// values. Both representations are defined here, together with the O(1)-style
// conversions between them that the paper calls drivers.
package value

import (
	"fmt"

	"willump/internal/feature"
)

// Kind enumerates the columnar value kinds.
type Kind uint8

// Value kinds.
const (
	Invalid Kind = iota
	Strings      // a column of strings (raw text inputs)
	Floats       // a column of float64 scalars
	Ints         // a column of int64 scalars (identifiers, categories)
	Mat          // a batch of feature vectors (one row per data input)
	Tokens       // a column of token lists (intermediate text state)
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case Strings:
		return "strings"
	case Floats:
		return "floats"
	case Ints:
		return "ints"
	case Mat:
		return "matrix"
	case Tokens:
		return "tokens"
	default:
		return "invalid"
	}
}

// Value is a columnar batch of data for one graph edge. Exactly one payload
// field corresponding to Kind is set.
type Value struct {
	Kind    Kind
	Strings []string
	Floats  []float64
	Ints    []int64
	Mat     feature.Matrix
	Tokens  [][]string
}

// NewStrings wraps a string column.
func NewStrings(s []string) Value { return Value{Kind: Strings, Strings: s} }

// NewFloats wraps a float column.
func NewFloats(f []float64) Value { return Value{Kind: Floats, Floats: f} }

// NewInts wraps an int column.
func NewInts(i []int64) Value { return Value{Kind: Ints, Ints: i} }

// NewMat wraps a feature matrix.
func NewMat(m feature.Matrix) Value { return Value{Kind: Mat, Mat: m} }

// NewTokens wraps a column of token lists.
func NewTokens(t [][]string) Value { return Value{Kind: Tokens, Tokens: t} }

// Len returns the number of rows in the batch.
func (v Value) Len() int {
	switch v.Kind {
	case Strings:
		return len(v.Strings)
	case Floats:
		return len(v.Floats)
	case Ints:
		return len(v.Ints)
	case Mat:
		return v.Mat.Rows()
	case Tokens:
		return len(v.Tokens)
	default:
		return 0
	}
}

// Width returns the per-row width: 1 for scalar columns, Cols for matrices.
func (v Value) Width() int {
	if v.Kind == Mat {
		return v.Mat.Cols()
	}
	if v.Kind == Invalid {
		return 0
	}
	return 1
}

// Gather returns a new Value restricted to the given rows, in order.
func (v Value) Gather(rows []int) Value {
	var out Value
	GatherInto(&out, v, rows)
	return out
}

// GatherInto gathers the given rows of src into dst, reusing dst's backing
// buffers when its kind matches src's and capacity allows. dst must be
// exclusively owned by the caller and must not alias src; the pooled
// executor tracks buffer ownership per plan slot to guarantee both.
func GatherInto(dst *Value, src Value, rows []int) {
	reuse := src.Kind == dst.Kind
	switch src.Kind {
	case Strings:
		*dst = NewStrings(gather(dst.Strings, src.Strings, rows, reuse))
	case Floats:
		*dst = NewFloats(gather(dst.Floats, src.Floats, rows, reuse))
	case Ints:
		*dst = NewInts(gather(dst.Ints, src.Ints, rows, reuse))
	case Tokens:
		*dst = NewTokens(gather(dst.Tokens, src.Tokens, rows, reuse))
	case Mat:
		switch m := src.Mat.(type) {
		case *feature.Dense:
			prev, _ := dst.Mat.(*feature.Dense)
			if !reuse {
				prev = nil
			}
			*dst = NewMat(m.GatherReuse(rows, prev))
		case *feature.CSR:
			prev, _ := dst.Mat.(*feature.CSR)
			if !reuse {
				prev = nil
			}
			*dst = NewMat(m.GatherReuse(rows, prev))
		default:
			*dst = NewMat(src.Mat.Gather(rows))
		}
	default:
		*dst = Value{}
	}
}

// Slice returns rows [lo, hi) of a slice-backed column as a view sharing its
// backing array, capped at hi so an append cannot reach past the view. A
// matrix has no such view: ok is false.
func (v Value) Slice(lo, hi int) (view Value, ok bool) {
	switch v.Kind {
	case Strings:
		return NewStrings(v.Strings[lo:hi:hi]), true
	case Floats:
		return NewFloats(v.Floats[lo:hi:hi]), true
	case Ints:
		return NewInts(v.Ints[lo:hi:hi]), true
	case Tokens:
		return NewTokens(v.Tokens[lo:hi:hi]), true
	}
	return Value{}, false
}

// gather copies src's selected rows into dst (see growSlice).
func gather[T any](dst, src []T, rows []int, reuse bool) []T {
	out := growSlice(dst, len(rows), reuse)
	for i, r := range rows {
		out[i] = src[r]
	}
	return out
}

// growSlice returns a slice of length n, reusing s when reuse is requested
// and capacity allows. Contents are unspecified.
func growSlice[T any](s []T, n int, reuse bool) []T {
	if !reuse || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// AsMatrix converts the value to a feature matrix: scalar columns become
// single-column dense matrices.
func (v Value) AsMatrix() (feature.Matrix, error) {
	switch v.Kind {
	case Mat:
		return v.Mat, nil
	case Floats:
		return feature.DenseFromColumn(v.Floats), nil
	case Ints:
		col := make([]float64, len(v.Ints))
		for i, x := range v.Ints {
			col[i] = float64(x)
		}
		return feature.DenseFromColumn(col), nil
	default:
		return nil, fmt.Errorf("value: cannot view %s as matrix", v.Kind)
	}
}

// Box returns the boxed ("Python object") representation of row r: string,
// float64, int64, or []float64. This is the driver direction compiled->
// interpreted; boxing a matrix row materializes it, like handing a NumPy row
// to pure Python.
func (v Value) Box(r int) any {
	switch v.Kind {
	case Strings:
		return v.Strings[r]
	case Floats:
		return v.Floats[r]
	case Ints:
		return v.Ints[r]
	case Mat:
		return feature.RowDense(v.Mat, r, nil)
	case Tokens:
		return v.Tokens[r]
	default:
		return nil
	}
}

// FromBoxed assembles a columnar Value from boxed per-row values, the driver
// direction interpreted->compiled. All rows must have the same boxed type.
// Rows boxed as []float64 become a dense matrix.
func FromBoxed(rows []any) (Value, error) {
	var v Value
	if err := FromBoxedInto(rows, &v); err != nil {
		return Value{}, err
	}
	return v, nil
}

// FromBoxedInto is FromBoxed writing into dst, reusing dst's buffers when
// its kind matches the boxed rows and capacity allows. dst must be
// exclusively owned by the caller.
func FromBoxedInto(rows []any, dst *Value) error {
	v, err := fromBoxedReuse(rows, *dst)
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

func fromBoxedReuse(rows []any, prev Value) (Value, error) {
	if len(rows) == 0 {
		return Value{}, fmt.Errorf("value: FromBoxed on empty batch")
	}
	switch rows[0].(type) {
	case string:
		out := growSlice(prev.Strings, len(rows), prev.Kind == Strings)
		for i, r := range rows {
			s, ok := r.(string)
			if !ok {
				return Value{}, fmt.Errorf("value: FromBoxed: row %d is %T, want string", i, r)
			}
			out[i] = s
		}
		return NewStrings(out), nil
	case float64:
		out := growSlice(prev.Floats, len(rows), prev.Kind == Floats)
		for i, r := range rows {
			f, ok := r.(float64)
			if !ok {
				return Value{}, fmt.Errorf("value: FromBoxed: row %d is %T, want float64", i, r)
			}
			out[i] = f
		}
		return NewFloats(out), nil
	case int64:
		out := growSlice(prev.Ints, len(rows), prev.Kind == Ints)
		for i, r := range rows {
			n, ok := r.(int64)
			if !ok {
				return Value{}, fmt.Errorf("value: FromBoxed: row %d is %T, want int64", i, r)
			}
			out[i] = n
		}
		return NewInts(out), nil
	case []float64:
		first := rows[0].([]float64)
		var prevDense *feature.Dense
		if prev.Kind == Mat {
			prevDense, _ = prev.Mat.(*feature.Dense)
		}
		m := feature.GrowDense(prevDense, len(rows), len(first))
		for i, r := range rows {
			vec, ok := r.([]float64)
			if !ok {
				return Value{}, fmt.Errorf("value: FromBoxed: row %d is %T, want []float64", i, r)
			}
			if len(vec) != len(first) {
				return Value{}, fmt.Errorf("value: FromBoxed: row %d has %d cols, want %d", i, len(vec), len(first))
			}
			copy(m.Row(i), vec)
		}
		return NewMat(m), nil
	case []string:
		out := growSlice(prev.Tokens, len(rows), prev.Kind == Tokens)
		for i, r := range rows {
			ts, ok := r.([]string)
			if !ok {
				return Value{}, fmt.Errorf("value: FromBoxed: row %d is %T, want []string", i, r)
			}
			out[i] = ts
		}
		return NewTokens(out), nil
	default:
		return Value{}, fmt.Errorf("value: FromBoxed: unsupported boxed type %T", rows[0])
	}
}

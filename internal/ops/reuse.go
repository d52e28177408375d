package ops

import (
	"context"
	"fmt"
	"strings"
	"unsafe"

	"willump/internal/feature"
	"willump/internal/graph"
	"willump/internal/value"
)

// This file implements graph.IntoApplier — the pooled executor's
// allocation-free operator contract — for the hot built-in operators. Every
// ApplyInto writes its output into buffers owned by the per-step scratch cell
// the executor threads through, so the steady-state predict path stops
// allocating once the buffers have grown to the workload's shape. Each
// operator's Apply is applyFresh over its ApplyInto, so the two agree by
// construction and input validation lives here only.
//
// All reuse state lives in the scratch cell (never reclaimed from *out):
// the executor guarantees a step's scratch is used by exactly one run at a
// time, which makes the ownership argument local — an operator only ever
// recycles matrices it built itself on a previous execution of the same
// plan slot.

// Interface conformance for the reuse contract.
var (
	_ graph.IntoApplier     = (*TFIDF)(nil)
	_ graph.IntoApplier     = (*CountVectorizer)(nil)
	_ graph.IntoApplier     = (*HashingVectorizer)(nil)
	_ graph.IntoApplier     = (*FusedText)(nil)
	_ graph.IntoApplier     = (*OneHot)(nil)
	_ graph.IntoApplier     = (*Ordinal)(nil)
	_ graph.IntoApplier     = (*StandardScale)(nil)
	_ graph.IntoApplier     = (*NumericStats)(nil)
	_ graph.IntoApplier     = (*TextStats)(nil)
	_ graph.IntoApplier     = (*Lookup)(nil)
	_ graph.CtxBoxedApplier = (*Lookup)(nil)
	_ graph.IntoApplier     = (*Clean)(nil)
	_ graph.IntoApplier     = (*Tokenize)(nil)
	_ graph.IntoApplier     = (*WordNGrams)(nil)
	_ graph.IntoApplier     = (*CharNGrams)(nil)
	_ graph.Elementwise     = (*Clip)(nil)
)

// applyFresh is the Apply of every built-in IntoApplier: ApplyInto over an
// empty output slot and scratch cell, so the result owns fresh buffers.
func applyFresh(op graph.IntoApplier, ins []value.Value) (value.Value, error) {
	var out value.Value
	var scratch any
	if err := op.ApplyInto(ins, &out, &scratch); err != nil {
		return value.Value{}, err
	}
	return out, nil
}

// csrScratch backs the sparse-output vectorizers: a reused CSR builder, the
// matrix whose slices it reclaims between runs, the per-row sparse
// accumulator, and the fused chain's document bytes and token ids.
type csrScratch struct {
	b   feature.CSRBuilder
	m   *feature.CSR
	acc sparseAcc
	doc []byte
	ids []int32
}

func getCSRScratch(scratch *any) *csrScratch {
	s, _ := (*scratch).(*csrScratch)
	if s == nil {
		s = &csrScratch{}
		*scratch = s
	}
	return s
}

// finish builds the CSR result, reusing the scratch-owned matrix header.
func (s *csrScratch) finish() *feature.CSR {
	if s.m == nil {
		s.m = s.b.Build()
	} else {
		s.b.BuildInto(s.m)
	}
	return s.m
}

// bufScratch backs the dense-output and column-output operators.
type bufScratch struct {
	d    *feature.Dense
	f    []float64
	strs []string
	toks [][]string
	b    []byte
	ends []int
}

func getBufScratch(scratch *any) *bufScratch {
	s, _ := (*scratch).(*bufScratch)
	if s == nil {
		s = &bufScratch{}
		*scratch = s
	}
	return s
}

func (s *bufScratch) dense(rows, cols int) *feature.Dense {
	s.d = feature.GrowDense(s.d, rows, cols)
	return s.d
}

func (s *bufScratch) floats(n int) []float64 {
	if cap(s.f) < n {
		s.f = make([]float64, n)
	}
	s.f = s.f[:n]
	return s.f
}

func (s *bufScratch) strings(n int) []string {
	if cap(s.strs) < n {
		s.strs = make([]string, n)
	}
	s.strs = s.strs[:n]
	return s.strs
}

func (s *bufScratch) tokens(n int) [][]string {
	if cap(s.toks) < n {
		s.toks = make([][]string, n)
	}
	s.toks = s.toks[:n]
	return s.toks
}

// checkOneTokens validates the single-token-column arity/kind contract.
func checkOneTokens(name string, ins []value.Value) error {
	if len(ins) != 1 {
		return errArity(name, len(ins), 1)
	}
	if ins[0].Kind != value.Tokens {
		return errKind(name, 0, ins[0].Kind, value.Tokens)
	}
	return nil
}

// checkOneStrings validates the single-string-column arity/kind contract.
func checkOneStrings(name string, ins []value.Value) error {
	if len(ins) != 1 {
		return errArity(name, len(ins), 1)
	}
	if ins[0].Kind != value.Strings {
		return errKind(name, 0, ins[0].Kind, value.Strings)
	}
	return nil
}

// ApplyInto implements graph.IntoApplier.
func (h *HashingVectorizer) ApplyInto(ins []value.Value, out *value.Value, scratch *any) error {
	if err := checkOneTokens(h.Name(), ins); err != nil {
		return err
	}
	s := getCSRScratch(scratch)
	s.b.ResetFrom(h.Buckets, s.m)
	for _, doc := range ins[0].Tokens {
		for _, tok := range doc {
			s.b.Add(h.bucket(tok), 1)
		}
		s.b.EndRow()
	}
	*out = value.NewMat(s.finish())
	return nil
}

// ApplyInto implements graph.IntoApplier: the fused text chain streams each
// document through cleaning, tokenization, and vectorization into the
// reused CSR builder (see row).
func (f *FusedText) ApplyInto(ins []value.Value, out *value.Value, scratch *any) error {
	if err := checkOneStrings(f.Name(), ins); err != nil {
		return err
	}
	s := getCSRScratch(scratch)
	if f.hv == nil {
		s.acc.reset(f.Width())
	}
	s.b.ResetFrom(f.Width(), s.m)
	for _, doc := range ins[0].Strings {
		f.row(doc, s)
	}
	*out = value.NewMat(s.finish())
	return nil
}

// ApplyInto implements graph.IntoApplier.
func (o *OneHot) ApplyInto(ins []value.Value, out *value.Value, scratch *any) error {
	if !o.fitted {
		return fmt.Errorf("ops: %s: Apply before Fit", o.Name())
	}
	if err := checkOneStrings(o.Name(), ins); err != nil {
		return err
	}
	s := getCSRScratch(scratch)
	s.b.ResetFrom(len(o.cats), s.m)
	for _, str := range ins[0].Strings {
		if col, ok := o.cats[str]; ok {
			s.b.Add(col, 1)
		}
		s.b.EndRow()
	}
	*out = value.NewMat(s.finish())
	return nil
}

// ApplyInto implements graph.IntoApplier.
func (o *Ordinal) ApplyInto(ins []value.Value, out *value.Value, scratch *any) error {
	if !o.fitted {
		return fmt.Errorf("ops: %s: Apply before Fit", o.Name())
	}
	if err := checkOneStrings(o.Name(), ins); err != nil {
		return err
	}
	s := getBufScratch(scratch)
	dst := s.floats(len(ins[0].Strings))
	for i, str := range ins[0].Strings {
		if code, ok := o.codes[str]; ok {
			dst[i] = float64(code)
		} else {
			dst[i] = -1
		}
	}
	*out = value.NewFloats(dst)
	return nil
}

// ApplyInto implements graph.IntoApplier.
func (s *StandardScale) ApplyInto(ins []value.Value, out *value.Value, scratch *any) error {
	if !s.fitted {
		return fmt.Errorf("ops: %s: Apply before Fit", s.Name())
	}
	if len(ins) != 1 {
		return errArity(s.Name(), len(ins), 1)
	}
	m, err := ins[0].AsMatrix()
	if err != nil {
		return fmt.Errorf("ops: %s: %w", s.Name(), err)
	}
	if m.Cols() != len(s.mean) {
		return fmt.Errorf("ops: %s: input has %d cols, fitted on %d", s.Name(), m.Cols(), len(s.mean))
	}
	sc := getBufScratch(scratch)
	dst := sc.dense(m.Rows(), m.Cols())
	for r := 0; r < m.Rows(); r++ {
		row := dst.Row(r)
		for c := 0; c < m.Cols(); c++ {
			row[c] = (m.At(r, c) - s.mean[c]) * s.invStd[c]
		}
	}
	*out = value.NewMat(dst)
	return nil
}

// ApplyInto implements graph.IntoApplier.
func (n *NumericStats) ApplyInto(ins []value.Value, out *value.Value, scratch *any) error {
	if len(ins) != 1 {
		return errArity(n.Name(), len(ins), 1)
	}
	s := getBufScratch(scratch)
	var xs []float64
	switch ins[0].Kind {
	case value.Floats:
		xs = ins[0].Floats
	case value.Ints:
		xs = s.floats(len(ins[0].Ints))
		for i, v := range ins[0].Ints {
			xs[i] = float64(v)
		}
	default:
		return errKind(n.Name(), 0, ins[0].Kind, value.Floats)
	}
	dst := s.dense(len(xs), n.Width())
	for i, x := range xs {
		n.row(x, dst.Row(i))
	}
	*out = value.NewMat(dst)
	return nil
}

// ApplyInto implements graph.IntoApplier.
func (t *TextStats) ApplyInto(ins []value.Value, out *value.Value, scratch *any) error {
	if err := checkOneStrings(t.Name(), ins); err != nil {
		return err
	}
	s := getBufScratch(scratch)
	dst := s.dense(len(ins[0].Strings), t.Width())
	for i, str := range ins[0].Strings {
		t.statsRow(str, dst.Row(i))
	}
	*out = value.NewMat(dst)
	return nil
}

// Ratio implements no ApplyInto on purpose: it is non-compilable, so the
// executor always routes it through the interpreted-boundary drivers, whose
// buffer reuse lives in the per-step driver scratch (weld's pyScratch and
// value.FromBoxedInto) rather than the operator.

// RowLookup is an optional Table fast path: LookupRow returns the stored
// feature vector for one key (shared, read-only; nil when missing) without
// allocating. Implementations must count requests like LookupBatch.
type RowLookup interface {
	LookupRow(key int64) []float64
}

// LookupRow implements RowLookup.
func (t *LocalTable) LookupRow(key int64) []float64 {
	t.requests.Add(1)
	return t.rows[key]
}

// ApplyInto implements graph.IntoApplier. Tables exposing RowLookup serve
// each key straight into the reused dense output; others fall back to one
// LookupBatch per call.
func (l *Lookup) ApplyInto(ins []value.Value, out *value.Value, scratch *any) error {
	if l.table == nil {
		return fmt.Errorf("ops: %s: no table bound; supply one when loading the artifact", l.Name())
	}
	if len(ins) != 1 {
		return errArity(l.Name(), len(ins), 1)
	}
	if ins[0].Kind != value.Ints {
		return errKind(l.Name(), 0, ins[0].Kind, value.Ints)
	}
	keys := ins[0].Ints
	s := getBufScratch(scratch)
	dst := s.dense(len(keys), l.dim)
	if rl, ok := l.table.(RowLookup); ok {
		for i, k := range keys {
			row := dst.Row(i)
			if v := rl.LookupRow(k); v != nil {
				copy(row, v)
			} else {
				zeroFloats(row)
			}
		}
	} else {
		// No ctx parameter exists on the ApplyInto contract; ctx-aware tables
		// are routed through ApplyCtx by the executor before reaching here,
		// so this funnel only ever sees context-free tables (and lookupRows
		// degrades to their plain LookupBatch).
		vecs, err := l.lookupRows(context.Background(), keys)
		if err != nil {
			return fmt.Errorf("ops: %s: %w", l.Name(), err)
		}
		if len(vecs) != len(keys) {
			return fmt.Errorf("ops: %s: table returned %d rows, want %d", l.Name(), len(vecs), len(keys))
		}
		for i, v := range vecs {
			row := dst.Row(i)
			if v != nil {
				copy(row, v)
			} else {
				zeroFloats(row)
			}
		}
	}
	*out = value.NewMat(dst)
	return nil
}

func zeroFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// ApplyInto implements graph.IntoApplier. The whole column is cleaned into
// one reused byte buffer, and the rows are substrings of a string viewing
// that buffer (unsafe.String), so a warm call allocates nothing.
//
// The rows live as long as the output-reuse contract lets any ApplyInto
// output live: until the next ApplyInto with the same scratch cell, which
// rewrites the buffer under them. Nothing may keep them longer — the
// executor consumes a run's values before its state is reused, and no
// operator retains its inputs. Apply runs ApplyInto on a fresh scratch cell
// no one reuses (applyFresh), so its rows are ordinary immutable strings.
func (c *Clean) ApplyInto(ins []value.Value, out *value.Value, scratch *any) error {
	if err := checkOneStrings(c.Name(), ins); err != nil {
		return err
	}
	s := getBufScratch(scratch)
	s.b, s.ends = s.b[:0], s.ends[:0]
	for _, str := range ins[0].Strings {
		s.b = appendClean(s.b, str)
		s.ends = append(s.ends, len(s.b))
	}
	all := unsafe.String(unsafe.SliceData(s.b), len(s.b))
	dst := s.strings(len(s.ends))
	start := 0
	for i, end := range s.ends {
		dst[i] = all[start:end]
		start = end
	}
	*out = value.NewStrings(dst)
	return nil
}

// ApplyInto implements graph.IntoApplier (outer column reuse).
func (t *Tokenize) ApplyInto(ins []value.Value, out *value.Value, scratch *any) error {
	if err := checkOneStrings(t.Name(), ins); err != nil {
		return err
	}
	s := getBufScratch(scratch)
	dst := s.tokens(len(ins[0].Strings))
	for i, str := range ins[0].Strings {
		dst[i] = strings.Fields(str)
	}
	*out = value.NewTokens(dst)
	return nil
}

// ApplyInto implements graph.IntoApplier (outer column reuse).
func (w *WordNGrams) ApplyInto(ins []value.Value, out *value.Value, scratch *any) error {
	if err := checkOneTokens(w.Name(), ins); err != nil {
		return err
	}
	s := getBufScratch(scratch)
	dst := s.tokens(len(ins[0].Tokens))
	for i, toks := range ins[0].Tokens {
		dst[i] = w.expand(toks)
	}
	*out = value.NewTokens(dst)
	return nil
}

// ApplyInto implements graph.IntoApplier (outer column reuse).
func (c *CharNGrams) ApplyInto(ins []value.Value, out *value.Value, scratch *any) error {
	if err := checkOneStrings(c.Name(), ins); err != nil {
		return err
	}
	s := getBufScratch(scratch)
	dst := s.tokens(len(ins[0].Strings))
	for i, str := range ins[0].Strings {
		dst[i] = c.expand(str)
	}
	*out = value.NewTokens(dst)
	return nil
}

// ApplyScalar implements graph.Elementwise: the pooled executor folds the
// clip over materialized feature buffers in place, with the same sparse
// semantics as Apply (only stored entries are mapped).
func (c *Clip) ApplyScalar(v float64) float64 { return c.clip(v) }

// SparseSafe reports whether the elementwise application preserves implicit
// zeros, i.e. whether Apply would accept sparse inputs. The executor routes
// bounds that exclude zero through the generic Apply path so their sparse
// error behavior is preserved.
func (c *Clip) SparseSafe() bool { return c.Lo <= 0 && c.Hi >= 0 }

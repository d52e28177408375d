package ops

import (
	"strings"

	"willump/internal/feature"
	"willump/internal/graph"
	"willump/internal/value"
)

// FusedText is a fused text-vectorization chain: an optional Clean, then a
// token source (Tokenize optionally followed by WordNGrams, or CharNGrams),
// then a vectorizer (TFIDF, CountVectorizer, or HashingVectorizer). The
// fused operator streams each document through the whole chain in one pass,
// never materializing intermediate token columns for the batch — the
// equivalent of the paper's parameterized Weld TF-IDF template with loop
// fusion applied (section 5.2).
type FusedText struct {
	clean *Clean      // optional
	tok   *Tokenize   // either tok (+ optional wng) or cng
	wng   *WordNGrams // optional
	cng   *CharNGrams
	tfidf *TFIDF // exactly one vectorizer is non-nil
	cv    *CountVectorizer
	hv    *HashingVectorizer

	label string
}

// FuseTextChain attempts to fuse a linear operator chain (in execution
// order) into a single FusedText operator. It returns (nil, false) when the
// chain does not match a known template. Fusion requires every stateful
// operator in the chain to be fitted already.
func FuseTextChain(chain []graph.Op) (graph.Op, bool) {
	if len(chain) < 2 {
		return nil, false
	}
	f := &FusedText{}
	i := 0
	if c, ok := chain[i].(*Clean); ok {
		f.clean = c
		i++
	}
	if i >= len(chain) {
		return nil, false
	}
	switch t := chain[i].(type) {
	case *Tokenize:
		f.tok = t
		i++
		if i < len(chain) {
			if w, ok := chain[i].(*WordNGrams); ok {
				f.wng = w
				i++
			}
		}
	case *CharNGrams:
		f.cng = t
		i++
	default:
		return nil, false
	}
	if i != len(chain)-1 {
		return nil, false
	}
	switch v := chain[i].(type) {
	case *TFIDF:
		if !v.Fitted() {
			return nil, false
		}
		f.tfidf = v
	case *CountVectorizer:
		if !v.Fitted() {
			return nil, false
		}
		f.cv = v
	case *HashingVectorizer:
		f.hv = v
	default:
		return nil, false
	}
	var parts []string
	for _, op := range chain {
		parts = append(parts, op.Name())
	}
	f.label = "fused(" + strings.Join(parts, "+") + ")"
	return f, true
}

// Name implements graph.Op.
func (f *FusedText) Name() string { return f.label }

// Compilable implements graph.Op.
func (f *FusedText) Compilable() bool { return true }

// Commutative implements graph.Op.
func (f *FusedText) Commutative() bool { return false }

// Width returns the fused output width.
func (f *FusedText) Width() int {
	switch {
	case f.tfidf != nil:
		return f.tfidf.Width()
	case f.cv != nil:
		return f.cv.Width()
	default:
		return f.hv.Width()
	}
}

// tokensFor streams one document through the cleaning/tokenizing stages,
// reusing the scratch token slice.
func (f *FusedText) tokensFor(s string, scratch []string) []string {
	if f.clean != nil {
		s = cleanString(s)
	}
	if f.cng != nil {
		scratch = scratch[:0]
		for n := f.cng.MinN; n <= f.cng.MaxN; n++ {
			for i := 0; i+n <= len(s); i++ {
				scratch = append(scratch, s[i:i+n])
			}
		}
		return scratch
	}
	toks := strings.Fields(s)
	if f.wng == nil {
		return toks
	}
	scratch = scratch[:0]
	for n := f.wng.MinN; n <= f.wng.MaxN; n++ {
		for i := 0; i+n <= len(toks); i++ {
			if n == 1 {
				scratch = append(scratch, toks[i])
			} else {
				scratch = append(scratch, strings.Join(toks[i:i+n], " "))
			}
		}
	}
	return scratch
}

// Apply implements graph.Op: one pass per document straight into the CSR
// builder.
func (f *FusedText) Apply(ins []value.Value) (value.Value, error) {
	return applyFresh(f, ins)
}

// ApplyBoxed implements graph.Op. Fused ops never run on the interpreted
// path in practice (the interpreted executor models the unoptimized
// pipeline), but the implementation is provided for interface completeness.
func (f *FusedText) ApplyBoxed(ins []any) (any, error) {
	if len(ins) != 1 {
		return nil, errArity(f.Name(), len(ins), 1)
	}
	s, ok := ins[0].(string)
	if !ok {
		return nil, errBoxed(f.Name(), 0, ins[0], "string")
	}
	v, err := f.Apply([]value.Value{value.NewStrings([]string{s})})
	if err != nil {
		return nil, err
	}
	return feature.RowDense(v.Mat, 0, nil), nil
}

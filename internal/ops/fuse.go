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
	vec   vocabVectorizer // exactly one of vec and hv is non-nil
	hv    *HashingVectorizer

	// The fitted vocabulary compiled for the chain's token source, built
	// once by FuseTextChain: words for Tokenize chains, grams for CharNGrams
	// chains. Both nil under a HashingVectorizer, which has no vocabulary.
	words *wordIndex
	grams *gramIndex

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
	case vocabVectorizer:
		if !v.terms().fitted {
			return nil, false
		}
		f.vec = v
	case *HashingVectorizer:
		f.hv = v
	default:
		return nil, false
	}
	if f.vec != nil {
		vocab := f.vec.terms().vocab
		switch {
		case f.cng != nil:
			f.grams = newGramIndex(vocab, f.cng.MinN, f.cng.MaxN)
		case f.wng != nil:
			f.words = newWordIndex(vocab, f.wng.MinN, f.wng.MaxN)
		default:
			f.words = newWordIndex(vocab, 1, 1)
		}
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
	if f.vec != nil {
		return f.vec.terms().Width()
	}
	return f.hv.Width()
}

// Dots reports whether the chain ends in a vocabulary vectorizer, whose rows
// DotInto can fold into a dot product.
func (f *FusedText) Dots() bool { return f.vec != nil }

// row streams one document through the whole chain into the scratch's sink
// (a hashing chain's into its CSR builder): the (cleaned) bytes land in the
// scratch document buffer, the token source walks them once, and nothing
// per token is allocated or built as a string.
func (f *FusedText) row(doc string, s *csrScratch) {
	if f.clean != nil {
		s.doc = appendClean(s.doc[:0], doc)
	} else {
		s.doc = append(s.doc[:0], doc...)
	}
	switch {
	case f.hv != nil:
		f.hashRow(s)
		return
	case f.grams != nil:
		f.grams.count(s.doc, &s.acc)
	default:
		s.ids = f.words.count(s.doc, &s.acc, s.ids)
	}
	f.vec.emitRow(&s.acc, &s.out)
}

// hashRow is row's HashingVectorizer tail: every token's bucket is its
// FNV-1a hash, folded over the document bytes in place (a word n-gram's
// over its words and the single spaces that would join them).
func (f *FusedText) hashRow(s *csrScratch) {
	doc, buckets := s.doc, uint32(f.hv.Buckets)
	if f.cng != nil {
		for n := f.cng.MinN; n <= f.cng.MaxN; n++ {
			for i := 0; i+n <= len(doc); i++ {
				s.b.Add(int(fnv32a(fnvOffset32, doc[i:i+n])%buckets), 1)
			}
		}
		s.b.EndRow()
		return
	}
	s.ids = s.ids[:0] // field bounds: start, end pairs
	for i := 0; ; {
		start, end, _ := nextField(doc, i)
		if start == end {
			break
		}
		s.ids = append(s.ids, int32(start), int32(end))
		i = end
	}
	minN, maxN := 1, 1
	if f.wng != nil {
		minN, maxN = f.wng.MinN, f.wng.MaxN
	}
	for n := minN; n <= maxN; n++ {
		for i := 0; i+2*n <= len(s.ids); i += 2 {
			h := uint32(fnvOffset32)
			for j := i; j < i+2*n; j += 2 {
				if j > i {
					h = (h ^ ' ') * fnvPrime32
				}
				h = fnv32a(h, doc[s.ids[j]:s.ids[j+1]])
			}
			s.b.Add(int(h%buckets), 1)
		}
	}
	s.b.EndRow()
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

package ops

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"unicode/utf8"

	"willump/internal/artifact"
	"willump/internal/feature"
	"willump/internal/graph"
	"willump/internal/value"
)

// Norm selects the row normalization applied by vectorizers.
type Norm int

// Supported norms.
const (
	NormNone Norm = iota
	NormL1
	NormL2
)

// vocabulary is the fitted term -> column map both vocabulary vectorizers
// (TFIDF, CountVectorizer) embed. The two differ only in emitRow — how a
// document's drained term counts become row entries — so they share one
// Fit ranking, one Apply body and one boxed body (see vocabVectorizer).
type vocabulary struct {
	vocab  map[string]int
	fitted bool
}

// Fitted implements Fitter.
func (v *vocabulary) Fitted() bool { return v.fitted }

// Width returns the learned vocabulary size. Valid after Fit.
func (v *vocabulary) Width() int { return len(v.vocab) }

// Vocabulary returns the fitted term -> column map (shared, do not mutate).
func (v *vocabulary) Vocabulary() map[string]int { return v.vocab }

func (v *vocabulary) terms() *vocabulary { return v }

// fit learns the vocabulary from a token batch: the maxFeatures terms of
// highest document frequency, numbered in lexicographic order. It returns
// the kept terms with their document frequencies, in column order.
func (v *vocabulary) fit(op string, maxFeatures int, ins []value.Value) ([]keyCount, error) {
	if err := checkOneTokens(op, ins); err != nil {
		return nil, err
	}
	kept := rankByCount(docFreq(ins[0].Tokens), maxFeatures, true)
	v.vocab = columns(kept)
	v.fitted = true
	return kept, nil
}

// vocabVectorizer is a vectorizer over a fitted vocabulary.
type vocabVectorizer interface {
	graph.Op
	terms() *vocabulary
	// emitRow drains one document's term counts from acc and emits the
	// document's row to out.
	emitRow(acc *sparseAcc, out *rowSink)
}

// rowSink is where a vectorizer emits its rows: into the CSR builder b, or,
// when w is set, into dot, the running dot product of the current row with
// the weights w (FusedText.DotInto).
type rowSink struct {
	b   *feature.CSRBuilder
	w   []float64
	dot float64
}

// put emits one row whose entries are (cols[k], vals[k]/div): appended to b
// as one block (vals is scaled in place), or, each nonzero one times its
// weight, added to dot in ascending column order — the products, in the
// order, feature.Dot adds over the appended row.
func (s *rowSink) put(cols []int, vals []float64, div float64) {
	if s.w == nil {
		for k := range vals {
			vals[k] /= div
		}
		s.b.AppendRow(0, cols, vals)
		s.b.EndRow()
		return
	}
	dot, w := s.dot, s.w
	for k, c := range cols {
		if v := vals[k] / div; v != 0 {
			dot += v * w[c]
		}
	}
	s.dot = dot
}

// keyCount is one counted key: a term with its document frequency, or a
// category with its frequency.
type keyCount struct {
	key string
	n   int
}

// docFreq counts, for each term, the documents it occurs in.
func docFreq(docs [][]string) map[string]int {
	df := make(map[string]int)
	seen := make(map[string]bool)
	for _, doc := range docs {
		clear(seen)
		for _, tok := range doc {
			if !seen[tok] {
				seen[tok] = true
				df[tok]++
			}
		}
	}
	return df
}

// rankByCount orders counted keys by count descending, then key ascending,
// and keeps the first max of them (all when max < 0). lexical renumbers the
// kept keys in key order: the stable column order of the vocabulary and
// one-hot encoders.
func rankByCount(counts map[string]int, max int, lexical bool) []keyCount {
	ranked := make([]keyCount, 0, len(counts))
	for k, n := range counts {
		ranked = append(ranked, keyCount{k, n})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].key < ranked[j].key
	})
	if max >= 0 && len(ranked) > max {
		ranked = ranked[:max]
	}
	if lexical {
		sort.Slice(ranked, func(i, j int) bool { return ranked[i].key < ranked[j].key })
	}
	return ranked
}

// columns numbers ranked keys by position. The map owns its keys: a key is
// typically a substring of a training column (a token of a document) and
// would keep that column alive.
func columns(ranked []keyCount) map[string]int {
	cols := make(map[string]int, len(ranked))
	for i, kc := range ranked {
		cols[strings.Clone(kc.key)] = i
	}
	return cols
}

// TFIDF converts token lists into TF-IDF weighted sparse feature vectors.
// Fit learns the vocabulary (capped at MaxFeatures by document frequency)
// and smoothed IDF weights; Apply transforms batches to CSR matrices.
// This matches the paper's TF-IDF featurization template, parameterized by
// n-gram source and norm (section 5.2, "Code Generation").
type TFIDF struct {
	MaxFeatures int
	Norm        Norm

	vocabulary
	idf []float64
}

// NewTFIDF returns an unfitted TF-IDF vectorizer.
func NewTFIDF(maxFeatures int, norm Norm) *TFIDF {
	if maxFeatures < 1 {
		panic("ops: NewTFIDF: maxFeatures must be positive")
	}
	return &TFIDF{MaxFeatures: maxFeatures, Norm: norm}
}

// Name implements graph.Op.
func (t *TFIDF) Name() string { return "tfidf" }

// Compilable implements graph.Op.
func (t *TFIDF) Compilable() bool { return true }

// Commutative implements graph.Op.
func (t *TFIDF) Commutative() bool { return false }

// Fit implements Fitter: learns vocabulary and IDF from the token batch.
func (t *TFIDF) Fit(ins []value.Value) error {
	kept, err := t.fit(t.Name(), t.MaxFeatures, ins)
	if err != nil {
		return err
	}
	t.idf = make([]float64, len(kept))
	n := float64(len(ins[0].Tokens))
	for i, kc := range kept {
		// Smoothed IDF as in standard implementations.
		t.idf[i] = math.Log((1+n)/(1+float64(kc.n))) + 1
	}
	return nil
}

// sparseAcc is the sparse accumulator behind every vocabulary vectorizer: a
// dense counter per column plus a bitmap of the touched columns. Draining
// walks the bitmap in order, so a row's columns come out ascending without a
// sort — which also fixes the order normalization sums accumulate in, making
// every transform bit-deterministic (artifact round-trip guarantees depend
// on it). Counters and bitmap are all zero between rows.
type sparseAcc struct {
	counts  []uint32
	touched []uint64
	cols    []int
	tf      []float64
}

// reset sizes the accumulator for a vocabulary of width columns.
func (a *sparseAcc) reset(width int) {
	if len(a.counts) != width {
		a.counts = make([]uint32, width)
		a.touched = make([]uint64, (width+63)/64)
	}
}

// hit counts one occurrence of column col. The touched bit is set on every
// hit, not tested for first: about half of a row's hits are first hits, a
// branch no predictor learns.
func (a *sparseAcc) hit(col int) {
	a.touched[col>>6] |= 1 << (uint(col) & 63)
	a.counts[col]++
}

// drain returns the touched columns in ascending order with their counts,
// each times weight[col] unless weight is nil, and the sum of the squares of
// those values, added in the same order; it zeroes the accumulator for the
// next row. The slices are reused by the next drain; callers may overwrite
// tf.
func (a *sparseAcc) drain(weight []float64) (cols []int, tf []float64, sq float64) {
	cols, tf = a.cols[:0], a.tf[:0]
	for w, word := range a.touched {
		if word == 0 {
			continue
		}
		a.touched[w] = 0
		for ; word != 0; word &= word - 1 {
			col := w<<6 | bits.TrailingZeros64(word)
			v := float64(a.counts[col])
			if weight != nil {
				v *= weight[col]
			}
			cols = append(cols, col)
			tf = append(tf, v)
			sq += v * v
			a.counts[col] = 0
		}
	}
	a.cols, a.tf = cols, tf
	return cols, tf, sq
}

// countTokens tallies the vocabulary hits of one token list.
func (a *sparseAcc) countTokens(doc []string, vocab map[string]int) {
	for _, tok := range doc {
		if col, ok := vocab[tok]; ok {
			a.hit(col)
		}
	}
}

// emitRow emits one document's TF-IDF row: the drain scales its term counts
// by idf and sums their squares, and each entry is divided by the norm as it
// is emitted. Norms sum in ascending column order.
func (t *TFIDF) emitRow(acc *sparseAcc, out *rowSink) {
	cols, tf, sq := acc.drain(t.idf)
	norm := 1.0 // NormNone: x/1 is x
	switch t.Norm {
	case NormL1:
		norm = 0
		for _, v := range tf {
			norm += math.Abs(v)
		}
	case NormL2:
		norm = math.Sqrt(sq)
	}
	if norm == 0 {
		norm = 1
	}
	out.put(cols, tf, norm)
}

// Apply implements graph.Op.
func (t *TFIDF) Apply(ins []value.Value) (value.Value, error) {
	return applyFresh(t, ins)
}

// ApplyInto implements graph.IntoApplier.
func (t *TFIDF) ApplyInto(ins []value.Value, out *value.Value, scratch *any) error {
	return applyVocabInto(t, ins, out, scratch)
}

// ApplyBoxed implements graph.Op.
func (t *TFIDF) ApplyBoxed(ins []any) (any, error) { return applyVocabBoxed(t, ins) }

// applyVocabInto is the ApplyInto of every vocabulary vectorizer.
func applyVocabInto(v vocabVectorizer, ins []value.Value, out *value.Value, scratch *any) error {
	vb := v.terms()
	if !vb.fitted {
		return fmt.Errorf("ops: %s: Apply before Fit", v.Name())
	}
	if err := checkOneTokens(v.Name(), ins); err != nil {
		return err
	}
	s := getCSRScratch(scratch)
	s.acc.reset(len(vb.vocab))
	s.b.ResetFrom(len(vb.vocab), s.m)
	s.out = rowSink{b: &s.b}
	for _, doc := range ins[0].Tokens {
		s.acc.countTokens(doc, vb.vocab)
		v.emitRow(&s.acc, &s.out)
	}
	*out = value.NewMat(s.finish())
	return nil
}

// applyVocabBoxed is the ApplyBoxed of every vocabulary vectorizer. The
// boxed path returns a fully dense row, mirroring the materialization cost
// a pure-Python pipeline pays.
func applyVocabBoxed(v vocabVectorizer, ins []any) (any, error) {
	vb := v.terms()
	if !vb.fitted {
		return nil, fmt.Errorf("ops: %s: ApplyBoxed before Fit", v.Name())
	}
	if len(ins) != 1 {
		return nil, errArity(v.Name(), len(ins), 1)
	}
	doc, ok := ins[0].([]string)
	if !ok {
		return nil, errBoxed(v.Name(), 0, ins[0], "[]string")
	}
	var acc sparseAcc
	acc.reset(len(vb.vocab))
	acc.countTokens(doc, vb.vocab)
	b := feature.NewCSRBuilder(len(vb.vocab))
	v.emitRow(&acc, &rowSink{b: b})
	return feature.RowDense(b.Build(), 0, nil), nil
}

// CountVectorizer converts token lists into raw term-count sparse vectors.
type CountVectorizer struct {
	MaxFeatures int
	Binary      bool

	vocabulary
}

// NewCountVectorizer returns an unfitted count vectorizer. If binary is true
// the output records term presence instead of counts.
func NewCountVectorizer(maxFeatures int, binary bool) *CountVectorizer {
	if maxFeatures < 1 {
		panic("ops: NewCountVectorizer: maxFeatures must be positive")
	}
	return &CountVectorizer{MaxFeatures: maxFeatures, Binary: binary}
}

// Name implements graph.Op.
func (c *CountVectorizer) Name() string { return "count_vectorizer" }

// Compilable implements graph.Op.
func (c *CountVectorizer) Compilable() bool { return true }

// Commutative implements graph.Op.
func (c *CountVectorizer) Commutative() bool { return false }

// Fit implements Fitter.
func (c *CountVectorizer) Fit(ins []value.Value) error {
	_, err := c.fit(c.Name(), c.MaxFeatures, ins)
	return err
}

// emitRow emits one document's term counts (or presence flags, written
// over them).
func (c *CountVectorizer) emitRow(acc *sparseAcc, out *rowSink) {
	cols, tf, _ := acc.drain(nil)
	if c.Binary {
		for k := range tf {
			tf[k] = 1
		}
	}
	out.put(cols, tf, 1)
}

// Apply implements graph.Op.
func (c *CountVectorizer) Apply(ins []value.Value) (value.Value, error) {
	return applyFresh(c, ins)
}

// ApplyInto implements graph.IntoApplier.
func (c *CountVectorizer) ApplyInto(ins []value.Value, out *value.Value, scratch *any) error {
	return applyVocabInto(c, ins, out, scratch)
}

// ApplyBoxed implements graph.Op.
func (c *CountVectorizer) ApplyBoxed(ins []any) (any, error) { return applyVocabBoxed(c, ins) }

// HashingVectorizer maps tokens to a fixed number of buckets with FNV
// hashing; it needs no fitting and bounds memory, trading exactness for
// speed like the hashing trick in large-scale pipelines.
type HashingVectorizer struct {
	Buckets int
}

// NewHashingVectorizer returns a hashing vectorizer with the given bucket
// count.
func NewHashingVectorizer(buckets int) *HashingVectorizer {
	if buckets < 1 {
		panic("ops: NewHashingVectorizer: buckets must be positive")
	}
	return &HashingVectorizer{Buckets: buckets}
}

// Name implements graph.Op.
func (h *HashingVectorizer) Name() string { return "hashing_vectorizer" }

// Compilable implements graph.Op.
func (h *HashingVectorizer) Compilable() bool { return true }

// Commutative implements graph.Op.
func (h *HashingVectorizer) Commutative() bool { return false }

// Width returns the bucket count.
func (h *HashingVectorizer) Width() int { return h.Buckets }

// bucket maps a token to its bucket: 32-bit FNV-1a modulo the bucket count.
func (h *HashingVectorizer) bucket(tok string) int {
	return int(fnv32a(fnvOffset32, tok) % uint32(h.Buckets))
}

const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// fnv32a folds s into the running 32-bit FNV-1a hash h.
func fnv32a[S string | []byte](h uint32, s S) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime32
	}
	return h
}

// Apply implements graph.Op.
func (h *HashingVectorizer) Apply(ins []value.Value) (value.Value, error) {
	return applyFresh(h, ins)
}

// ApplyBoxed implements graph.Op.
func (h *HashingVectorizer) ApplyBoxed(ins []any) (any, error) {
	if len(ins) != 1 {
		return nil, errArity(h.Name(), len(ins), 1)
	}
	doc, ok := ins[0].([]string)
	if !ok {
		return nil, errBoxed(h.Name(), 0, ins[0], "[]string")
	}
	b := feature.NewCSRBuilder(h.Buckets)
	for _, tok := range doc {
		b.Add(h.bucket(tok), 1)
	}
	b.EndRow()
	return feature.RowDense(b.Build(), 0, nil), nil
}

// vocabState is the serialized form of a fitted vocabulary. Terms are listed
// in column order, so positions double as column indices. A term that is not
// valid UTF-8 — byte-window char n-grams split multi-byte runes — cannot
// travel as a JSON string (encoding/json would rewrite it to U+FFFD): its
// Terms entry stays empty and RawTerms carries its bytes (base64) by column.
// Vocabularies of valid UTF-8 serialize exactly as they did before RawTerms
// existed.
type vocabState struct {
	Terms    []string       `json:"terms,omitempty"`
	RawTerms map[int][]byte `json:"raw_terms,omitempty"`
}

func marshalVocab(vocab map[string]int) vocabState {
	var st vocabState
	if vocab == nil {
		return st
	}
	st.Terms = make([]string, len(vocab))
	for term, col := range vocab {
		if utf8.ValidString(term) {
			st.Terms[col] = term
			continue
		}
		if st.RawTerms == nil {
			st.RawTerms = make(map[int][]byte)
		}
		st.RawTerms[col] = []byte(term)
	}
	return st
}

// vocab rebuilds the term -> column map, rejecting states that name a
// column out of range or a term twice.
func (st vocabState) vocab(op string) (map[string]int, error) {
	terms := st.Terms
	if len(st.RawTerms) > 0 {
		terms = append([]string(nil), terms...)
		for col, raw := range st.RawTerms {
			if col < 0 || col >= len(terms) {
				return nil, fmt.Errorf("ops: %s state has raw term for column %d of %d", op, col, len(terms))
			}
			terms[col] = string(raw)
		}
	}
	vocab := make(map[string]int, len(terms))
	for col, term := range terms {
		if _, dup := vocab[term]; dup {
			return nil, fmt.Errorf("ops: %s state lists term %q twice", op, term)
		}
		vocab[term] = col
	}
	return vocab, nil
}

// tfidfState is the serialized form of a TFIDF operator.
type tfidfState struct {
	MaxFeatures int  `json:"max_features"`
	Norm        int  `json:"norm"`
	Fitted      bool `json:"fitted"`
	vocabState
	IDF artifact.Vector `json:"idf,omitempty"`
}

// MarshalState implements StateMarshaler.
func (t *TFIDF) MarshalState() ([]byte, error) {
	return json.Marshal(tfidfState{MaxFeatures: t.MaxFeatures, Norm: int(t.Norm), Fitted: t.fitted,
		vocabState: marshalVocab(t.vocab), IDF: artifact.Vector(t.idf)})
}

// UnmarshalState implements StateUnmarshaler.
func (t *TFIDF) UnmarshalState(state []byte) error {
	var st tfidfState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	if len(st.Terms) != len(st.IDF) {
		return fmt.Errorf("ops: tfidf state has %d terms but %d idf weights", len(st.Terms), len(st.IDF))
	}
	vocab, err := st.vocab(t.Name())
	if err != nil {
		return err
	}
	t.MaxFeatures = st.MaxFeatures
	t.Norm = Norm(st.Norm)
	t.fitted = st.Fitted
	t.idf = []float64(st.IDF)
	t.vocab = vocab
	return nil
}

// cvState is the serialized form of a CountVectorizer.
type cvState struct {
	MaxFeatures int  `json:"max_features"`
	Binary      bool `json:"binary,omitempty"`
	Fitted      bool `json:"fitted"`
	vocabState
}

// MarshalState implements StateMarshaler.
func (c *CountVectorizer) MarshalState() ([]byte, error) {
	return json.Marshal(cvState{MaxFeatures: c.MaxFeatures, Binary: c.Binary, Fitted: c.fitted, vocabState: marshalVocab(c.vocab)})
}

// UnmarshalState implements StateUnmarshaler.
func (c *CountVectorizer) UnmarshalState(state []byte) error {
	var st cvState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	vocab, err := st.vocab(c.Name())
	if err != nil {
		return err
	}
	c.MaxFeatures = st.MaxFeatures
	c.Binary = st.Binary
	c.fitted = st.Fitted
	c.vocab = vocab
	return nil
}

// hvState is the serialized form of a HashingVectorizer.
type hvState struct {
	Buckets int `json:"buckets"`
}

// MarshalState implements StateMarshaler.
func (h *HashingVectorizer) MarshalState() ([]byte, error) {
	return json.Marshal(hvState{Buckets: h.Buckets})
}

// UnmarshalState implements StateUnmarshaler.
func (h *HashingVectorizer) UnmarshalState(state []byte) error {
	var st hvState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	if st.Buckets < 1 {
		return fmt.Errorf("ops: hashing_vectorizer state has %d buckets, want >= 1", st.Buckets)
	}
	h.Buckets = st.Buckets
	return nil
}

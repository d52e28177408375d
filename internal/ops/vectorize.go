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

// TFIDF converts token lists into TF-IDF weighted sparse feature vectors.
// Fit learns the vocabulary (capped at MaxFeatures by document frequency)
// and smoothed IDF weights; Apply transforms batches to CSR matrices.
// This matches the paper's TF-IDF featurization template, parameterized by
// n-gram source and norm (section 5.2, "Code Generation").
type TFIDF struct {
	MaxFeatures int
	Norm        Norm

	vocab  map[string]int
	idf    []float64
	fitted bool
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

// Fitted implements Fitter.
func (t *TFIDF) Fitted() bool { return t.fitted }

// Width returns the learned vocabulary size. Valid after Fit.
func (t *TFIDF) Width() int { return len(t.idf) }

// Vocabulary returns the fitted term -> column map (shared, do not mutate).
func (t *TFIDF) Vocabulary() map[string]int { return t.vocab }

// Fit implements Fitter: learns vocabulary and IDF from the token batch.
func (t *TFIDF) Fit(ins []value.Value) error {
	if len(ins) != 1 {
		return errArity(t.Name(), len(ins), 1)
	}
	if ins[0].Kind != value.Tokens {
		return errKind(t.Name(), 0, ins[0].Kind, value.Tokens)
	}
	docs := ins[0].Tokens
	df := make(map[string]int)
	seen := make(map[string]bool)
	for _, doc := range docs {
		for k := range seen {
			delete(seen, k)
		}
		for _, tok := range doc {
			if !seen[tok] {
				seen[tok] = true
				df[tok]++
			}
		}
	}
	type termDF struct {
		term string
		df   int
	}
	terms := make([]termDF, 0, len(df))
	for term, d := range df {
		terms = append(terms, termDF{term, d})
	}
	sort.Slice(terms, func(i, j int) bool {
		if terms[i].df != terms[j].df {
			return terms[i].df > terms[j].df
		}
		return terms[i].term < terms[j].term
	})
	if len(terms) > t.MaxFeatures {
		terms = terms[:t.MaxFeatures]
	}
	// Stable column order: lexicographic over the kept terms.
	sort.Slice(terms, func(i, j int) bool { return terms[i].term < terms[j].term })
	t.vocab = make(map[string]int, len(terms))
	t.idf = make([]float64, len(terms))
	n := float64(len(docs))
	for i, td := range terms {
		// The vocabulary owns its terms: a token is a substring of a
		// training document and would keep that document's column alive.
		t.vocab[strings.Clone(td.term)] = i
		// Smoothed IDF as in standard implementations.
		t.idf[i] = math.Log((1+n)/(1+float64(td.df))) + 1
	}
	t.fitted = true
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

// hit counts one occurrence of column col.
func (a *sparseAcc) hit(col int) {
	if a.counts[col] == 0 {
		a.touched[col>>6] |= 1 << (uint(col) & 63)
	}
	a.counts[col]++
}

// drain returns the touched columns in ascending order with their counts,
// and zeroes the accumulator for the next row. The slices are reused by the
// next drain; callers may overwrite tf.
func (a *sparseAcc) drain() (cols []int, tf []float64) {
	cols, tf = a.cols[:0], a.tf[:0]
	for w, word := range a.touched {
		if word == 0 {
			continue
		}
		a.touched[w] = 0
		for ; word != 0; word &= word - 1 {
			col := w<<6 | bits.TrailingZeros64(word)
			cols = append(cols, col)
			tf = append(tf, float64(a.counts[col]))
			a.counts[col] = 0
		}
	}
	a.cols, a.tf = cols, tf
	return cols, tf
}

// countTokens tallies the vocabulary hits of one token list.
func (a *sparseAcc) countTokens(doc []string, vocab map[string]int) {
	for _, tok := range doc {
		if col, ok := vocab[tok]; ok {
			a.hit(col)
		}
	}
}

// emitRow appends one document's TF-IDF entries to b, given its drained
// term counts (which it overwrites with the unnormalized weights). Norms sum
// in ascending column order.
func (t *TFIDF) emitRow(cols []int, tf []float64, b *feature.CSRBuilder) {
	for k, col := range cols {
		tf[k] *= t.idf[col]
	}
	norm := 1.0 // NormNone: x/1 is x
	switch t.Norm {
	case NormL1:
		norm = 0
		for _, v := range tf {
			norm += math.Abs(v)
		}
	case NormL2:
		var sq float64
		for _, v := range tf {
			sq += v * v
		}
		norm = math.Sqrt(sq)
	}
	if norm == 0 {
		norm = 1
	}
	for k, col := range cols {
		b.Add(col, tf[k]/norm)
	}
	b.EndRow()
}

// Apply implements graph.Op.
func (t *TFIDF) Apply(ins []value.Value) (value.Value, error) {
	return applyFresh(t, ins)
}

// ApplyBoxed implements graph.Op. The boxed path returns a fully dense row,
// mirroring the materialization cost a pure-Python pipeline pays.
func (t *TFIDF) ApplyBoxed(ins []any) (any, error) {
	if !t.fitted {
		return nil, fmt.Errorf("ops: %s: ApplyBoxed before Fit", t.Name())
	}
	if len(ins) != 1 {
		return nil, errArity(t.Name(), len(ins), 1)
	}
	doc, ok := ins[0].([]string)
	if !ok {
		return nil, errBoxed(t.Name(), 0, ins[0], "[]string")
	}
	var acc sparseAcc
	acc.reset(len(t.idf))
	acc.countTokens(doc, t.vocab)
	b := feature.NewCSRBuilder(len(t.idf))
	cols, tf := acc.drain()
	t.emitRow(cols, tf, b)
	return feature.RowDense(b.Build(), 0, nil), nil
}

// CountVectorizer converts token lists into raw term-count sparse vectors.
type CountVectorizer struct {
	MaxFeatures int
	Binary      bool

	vocab  map[string]int
	fitted bool
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

// Fitted implements Fitter.
func (c *CountVectorizer) Fitted() bool { return c.fitted }

// Width returns the learned vocabulary size. Valid after Fit.
func (c *CountVectorizer) Width() int { return len(c.vocab) }

// Fit implements Fitter.
func (c *CountVectorizer) Fit(ins []value.Value) error {
	if len(ins) != 1 {
		return errArity(c.Name(), len(ins), 1)
	}
	if ins[0].Kind != value.Tokens {
		return errKind(c.Name(), 0, ins[0].Kind, value.Tokens)
	}
	df := make(map[string]int)
	seen := make(map[string]bool)
	for _, doc := range ins[0].Tokens {
		for k := range seen {
			delete(seen, k)
		}
		for _, tok := range doc {
			if !seen[tok] {
				seen[tok] = true
				df[tok]++
			}
		}
	}
	type termDF struct {
		term string
		df   int
	}
	terms := make([]termDF, 0, len(df))
	for term, d := range df {
		terms = append(terms, termDF{term, d})
	}
	sort.Slice(terms, func(i, j int) bool {
		if terms[i].df != terms[j].df {
			return terms[i].df > terms[j].df
		}
		return terms[i].term < terms[j].term
	})
	if len(terms) > c.MaxFeatures {
		terms = terms[:c.MaxFeatures]
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].term < terms[j].term })
	c.vocab = make(map[string]int, len(terms))
	for i, td := range terms {
		c.vocab[strings.Clone(td.term)] = i // owned, as in TFIDF.Fit
	}
	c.fitted = true
	return nil
}

// emitRow appends one document's term counts (or presence flags) to b.
func (c *CountVectorizer) emitRow(cols []int, tf []float64, b *feature.CSRBuilder) {
	for k, col := range cols {
		if c.Binary {
			b.Add(col, 1)
		} else {
			b.Add(col, tf[k])
		}
	}
	b.EndRow()
}

// Apply implements graph.Op.
func (c *CountVectorizer) Apply(ins []value.Value) (value.Value, error) {
	return applyFresh(c, ins)
}

// ApplyBoxed implements graph.Op.
func (c *CountVectorizer) ApplyBoxed(ins []any) (any, error) {
	if !c.fitted {
		return nil, fmt.Errorf("ops: %s: ApplyBoxed before Fit", c.Name())
	}
	if len(ins) != 1 {
		return nil, errArity(c.Name(), len(ins), 1)
	}
	doc, ok := ins[0].([]string)
	if !ok {
		return nil, errBoxed(c.Name(), 0, ins[0], "[]string")
	}
	var acc sparseAcc
	acc.reset(len(c.vocab))
	acc.countTokens(doc, c.vocab)
	cols, tf := acc.drain()
	b := feature.NewCSRBuilder(len(c.vocab))
	c.emitRow(cols, tf, b)
	return feature.RowDense(b.Build(), 0, nil), nil
}

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

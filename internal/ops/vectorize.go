package ops

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

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
		t.vocab[td.term] = i
		// Smoothed IDF as in standard implementations.
		t.idf[i] = math.Log((1+n)/(1+float64(td.df))) + 1
	}
	t.fitted = true
	return nil
}

// tfScratch is reusable per-row state for TF-IDF transformation: the term
// counts plus the touched columns in sorted order. Accumulating the
// normalization sums in sorted column order (instead of map iteration
// order) makes every transform bit-deterministic, which artifact round-trip
// guarantees depend on.
type tfScratch struct {
	counts map[int]int
	cols   []int
}

func newTFScratch() *tfScratch { return &tfScratch{counts: make(map[int]int)} }

// count tallies vocabulary hits for one document and returns the touched
// columns sorted ascending.
func (s *tfScratch) count(doc []string, vocab map[string]int) []int {
	for k := range s.counts {
		delete(s.counts, k)
	}
	s.cols = s.cols[:0]
	for _, tok := range doc {
		if col, ok := vocab[tok]; ok {
			if _, seen := s.counts[col]; !seen {
				s.cols = append(s.cols, col)
			}
			s.counts[col]++
		}
	}
	sort.Ints(s.cols)
	return s.cols
}

// transformRow computes the TF-IDF entries for one document into builder b.
func (t *TFIDF) transformRow(doc []string, s *tfScratch, b *feature.CSRBuilder) {
	cols := s.count(doc, t.vocab)
	switch t.Norm {
	case NormNone:
		for _, col := range cols {
			b.Add(col, float64(s.counts[col])*t.idf[col])
		}
	case NormL1:
		var sum float64
		for _, col := range cols {
			sum += math.Abs(float64(s.counts[col]) * t.idf[col])
		}
		if sum == 0 {
			sum = 1
		}
		for _, col := range cols {
			b.Add(col, float64(s.counts[col])*t.idf[col]/sum)
		}
	case NormL2:
		var sq float64
		for _, col := range cols {
			v := float64(s.counts[col]) * t.idf[col]
			sq += v * v
		}
		norm := math.Sqrt(sq)
		if norm == 0 {
			norm = 1
		}
		for _, col := range cols {
			b.Add(col, float64(s.counts[col])*t.idf[col]/norm)
		}
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
	b := feature.NewCSRBuilder(len(t.idf))
	t.transformRow(doc, newTFScratch(), b)
	m := b.Build()
	return feature.RowDense(m, 0, nil), nil
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
		c.vocab[td.term] = i
	}
	c.fitted = true
	return nil
}

func (c *CountVectorizer) transformRow(doc []string, counts map[int]int, b *feature.CSRBuilder) {
	for k := range counts {
		delete(counts, k)
	}
	for _, tok := range doc {
		if col, ok := c.vocab[tok]; ok {
			counts[col]++
		}
	}
	for col, n := range counts {
		if c.Binary {
			b.Add(col, 1)
		} else {
			b.Add(col, float64(n))
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
	b := feature.NewCSRBuilder(len(c.vocab))
	c.transformRow(doc, make(map[int]int), b)
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

func (h *HashingVectorizer) bucket(tok string) int {
	f := fnv.New32a()
	f.Write([]byte(tok))
	return int(f.Sum32() % uint32(h.Buckets))
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

// tfidfState is the serialized form of a TFIDF operator. Terms are listed
// in column order, so positions double as column indices.
type tfidfState struct {
	MaxFeatures int             `json:"max_features"`
	Norm        int             `json:"norm"`
	Fitted      bool            `json:"fitted"`
	Terms       []string        `json:"terms,omitempty"`
	IDF         artifact.Vector `json:"idf,omitempty"`
}

// MarshalState implements StateMarshaler.
func (t *TFIDF) MarshalState() ([]byte, error) {
	st := tfidfState{MaxFeatures: t.MaxFeatures, Norm: int(t.Norm), Fitted: t.fitted, IDF: artifact.Vector(t.idf)}
	if t.vocab != nil {
		st.Terms = make([]string, len(t.vocab))
		for term, col := range t.vocab {
			st.Terms[col] = term
		}
	}
	return json.Marshal(st)
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
	t.MaxFeatures = st.MaxFeatures
	t.Norm = Norm(st.Norm)
	t.fitted = st.Fitted
	t.idf = []float64(st.IDF)
	t.vocab = make(map[string]int, len(st.Terms))
	for col, term := range st.Terms {
		t.vocab[term] = col
	}
	return nil
}

// cvState is the serialized form of a CountVectorizer.
type cvState struct {
	MaxFeatures int      `json:"max_features"`
	Binary      bool     `json:"binary,omitempty"`
	Fitted      bool     `json:"fitted"`
	Terms       []string `json:"terms,omitempty"`
}

// MarshalState implements StateMarshaler.
func (c *CountVectorizer) MarshalState() ([]byte, error) {
	st := cvState{MaxFeatures: c.MaxFeatures, Binary: c.Binary, Fitted: c.fitted}
	if c.vocab != nil {
		st.Terms = make([]string, len(c.vocab))
		for term, col := range c.vocab {
			st.Terms[col] = term
		}
	}
	return json.Marshal(st)
}

// UnmarshalState implements StateUnmarshaler.
func (c *CountVectorizer) UnmarshalState(state []byte) error {
	var st cvState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	c.MaxFeatures = st.MaxFeatures
	c.Binary = st.Binary
	c.fitted = st.Fitted
	c.vocab = make(map[string]int, len(st.Terms))
	for col, term := range st.Terms {
		c.vocab[term] = col
	}
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

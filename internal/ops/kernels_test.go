package ops

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"testing"
	"unicode"

	"willump/internal/artifact"
	"willump/internal/feature"
	"willump/internal/graph"
	"willump/internal/value"
)

// The oracle: what every text kernel must compute, written the naive way —
// strings.Fields, strings.Join, strings.ToLower, substring keys and Go maps —
// with no shared code with the kernels. Everything below compares bit for bit.

func oracleClean(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case unicode.IsUpper(r):
			b.WriteRune(unicode.ToLower(r))
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == ' ':
			b.WriteRune(r)
		default:
			b.WriteByte(' ')
		}
	}
	return b.String()
}

func oracleStats(keywords []string, s string) [4]float64 {
	kws := make(map[string]bool)
	for _, k := range keywords {
		kws[strings.ToLower(k)] = true
	}
	var upper, letters int
	for _, r := range s {
		if unicode.IsUpper(r) {
			upper++
		}
		if unicode.IsLetter(r) {
			letters++
		}
	}
	words := strings.Fields(strings.ToLower(s))
	kw := 0
	for _, w := range words {
		if kws[strings.Trim(w, ".,!?;:'\"")] {
			kw++
		}
	}
	out := [4]float64{float64(len(s)), float64(len(words)), 0, float64(kw)}
	if letters > 0 {
		out[2] = float64(upper) / float64(letters)
	}
	return out
}

// tokenSource describes the tokenizing half of a text chain: word n-grams
// over strings.Fields when char is false, byte-window n-grams otherwise.
type tokenSource struct {
	char       bool
	minN, maxN int
}

func (ts tokenSource) String() string {
	if ts.char {
		return fmt.Sprintf("char(%d,%d)", ts.minN, ts.maxN)
	}
	return fmt.Sprintf("word(%d,%d)", ts.minN, ts.maxN)
}

func (ts tokenSource) ops() []graph.Op {
	if ts.char {
		return []graph.Op{NewCharNGrams(ts.minN, ts.maxN)}
	}
	return []graph.Op{NewTokenize(), NewWordNGrams(ts.minN, ts.maxN)}
}

func (ts tokenSource) oracle(s string) []string {
	var out []string
	if ts.char {
		for n := ts.minN; n <= ts.maxN; n++ {
			for i := 0; i+n <= len(s); i++ {
				out = append(out, s[i:i+n])
			}
		}
		return out
	}
	toks := strings.Fields(s)
	for n := ts.minN; n <= ts.maxN; n++ {
		for i := 0; i+n <= len(toks); i++ {
			out = append(out, strings.Join(toks[i:i+n], " "))
		}
	}
	return out
}

// oracleRow is one sparse row: ascending columns and their values.
type oracleRow struct {
	cols []int
	vals []float64
}

// oracleCounts tallies vocabulary hits in a map and orders them by a sort.
func oracleCounts(toks []string, vocab map[string]int) (cols []int, counts map[int]int) {
	counts = make(map[int]int)
	for _, tok := range toks {
		if col, ok := vocab[tok]; ok {
			counts[col]++
		}
	}
	for col := range counts {
		cols = append(cols, col)
	}
	sort.Ints(cols)
	return cols, counts
}

func oracleTFIDF(toks []string, t *TFIDF) oracleRow {
	cols, counts := oracleCounts(toks, t.vocab)
	row := oracleRow{cols: cols}
	var norm float64
	for _, col := range cols {
		v := float64(counts[col]) * t.idf[col]
		switch t.Norm {
		case NormL1:
			norm += math.Abs(v)
		case NormL2:
			norm += v * v
		}
	}
	if t.Norm == NormL2 {
		norm = math.Sqrt(norm)
	}
	if norm == 0 {
		norm = 1
	}
	for _, col := range cols {
		v := float64(counts[col]) * t.idf[col]
		if t.Norm != NormNone {
			v /= norm
		}
		row.vals = append(row.vals, v)
	}
	return row
}

func oracleCount(toks []string, c *CountVectorizer) oracleRow {
	cols, counts := oracleCounts(toks, c.vocab)
	row := oracleRow{cols: cols}
	for _, col := range cols {
		if c.Binary {
			row.vals = append(row.vals, 1)
		} else {
			row.vals = append(row.vals, float64(counts[col]))
		}
	}
	return row
}

func oracleHash(toks []string, h *HashingVectorizer) oracleRow {
	counts := make(map[int]int)
	for _, tok := range toks {
		f := fnv.New32a()
		f.Write([]byte(tok))
		counts[int(f.Sum32()%uint32(h.Buckets))]++
	}
	var row oracleRow
	for col := range counts {
		row.cols = append(row.cols, col)
	}
	sort.Ints(row.cols)
	for _, col := range row.cols {
		row.vals = append(row.vals, float64(counts[col]))
	}
	return row
}

// sameRows fails unless m's rows equal want bit for bit.
func sameRows(t *testing.T, what string, v value.Value, want []oracleRow, docs []string) {
	t.Helper()
	m, ok := v.Mat.(*feature.CSR)
	if !ok || m.Rows() != len(want) {
		t.Fatalf("%s: got %v, want a %d-row CSR", what, v.Kind, len(want))
	}
	for r, w := range want {
		cols, vals := m.RowView(r)
		bad := len(cols) != len(w.cols)
		for k := 0; !bad && k < len(cols); k++ {
			bad = cols[k] != w.cols[k] || math.Float64bits(vals[k]) != math.Float64bits(w.vals[k])
		}
		if bad {
			t.Fatalf("%s: row %d (%q):\n got  %v %v\n want %v %v", what, r, docs[r], cols, vals, w.cols, w.vals)
		}
	}
}

// applyChain runs ops one after the other, unfused.
func applyChain(t *testing.T, chain []graph.Op, in value.Value) value.Value {
	t.Helper()
	for _, op := range chain {
		var err error
		if in, err = op.Apply([]value.Value{in}); err != nil {
			t.Fatalf("%s.Apply: %v", op.Name(), err)
		}
	}
	return in
}

// checkCleanStats compares Clean and TextStats against the oracle on docs as
// one batch and returns the cleaned column.
func checkCleanStats(t *testing.T, docs, keywords []string) value.Value {
	t.Helper()
	in := value.NewStrings(docs)
	cleaned := applyChain(t, []graph.Op{NewClean()}, in)
	for i, s := range docs {
		if want := oracleClean(s); cleaned.Strings[i] != want {
			t.Fatalf("Clean(%q) = %q, want %q", s, cleaned.Strings[i], want)
		}
	}
	stats := applyChain(t, []graph.Op{NewTextStats(keywords)}, in)
	for i, s := range docs {
		want := oracleStats(keywords, s)
		for c, w := range want {
			if got := stats.Mat.At(i, c); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("TextStats(%q)[%d] = %v, want %v (keywords %q)", s, c, got, w, keywords)
			}
		}
	}
	return cleaned
}

// kernelChains are the text chains checked against the oracle: every token
// source under every vectorizer, with and without a leading Clean.
var (
	kernelSources = []tokenSource{
		{false, 1, 2}, {false, 1, 3}, {false, 2, 2}, {false, 1, 1},
		{true, 2, 3}, {true, 3, 4}, {true, 7, 9}, {true, 9, 10},
	}
	kernelVectorizers = []func() graph.Op{
		func() graph.Op { return NewTFIDF(48, NormNone) },
		func() graph.Op { return NewTFIDF(48, NormL1) },
		func() graph.Op { return NewTFIDF(4096, NormL2) },
		func() graph.Op { return NewCountVectorizer(48, false) },
		func() graph.Op { return NewCountVectorizer(4096, true) },
		func() graph.Op { return NewHashingVectorizer(13) },
	}
	kernelChains = 2 * len(kernelSources) * len(kernelVectorizers)
)

// checkChain fits chain number which (of kernelChains) on docs and compares
// it, unfused and fused, against the oracle. The documents run as one batch
// (so scratch state must reset between rows) and twice through the same
// scratch (so it must reset between calls).
func checkChain(t *testing.T, docs []string, cleaned value.Value, which int) {
	t.Helper()
	withClean := which%2 == 1
	src := kernelSources[which/2%len(kernelSources)]
	vec := kernelVectorizers[which/2/len(kernelSources)]()
	what := fmt.Sprintf("%v %s clean=%v", src, vec.Name(), withClean)

	in := value.NewStrings(docs)
	text, texts := in, docs
	var chain []graph.Op
	if withClean {
		chain = append(chain, NewClean())
		text, texts = cleaned, cleaned.Strings
	}
	chain = append(chain, src.ops()...)
	if fit, ok := vec.(Fitter); ok {
		if err := fit.Fit([]value.Value{applyChain(t, src.ops(), text)}); err != nil {
			t.Fatal(err)
		}
	}
	chain = append(chain, vec)

	want := make([]oracleRow, len(docs))
	for i, s := range texts {
		switch v := vec.(type) {
		case *TFIDF:
			want[i] = oracleTFIDF(src.oracle(s), v)
		case *CountVectorizer:
			want[i] = oracleCount(src.oracle(s), v)
		case *HashingVectorizer:
			want[i] = oracleHash(src.oracle(s), v)
		}
	}
	sameRows(t, what+" unfused", applyChain(t, chain, in), want, docs)

	fused, ok := FuseTextChain(chain)
	if !ok {
		t.Fatalf("%s: chain did not fuse", what)
	}
	var out value.Value
	var scratch any
	for pass := 0; pass < 2; pass++ {
		if err := fused.(graph.IntoApplier).ApplyInto([]value.Value{in}, &out, &scratch); err != nil {
			t.Fatal(err)
		}
		sameRows(t, fmt.Sprintf("%s fused pass %d", what, pass), out, want, docs)
	}
}

// kernelEdgeDocs are the inputs the kernels' fast paths and fallbacks
// disagree on first when one of them is wrong.
var kernelEdgeDocs = []string{
	"",
	"   \t\n ",
	".,!?;:'\"",
	"one",
	"ab",
	"tabs\tand\nnewlines\vand\fmore\r\n",
	"nbsp\u00a0separated\u2028line\u2029para\u3000ideographic\u0085nel\u1680ogham",
	"Damn! you, \"IDIOT\"; what?? the: hell's 'bells'.",
	"héllo wörld naïve café",
	"\u0130stanbul \u1e9etra\u00dfe \u01c5ungla \u023able \u212a",
	"bad\xffbytes \xc2 trunc\xe2\x82 \xf0\x9f\x98 end\xc2",
	"mixed İ\xff ẞ.,\tDAMN!",
	"the quick brown fox jumps over the lazy dog the quick brown fox",
	"a b c d e f g h i j k l m n o p",
}

var kernelKeywords = []string{"damn", "IDIOT", "hell's", "spam", "\u0130stanbul", "\u00df", "\xff", "k", ""}

func TestTextKernelsMatchOracle(t *testing.T) {
	repeated := strings.Repeat("spam ", 1000)
	for _, docs := range [][]string{append([]string{repeated}, kernelEdgeDocs...), nil} {
		for _, keywords := range [][]string{kernelKeywords, nil} {
			cleaned := checkCleanStats(t, docs, keywords)
			for which := 0; which < kernelChains; which++ {
				checkChain(t, docs, cleaned, which)
			}
		}
	}
}

// A vocabulary need not come from Fit on this chain's tokens: a loaded state
// may hold terms no token stream produces (doubled, leading or non-' '
// whitespace, the empty term, n-grams longer or shorter than the chain
// emits). The interned index must leave those columns unhit, exactly as the
// string probe would.
func TestTextKernelsHostileVocabulary(t *testing.T) {
	terms := []string{"a", "a b", "a  b", " a", "a ", "a\tb", "", "a b c", "b", "b a", "c\u00a0d", "abc", "ab", "abcdefghi", "\xffab"}
	idf := make([]float64, len(terms))
	for i := range idf {
		idf[i] = 1 + float64(i)/8
	}
	docs := []string{"a b", "a  b", " a", "a\tb", "a b c b a", "c\u00a0d", "abcdefghij abc", "\xffab\xffab", ""}
	for _, src := range []tokenSource{{false, 1, 2}, {false, 2, 3}, {false, 1, 1}, {true, 2, 3}, {true, 3, 9}, {true, 1, 1}} {
		vec := NewTFIDF(len(terms), NormL2)
		vec.vocab, vec.idf, vec.fitted = make(map[string]int), idf, true
		for col, term := range terms {
			vec.vocab[term] = col
		}
		fused, ok := FuseTextChain(append(src.ops(), vec))
		if !ok {
			t.Fatalf("%v: chain did not fuse", src)
		}
		want := make([]oracleRow, len(docs))
		for i, s := range docs {
			want[i] = oracleTFIDF(src.oracle(s), vec)
		}
		sameRows(t, src.String(), applyChain(t, []graph.Op{fused}, value.NewStrings(docs)), want, docs)
	}
}

// FuzzTextKernels feeds two arbitrary documents and one arbitrary keyword,
// batched with the edge cases above, through Clean, TextStats and the chain
// the fourth argument selects.
func FuzzTextKernels(f *testing.F) {
	for which := 0; which < kernelChains; which += 7 {
		f.Add("Hello, World!", "hello world again", "hello", uint(which))
		f.Add("\u0130\u1e9e", "x\xffy \u2028z", "i", uint(which+1))
		f.Add("a b c", "a b  c a b", "b.", uint(which+2))
	}
	f.Fuzz(func(t *testing.T, a, b, kw string, which uint) {
		docs := append([]string{a, b, a + " " + b, b + a}, kernelEdgeDocs...)
		cleaned := checkCleanStats(t, docs, append([]string{kw}, kernelKeywords...))
		checkChain(t, docs, cleaned, int(which%uint(kernelChains)))
	})
}

// vocabOp is a fitted vocabulary vectorizer whose state round-trips.
type vocabOp interface {
	graph.Op
	Fitter
	artifact.StateMarshaler
	artifact.StateUnmarshaler
}

// Byte-window char n-grams split multi-byte runes, so a vocabulary fitted on
// non-ASCII text holds terms that are not valid UTF-8; the saved state must
// carry them losslessly.
func TestCharNGramTFIDFStateRoundTripNonASCII(t *testing.T) {
	docs := []string{"héllo wörld", "naïve café", "hello world"}
	for name, mk := range map[string]func() vocabOp{
		"tfidf": func() vocabOp { return NewTFIDF(1000, NormL2) },
		"count": func() vocabOp { return NewCountVectorizer(1000, false) },
	} {
		grams := applyChain(t, []graph.Op{NewCharNGrams(3, 4)}, value.NewStrings(docs))
		op := mk()
		if err := op.Fit([]value.Value{grams}); err != nil {
			t.Fatal(err)
		}
		before := applyChain(t, []graph.Op{op}, grams)
		state, err := op.MarshalState()
		if err != nil {
			t.Fatalf("%s: MarshalState: %v", name, err)
		}
		loaded := mk()
		if err := loaded.UnmarshalState(state); err != nil {
			t.Fatalf("%s: UnmarshalState: %v", name, err)
		}
		after := applyChain(t, []graph.Op{loaded}, grams)
		if !feature.Equal(before.Mat, after.Mat) {
			t.Errorf("%s: Load(Save(op)) transforms differently (row 0 col 4: %v before, %v after)",
				name, before.Mat.At(0, 4), after.Mat.At(0, 4))
		}
		again, err := loaded.MarshalState()
		if err != nil || string(again) != string(state) {
			t.Errorf("%s: re-saved state differs (err %v)", name, err)
		}
	}
}

// A state naming a raw term's column out of range, or a term twice, is
// rejected rather than loaded into a vocabulary narrower than its columns.
func TestVocabStateRejectsMalformed(t *testing.T) {
	for _, state := range []string{
		`{"max_features":4,"fitted":true,"terms":["a",""],"raw_terms":{"2":"/w=="},"idf":[1,1]}`,
		`{"max_features":4,"fitted":true,"terms":["a","a"],"idf":[1,1]}`,
	} {
		if err := NewTFIDF(4, NormNone).UnmarshalState([]byte(state)); err == nil {
			t.Errorf("TFIDF accepted %s", state)
		}
		if err := NewCountVectorizer(4, false).UnmarshalState([]byte(state)); err == nil {
			t.Errorf("CountVectorizer accepted %s", state)
		}
	}
	// The category encoders decode through the same codec: a category listed
	// twice would leave a OneHot narrower than its columns (a panic on the
	// first Apply) and an Ordinal that panics when saved again.
	for _, state := range []string{
		`{"max_categories":4,"fitted":true,"categories":["a",""],"raw_categories":{"2":"/w=="}}`,
		`{"max_categories":4,"fitted":true,"categories":["a","a","b"]}`,
	} {
		if err := NewOneHot(4).UnmarshalState([]byte(state)); err == nil {
			t.Errorf("OneHot accepted %s", state)
		}
		if err := NewOrdinal().UnmarshalState([]byte(state)); err == nil {
			t.Errorf("Ordinal accepted %s", state)
		}
	}
}

// A category that is not valid UTF-8 survives Save/Load like a vocabulary
// term, instead of being rewritten to U+FFFD and scoring as unseen.
func TestCategoryStateRoundTripNonASCII(t *testing.T) {
	col := value.NewStrings([]string{"caf\xe9", "tea", "caf\xe9", "café"})
	for name, mk := range map[string]func() vocabOp{
		"one_hot": func() vocabOp { return NewOneHot(8) },
		"ordinal": func() vocabOp { return NewOrdinal() },
	} {
		op := mk()
		if err := op.Fit([]value.Value{col}); err != nil {
			t.Fatal(err)
		}
		before := applyChain(t, []graph.Op{op}, col)
		state, err := op.MarshalState()
		if err != nil {
			t.Fatalf("%s: MarshalState: %v", name, err)
		}
		loaded := mk()
		if err := loaded.UnmarshalState(state); err != nil {
			t.Fatalf("%s: UnmarshalState: %v", name, err)
		}
		after := applyChain(t, []graph.Op{loaded}, col)
		for r := 0; r < col.Len(); r++ {
			if b, a := before.Box(r), after.Box(r); fmt.Sprint(b) != fmt.Sprint(a) {
				t.Errorf("%s: row %d (%q) encodes as %v before Save/Load, %v after", name, r, col.Strings[r], b, a)
			}
		}
		again, err := loaded.MarshalState()
		if err != nil || string(again) != string(state) {
			t.Errorf("%s: re-saved state differs (err %v)", name, err)
		}
	}
}

// BenchmarkTextKernels times the operator bodies the text pipelines spend
// their time in, on Toxic-shaped comments: the two fused TF-IDF chains over
// cleaned text, Clean and TextStats.
func BenchmarkTextKernels(b *testing.B) {
	words := strings.Fields("the of you is that it not are this was have with be as on your for they but what all about " +
		"people think article wikipedia page please thanks edit talk source idiot stupid damn hell moron shut hate")
	docs := make([]string, 512)
	for i := range docs {
		var sb strings.Builder
		for j, n := 0, 12+(i*7)%40; j < n; j++ {
			w := words[(i*31+j*17+j*j)%len(words)]
			if j%9 == 0 {
				w = strings.ToUpper(w[:1]) + w[1:] + ","
			}
			sb.WriteString(w + " ")
		}
		docs[i] = sb.String()
	}
	raw := value.NewStrings(docs)
	cleaned, err := NewClean().Apply([]value.Value{raw})
	if err != nil {
		b.Fatal(err)
	}
	fuse := func(src tokenSource) graph.Op {
		vec := NewTFIDF(1500, NormL2)
		toks := cleaned
		for _, op := range src.ops() {
			if toks, err = op.Apply([]value.Value{toks}); err != nil {
				b.Fatal(err)
			}
		}
		if err := vec.Fit([]value.Value{toks}); err != nil {
			b.Fatal(err)
		}
		fused, ok := FuseTextChain(append(src.ops(), vec))
		if !ok {
			b.Fatal("chain did not fuse")
		}
		return fused
	}
	for _, bc := range []struct {
		name string
		op   graph.Op
		in   value.Value
	}{
		{"tfidf-word", fuse(tokenSource{false, 1, 2}), cleaned},
		{"tfidf-char", fuse(tokenSource{true, 3, 4}), cleaned},
		{"clean", NewClean(), raw},
		{"stats", NewTextStats([]string{"idiot", "stupid", "damn", "hell", "moron", "hate"}), raw},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var out value.Value
			var scratch any
			ins := []value.Value{bc.in}
			b.ReportAllocs()
			for b.Loop() {
				if err := bc.op.(graph.IntoApplier).ApplyInto(ins, &out, &scratch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(docs)), "ns/row")
		})
	}
}

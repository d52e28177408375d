package ops

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"willump/internal/graph"
	"willump/internal/value"
)

// batchOnlyTable hides LocalTable's RowLookup fast path, so Lookup.ApplyInto
// takes its LookupBatch branch.
type batchOnlyTable struct{ t *LocalTable }

func (b batchOnlyTable) Dim() int                                      { return b.t.Dim() }
func (b batchOnlyTable) LookupBatch(keys []int64) ([][]float64, error) { return b.t.LookupBatch(keys) }
func (b batchOnlyTable) Requests() int64                               { return b.t.Requests() }

// TestCleanApplyOutlivesApplyInto: Clean.ApplyInto's rows view its scratch
// cell's buffer, which the next call with that cell rewrites, but Apply's
// view a cell nothing reuses: later ApplyInto calls — longer, shorter, on a
// reused cell or a fresh one — leave an Apply result as it was.
func TestCleanApplyOutlivesApplyInto(t *testing.T) {
	c := NewClean()
	docs := []string{"Hello, World!", "a-b_c", "BAD cat is bad!"}
	got, err := c.Apply([]value.Value{value.NewStrings(docs)})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(got.Strings))
	for i, s := range got.Strings {
		want[i] = strings.Clone(s)
	}
	var out value.Value
	var scratch any
	for _, batch := range [][]string{{strings.Repeat("OVERWRITE ", 40)}, docs, {"zz", "y"}, {}} {
		if err := c.ApplyInto([]value.Value{value.NewStrings(batch)}, &out, &scratch); err != nil {
			t.Fatal(err)
		}
		var fresh any
		if err := c.ApplyInto([]value.Value{value.NewStrings(batch)}, &out, &fresh); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(got.Strings, want) {
		t.Errorf("Apply's rows became %q after later ApplyInto calls, want %q", got.Strings, want)
	}
}

// sameValue fails unless got and want hold the same kind, shape, matrix
// representation and bits.
func sameValue(t *testing.T, label string, got, want value.Value) {
	t.Helper()
	if got.Kind != want.Kind || got.Len() != want.Len() {
		t.Fatalf("%s: got %s x%d, want %s x%d", label, got.Kind, got.Len(), want.Kind, want.Len())
	}
	switch want.Kind {
	case value.Floats:
		for i := range want.Floats {
			if math.Float64bits(got.Floats[i]) != math.Float64bits(want.Floats[i]) {
				t.Fatalf("%s: row %d = %v, want %v", label, i, got.Floats[i], want.Floats[i])
			}
		}
	case value.Strings:
		for i := range want.Strings {
			if got.Strings[i] != want.Strings[i] {
				t.Fatalf("%s: row %d = %q, want %q", label, i, got.Strings[i], want.Strings[i])
			}
		}
	case value.Tokens:
		for i := range want.Tokens {
			if len(got.Tokens[i])+len(want.Tokens[i]) > 0 && !reflect.DeepEqual(got.Tokens[i], want.Tokens[i]) {
				t.Fatalf("%s: row %d = %q, want %q", label, i, got.Tokens[i], want.Tokens[i])
			}
		}
	case value.Mat:
		if reflect.TypeOf(got.Mat) != reflect.TypeOf(want.Mat) || got.Mat.Cols() != want.Mat.Cols() {
			t.Fatalf("%s: got %T with %d cols, want %T with %d", label, got.Mat, got.Mat.Cols(), want.Mat, want.Mat.Cols())
		}
		type entry struct {
			c    int
			bits uint64
		}
		for r := 0; r < want.Mat.Rows(); r++ {
			var g, w []entry
			got.Mat.ForEachNZ(r, func(c int, v float64) { g = append(g, entry{c, math.Float64bits(v)}) })
			want.Mat.ForEachNZ(r, func(c int, v float64) { w = append(w, entry{c, math.Float64bits(v)}) })
			if len(g)+len(w) > 0 && !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: row %d = %v, want %v", label, r, g, w)
			}
		}
	default:
		t.Fatalf("%s: unexpected output kind %s", label, want.Kind)
	}
}

// TestApplyIntoScratchReuse pins the reuse half of the IntoApplier contract
// for every built-in implementation: a scratch cell and output slot carried
// across a large batch, one row, zero rows and a large batch again must
// produce exactly what a cold cell produces for the same inputs — no stale
// rows, entries or widths from the previous shape, for dense, CSR and column
// outputs alike.
func TestApplyIntoScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	words := []string{"apple", "Banana", "cherry!", "dog", "echo", "fox", "unseen-word"}
	doc := func() string {
		s := ""
		for j, k := 0, rng.Intn(7); j < k; j++ {
			s += words[rng.Intn(len(words))] + " "
		}
		return s
	}
	strs := func(n int) value.Value {
		out := make([]string, n)
		for i := range out {
			out[i] = doc()
		}
		return value.NewStrings(out)
	}
	toks := func(n int) value.Value {
		v, err := NewTokenize().Apply([]value.Value{strs(n)})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cats := func(n int) value.Value {
		out := make([]string, n)
		for i := range out {
			out[i] = words[rng.Intn(len(words))]
		}
		return value.NewStrings(out)
	}
	floats := func(n int) value.Value {
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.NormFloat64() * 10
		}
		return value.NewFloats(out)
	}
	ints := func(n int) value.Value {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(rng.Intn(12)) // keys 8..11 miss the table
		}
		return value.NewInts(out)
	}
	fit := func(f Fitter, in value.Value) {
		t.Helper()
		if err := f.Fit([]value.Value{in}); err != nil {
			t.Fatal(err)
		}
	}
	fused := func(chain ...graph.Op) graph.IntoApplier {
		t.Helper()
		op, ok := FuseTextChain(chain)
		if !ok {
			t.Fatal("chain did not fuse")
		}
		return op.(graph.IntoApplier)
	}

	tfidf, cv := NewTFIDF(16, NormL2), NewCountVectorizer(16, false)
	fit(tfidf, toks(64))
	fit(cv, toks(64))
	hv := NewHashingVectorizer(8)
	onehot, ordinal, scale := NewOneHot(4), NewOrdinal(), NewStandardScale()
	fit(onehot, cats(64))
	fit(ordinal, cats(64))
	fit(scale, floats(64))
	rows := make(map[int64][]float64)
	for k := int64(0); k < 8; k++ {
		rows[k] = []float64{float64(k), -float64(k), 0.5}
	}
	table := NewLocalTable(3, rows)

	cases := []struct {
		name string
		op   graph.IntoApplier
		in   func(n int) value.Value
	}{
		{"clean", NewClean(), strs},
		{"tokenize", NewTokenize(), strs},
		{"word_ngrams", NewWordNGrams(1, 2), toks},
		{"char_ngrams", NewCharNGrams(2, 3), strs},
		{"text_stats", NewTextStats([]string{"dog"}), strs},
		{"tfidf", tfidf, toks},
		{"count", cv, toks},
		{"hashing", hv, toks},
		{"fused_tfidf", fused(NewClean(), NewTokenize(), NewWordNGrams(1, 1), tfidf), strs},
		{"fused_count", fused(NewClean(), NewTokenize(), cv), strs},
		{"fused_hashing", fused(NewTokenize(), hv), strs},
		{"onehot", onehot, cats},
		{"ordinal", ordinal, cats},
		{"standard_scale", scale, floats},
		{"numeric_stats_floats", NewNumericStats(), floats},
		{"numeric_stats_ints", NewNumericStats(), ints},
		{"lookup_rows", NewLookup("t", table), ints},
		{"lookup_batch", NewLookup("t", batchOnlyTable{table}), ints},
	}
	covered := make(map[reflect.Type]bool)
	for _, tc := range cases {
		covered[reflect.TypeOf(tc.op)] = true
		t.Run(tc.name, func(t *testing.T) {
			var warmOut value.Value
			var warmScratch any
			for step, n := range []int{64, 1, 0, 64} {
				ins := []value.Value{tc.in(n)}
				var coldOut value.Value
				var coldScratch any
				if err := tc.op.ApplyInto(ins, &coldOut, &coldScratch); err != nil {
					t.Fatalf("cold ApplyInto(%d rows): %v", n, err)
				}
				if err := tc.op.ApplyInto(ins, &warmOut, &warmScratch); err != nil {
					t.Fatalf("reused ApplyInto(%d rows): %v", n, err)
				}
				if coldOut.Len() != n {
					t.Fatalf("cold output has %d rows, want %d", coldOut.Len(), n)
				}
				sameValue(t, fmt.Sprintf("step %d (%d rows)", step, n), warmOut, coldOut)
			}
		})
	}
	// The table must name every built-in IntoApplier (reuse.go's conformance
	// list), so a new implementation cannot skip this property.
	for _, op := range []graph.IntoApplier{
		(*TFIDF)(nil), (*CountVectorizer)(nil), (*HashingVectorizer)(nil), (*FusedText)(nil),
		(*OneHot)(nil), (*Ordinal)(nil), (*StandardScale)(nil), (*NumericStats)(nil),
		(*TextStats)(nil), (*Lookup)(nil), (*Clean)(nil), (*Tokenize)(nil),
		(*WordNGrams)(nil), (*CharNGrams)(nil),
	} {
		if !covered[reflect.TypeOf(op)] {
			t.Errorf("%T implements graph.IntoApplier but has no case here", op)
		}
	}
}

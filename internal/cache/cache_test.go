package cache

import (
	"testing"

	"willump/internal/feature"
	"willump/internal/value"
)

// rowKey is row r's cache key as a comparable string.
func rowKey(sources []value.Value, r int) string {
	return string(AppendRowKey(nil, sources, r))
}

func TestRowKeyDistinguishesInputs(t *testing.T) {
	a := value.NewStrings([]string{"ab", "a"})
	b := value.NewStrings([]string{"c", "bc"})
	k0 := rowKey([]value.Value{a, b}, 0)
	k1 := rowKey([]value.Value{a, b}, 1)
	if k0 == k1 {
		t.Errorf("ambiguous keys: %q vs %q", k0, k1)
	}
	ints := value.NewInts([]int64{1, 12})
	ints2 := value.NewInts([]int64{21, 2})
	if rowKey([]value.Value{ints, ints2}, 0) == rowKey([]value.Value{ints, ints2}, 1) {
		t.Error("int keys collide")
	}
}

// TestRowKeySeparatorAmbiguityFixed pins the fix for the old encoding's
// collision: keys were joined with raw 0x1f (column) and 0x1e (token)
// separator bytes, so a string *containing* a separator encoded identically
// to the multi-column (or multi-token) row it imitated. The length-prefixed
// encoding keeps such pairs distinct.
func TestRowKeySeparatorAmbiguityFixed(t *testing.T) {
	// One column "a\x1fb" vs two columns "a", "b": collided before.
	joined := value.NewStrings([]string{"a\x1fb"})
	colA := value.NewStrings([]string{"a"})
	colB := value.NewStrings([]string{"b"})
	if rowKey([]value.Value{joined}, 0) == rowKey([]value.Value{colA, colB}, 0) {
		t.Error("string containing the column separator still collides")
	}
	// One token "x\x1ey" vs two tokens "x", "y": collided before.
	joinedTok := value.NewTokens([][]string{{"x\x1ey"}})
	splitTok := value.NewTokens([][]string{{"x", "y"}})
	if rowKey([]value.Value{joinedTok}, 0) == rowKey([]value.Value{splitTok}, 0) {
		t.Error("token containing the token separator still collides")
	}
	// Token-list boundary vs content: {"ab","c"} vs {"a","bc"}.
	t1 := value.NewTokens([][]string{{"ab", "c"}, {"a", "bc"}})
	if rowKey([]value.Value{t1}, 0) == rowKey([]value.Value{t1}, 1) {
		t.Error("token boundary ambiguity")
	}
	// Kind confusion: string "07" vs int 7-ish byte patterns must differ via
	// kind tags.
	s := value.NewStrings([]string{"\x07\x00\x00\x00\x00\x00\x00\x00"})
	n := value.NewInts([]int64{7})
	if rowKey([]value.Value{s}, 0) == rowKey([]value.Value{n}, 0) {
		t.Error("string/int kind confusion")
	}
}

// TestAppendRowKeyAppends: encoding extends dst, never restarts it.
func TestAppendRowKeyAppends(t *testing.T) {
	cols := []value.Value{
		value.NewInts([]int64{42}),
		value.NewStrings([]string{"user-x"}),
		value.NewFloats([]float64{2.5}),
		value.NewTokens([][]string{{"a", "bb"}}),
	}
	if got := string(AppendRowKey([]byte("prefix"), cols, 0)); got != "prefix"+rowKey(cols, 0) {
		t.Error("AppendRowKey does not append")
	}
}

// TestAppendRowKeyZeroAlloc: with a capacious reused buffer, key encoding
// and hashing touch the heap zero times — the hot-path contract the sharded
// cache's zero-alloc lookups depend on.
func TestAppendRowKeyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cols := []value.Value{
		value.NewInts([]int64{123456}),
		value.NewStrings([]string{"user-abc"}),
		value.NewFloats([]float64{3.14159}),
	}
	buf := make([]byte, 0, 128)
	var sink uint64
	allocs := testing.AllocsPerRun(1000, func() {
		buf = AppendRowKey(buf[:0], cols, 0)
		sink += Hash64(buf)
	})
	if allocs != 0 {
		t.Fatalf("AppendRowKey+Hash64 allocates %.2f objects/op, want 0", allocs)
	}
	_ = sink
}

// TestRowKeyMatrixColumns: matrix source columns participate in the key
// (they were previously skipped, aliasing rows that differ only there), and
// dense/CSR views of the same row encode identically.
func TestRowKeyMatrixColumns(t *testing.T) {
	m := feature.DenseFromRows([][]float64{{1, 0, 2}, {1, 0, 3}})
	col := value.NewMat(m)
	if rowKey([]value.Value{col}, 0) == rowKey([]value.Value{col}, 1) {
		t.Error("rows differing only in a matrix column alias to one key")
	}
	csr, err := feature.NewCSR(2, 3, []int{0, 2, 4}, []int{0, 2, 0, 2}, []float64{1, 2, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	dk := rowKey([]value.Value{col}, 0)
	sk := rowKey([]value.Value{value.NewMat(csr)}, 0)
	if dk != sk {
		t.Error("dense and CSR views of the same row encode differently")
	}
	// Zero rows still encode a non-empty, tagged key.
	zero := value.NewMat(feature.NewDense(1, 3))
	if rowKey([]value.Value{zero}, 0) == "" {
		t.Error("all-zero matrix row encodes empty")
	}
}

func TestRowKeyStable(t *testing.T) {
	v := value.NewInts([]int64{7})
	if rowKey([]value.Value{v}, 0) != rowKey([]value.Value{v}, 0) {
		t.Error("AppendRowKey not deterministic")
	}
	f := value.NewFloats([]float64{3.14})
	if rowKey([]value.Value{f}, 0) == "" {
		t.Error("float key empty")
	}
	tk := value.NewTokens([][]string{{"a", "b"}})
	if rowKey([]value.Value{tk}, 0) == "" {
		t.Error("token key empty")
	}
}

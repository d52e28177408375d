package cache

import (
	"encoding/binary"
	"math"

	"willump/internal/feature"
	"willump/internal/value"
)

// Cache keys are the length-prefixed encoding of a row's raw source values.
// Every column contributes a kind tag followed by a self-delimiting payload:
// variable-length data (strings, token lists) is length-prefixed, fixed-width
// data (ints, floats) is written as 8 little-endian bytes. The encoding is
// prefix-free per column, so no two distinct rows can encode to the same
// bytes — unlike the previous separator-based scheme, where a string
// containing the 0x1f/0x1e separator bytes collided with the concatenation
// it imitated.
const (
	keyTagString byte = 1
	keyTagInt    byte = 2
	keyTagFloat  byte = 3
	keyTagTokens byte = 4
	keyTagMat    byte = 5
)

// AppendRowKey appends the cache-key encoding of row r of the given source
// columns to dst and returns the extended slice. It allocates only when dst
// lacks capacity, so callers holding a reusable buffer encode keys with zero
// steady-state allocations. Matrix columns encode their non-zero entries as
// (column, bits) pairs with a column-count terminator — previously they were
// silently skipped, so two rows differing only in a matrix column aliased to
// one key.
func AppendRowKey(dst []byte, sources []value.Value, r int) []byte {
	for _, src := range sources {
		switch src.Kind {
		case value.Strings:
			s := src.Strings[r]
			dst = append(dst, keyTagString)
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		case value.Ints:
			dst = append(dst, keyTagInt)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(src.Ints[r]))
		case value.Floats:
			dst = append(dst, keyTagFloat)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(src.Floats[r]))
		case value.Tokens:
			toks := src.Tokens[r]
			dst = append(dst, keyTagTokens)
			dst = binary.AppendUvarint(dst, uint64(len(toks)))
			for _, tok := range toks {
				dst = binary.AppendUvarint(dst, uint64(len(tok)))
				dst = append(dst, tok...)
			}
		case value.Mat:
			dst = appendMatRowKey(dst, src.Mat, r)
		}
	}
	return dst
}

// appendMatRowKey encodes one matrix row as (column, value-bits) pairs of
// its non-zero entries, terminated by the out-of-range column index Cols —
// prefix-free, deterministic, and identical for dense and CSR views of the
// same row (both report non-zeros in ascending column order). Kept out of
// AppendRowKey so the common scalar/string columns never construct the
// iteration state.
func appendMatRowKey(dst []byte, m feature.Matrix, r int) []byte {
	cols := m.Cols()
	dst = append(dst, keyTagMat)
	dst = binary.AppendUvarint(dst, uint64(cols))
	appendPair := func(dst []byte, c int, x float64) []byte {
		dst = binary.AppendUvarint(dst, uint64(c))
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	switch t := m.(type) {
	case *feature.Dense:
		for c, x := range t.Row(r) {
			if x != 0 {
				dst = appendPair(dst, c, x)
			}
		}
	case *feature.CSR:
		cs, vs := t.RowView(r)
		for i, c := range cs {
			dst = appendPair(dst, c, vs[i])
		}
	default:
		for c := 0; c < cols; c++ {
			if x := m.At(r, c); x != 0 {
				dst = appendPair(dst, c, x)
			}
		}
	}
	return binary.AppendUvarint(dst, uint64(cols))
}

// FNV-1a constants (64-bit).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash64 returns the 64-bit FNV-1a hash of the key bytes. The sharded cache
// uses the top bits to pick a shard and the low bits to index within it, so
// one hash per key serves both.
func Hash64(key []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range key {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

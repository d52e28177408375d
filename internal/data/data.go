// Package data generates the synthetic stand-ins for the paper's six
// benchmark datasets (Table 1). The real datasets are Kaggle/CIKM/WSDM
// competition data we cannot redistribute or download offline, so each
// generator plants the statistical structure the corresponding experiments
// exercise:
//
//   - a controlled mix of easy inputs (decidable from cheap features) and
//     hard inputs (requiring expensive features) — what makes cascades work;
//   - Zipf-distributed lookup keys — what makes feature-level caching beat
//     end-to-end caching;
//   - score asymmetry or degeneracy — what makes top-K filters interesting
//     (and, for Tracking, ill-defined, as the paper notes);
//   - cost asymmetry between feature generators — what Algorithm 1 selects
//     on.
//
// All generators are deterministic in their seed.
package data

import (
	"fmt"
	"math/rand"
)

// zipfKeys draws n keys in [0, max) under a Zipf distribution with skew s,
// producing the head-heavy key streams that make caching effective.
func zipfKeys(rng *rand.Rand, n int, max uint64, s float64) []int64 {
	z := rand.NewZipf(rng, s, 1, max-1)
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(z.Uint64())
	}
	return out
}

// uniformKeys draws n uniform keys in [0, max).
func uniformKeys(rng *rand.Rand, n int, max int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(max)
	}
	return out
}

// randVec draws a d-dimensional standard normal vector.
func randVec(rng *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// dot is a plain inner product.
func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// wordList generates a deterministic vocabulary of distinct synthetic words
// with the given prefix.
func wordList(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%03d", prefix, i)
	}
	return out
}

// pick returns a uniformly random element.
func pick(rng *rand.Rand, words []string) string {
	return words[rng.Intn(len(words))]
}

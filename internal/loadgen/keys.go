package loadgen

import (
	"fmt"
	"math/rand"
)

// Keys produces the per-request lookup key stream. Like Arrivals, a Keys
// implementation is fully determined by its parameters and seed, so a
// (seed, spec) pair replays bit-identically.
type Keys interface {
	// Next returns the key for the i-th request of the run.
	Next() int64
}

// ZipfKeys draws keys from a Zipfian distribution over [0, N): the
// power-law popularity skew of real feature-store traffic, where a small
// set of hot entities dominates lookups. Exponent S > 1 controls the skew
// (1.07 ≈ YCSB default).
type ZipfKeys struct {
	zipf *rand.Zipf
}

// NewZipfKeys builds a Zipfian key stream over [0, n) with exponent s
// (clamped to > 1) from the given seed.
func NewZipfKeys(n int64, s float64, seed int64) *ZipfKeys {
	if s <= 1 {
		s = 1.0001
	}
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(seed))
	return &ZipfKeys{zipf: rand.NewZipf(rng, s, 1, uint64(n-1))}
}

// Next implements Keys.
func (z *ZipfKeys) Next() int64 { return int64(z.zipf.Uint64()) }

// HotsetKeys sends HotFrac of requests to a small hot set of HotKeys keys
// and the remainder uniformly over the full [0, N) space — the classic
// cache-friendliness knob for testing reuse/caching tiers.
type HotsetKeys struct {
	n       int64
	hotKeys int64
	hotFrac float64
	rng     *rand.Rand
}

// NewHotsetKeys builds a hotset stream: hotFrac of draws land in
// [0, hotKeys), the rest uniform over [0, n).
func NewHotsetKeys(n, hotKeys int64, hotFrac float64, seed int64) *HotsetKeys {
	if n < 1 {
		n = 1
	}
	if hotKeys < 1 {
		hotKeys = 1
	}
	if hotKeys > n {
		hotKeys = n
	}
	return &HotsetKeys{n: n, hotKeys: hotKeys, hotFrac: hotFrac, rng: rand.New(rand.NewSource(seed))}
}

// Next implements Keys.
func (h *HotsetKeys) Next() int64 {
	if h.rng.Float64() < h.hotFrac {
		return h.rng.Int63n(h.hotKeys)
	}
	return h.rng.Int63n(h.n)
}

// UniformKeys draws keys uniformly over [0, N) — the no-skew baseline.
type UniformKeys struct {
	n   int64
	rng *rand.Rand
}

// NewUniformKeys builds a uniform key stream over [0, n).
func NewUniformKeys(n int64, seed int64) *UniformKeys {
	if n < 1 {
		n = 1
	}
	return &UniformKeys{n: n, rng: rand.New(rand.NewSource(seed))}
}

// Next implements Keys.
func (u *UniformKeys) Next() int64 { return u.rng.Int63n(u.n) }

// keysFromSpec builds a Keys stream from a scenario spec. The key seed is
// offset from the arrival seed so the two streams are independent.
func keysFromSpec(s ScenarioSpec) (Keys, error) {
	n := s.KeySpace
	if n <= 0 {
		n = 1 << 20
	}
	seed := s.Seed + 0x9e3779b9
	switch s.Keys {
	case "zipf", "":
		skew := s.ZipfS
		if skew <= 0 {
			skew = 1.07
		}
		return NewZipfKeys(n, skew, seed), nil
	case "hotset":
		hot := s.HotKeys
		if hot <= 0 {
			hot = n / 100
		}
		frac := s.HotFrac
		if frac <= 0 {
			frac = 0.9
		}
		return NewHotsetKeys(n, hot, frac, seed), nil
	case "uniform":
		return NewUniformKeys(n, seed), nil
	default:
		return nil, fmt.Errorf("loadgen: unknown key distribution %q", s.Keys)
	}
}

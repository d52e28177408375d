// Package serving implements the Clipper-like model serving system the
// paper integrates Willump with (section 6.3, Table 6): an HTTP/JSON RPC
// frontend with request queueing, adaptive batching, and a Clipper-style
// end-to-end prediction cache. Like Clipper, it treats the hosted pipeline
// as a black box — Willump's optimizations happen beneath it, inside the
// hosted predictor.
package serving

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"willump/internal/cache"
	"willump/internal/core"
	"willump/internal/value"
)

// Predictor is a batch prediction function: the black box a serving system
// hosts. Both the unoptimized interpreted pipeline and a Willump-optimized
// pipeline satisfy it. The context carries request cancellation and
// deadlines through to pipeline execution.
type Predictor interface {
	PredictBatch(ctx context.Context, inputs map[string]value.Value) ([]float64, error)
}

// PredictorFunc adapts a function to the Predictor interface.
type PredictorFunc func(ctx context.Context, inputs map[string]value.Value) ([]float64, error)

// PredictBatch implements Predictor.
func (f PredictorFunc) PredictBatch(ctx context.Context, inputs map[string]value.Value) ([]float64, error) {
	return f(ctx, inputs)
}

// CachedPredictor wraps a Predictor with a Clipper-style end-to-end
// prediction cache: the key is the entire raw input tuple, the value the
// prediction. It is the baseline of the paper's Tables 2 and 3 — contrast
// with feature-level caching, which keys on each IFV's sources instead. The
// cache is the same sharded concurrent structure the feature-level caches
// use, so concurrent requests through one deployed version do not serialize
// on a cache mutex.
type CachedPredictor struct {
	Inner Predictor
	cache *cache.Sharded
	keys  []string // input column order for stable keys
}

// NewCachedPredictor wraps inner with an end-to-end sharded cache (capacity
// <= 0 for unbounded). keyOrder fixes the input-column order used in cache
// keys.
func NewCachedPredictor(inner Predictor, capacity int, keyOrder []string) *CachedPredictor {
	ks := make([]string, len(keyOrder))
	copy(ks, keyOrder)
	return &CachedPredictor{Inner: inner, cache: cache.NewSharded(capacity, 0), keys: ks}
}

// PredictBatch implements Predictor, serving repeated input tuples from the
// cache and computing only the misses.
func (p *CachedPredictor) PredictBatch(ctx context.Context, inputs map[string]value.Value) ([]float64, error) {
	pr, err := p.probe(inputs, false)
	if err != nil || len(pr.miss) == 0 {
		return pr.out, err
	}
	preds, err := p.Inner.PredictBatch(ctx, core.Dataset{Inputs: inputs}.Gather(pr.miss).Inputs)
	if err != nil {
		return nil, err
	}
	return p.fill(pr, preds), nil
}

// Peek answers the batch purely from the cache: every row must hit, no
// prediction is computed. The brownout cache-only rung uses it to serve a
// degraded-but-real answer without touching the saturated pipeline. The
// lookups count toward the cache's hit/miss stats like any other.
func (p *CachedPredictor) Peek(inputs map[string]value.Value) ([]float64, bool) {
	pr, err := p.probe(inputs, true)
	return pr.out, err == nil && len(pr.miss) == 0
}

// probed is one pass of a batch over the cache: out holds the cached
// predictions, miss the rows that had none, and keys/offs/hashes each row's
// encoded key for fill.
type probed struct {
	out    []float64
	miss   []int
	keys   []byte
	offs   []int
	hashes []uint64
}

// probe keys every row of the batch and looks it up, stopping at the first
// miss when firstMiss is set. Every column named in the cache key order must
// be present and the same length — a missing column would otherwise silently
// key the cache on a zero value and miscount the batch. Cached predictions
// are copied out (CopyInto), never aliased.
func (p *CachedPredictor) probe(inputs map[string]value.Value, firstMiss bool) (probed, error) {
	if len(p.keys) == 0 {
		return probed{}, fmt.Errorf("serving: cached predictor has an empty cache key order")
	}
	cols := make([]value.Value, len(p.keys))
	n := -1
	for i, k := range p.keys {
		v, ok := inputs[k]
		if !ok {
			return probed{}, fmt.Errorf("serving: cache key column %q missing from request (have %s)", k, columnNames(inputs))
		}
		if n == -1 {
			n = v.Len()
		} else if v.Len() != n {
			return probed{}, fmt.Errorf("serving: cache key column %q has %d rows, want %d", k, v.Len(), n)
		}
		cols[i] = v
	}
	pr := probed{out: make([]float64, n), offs: make([]int, n+1), hashes: make([]uint64, n)}
	for r := 0; r < n; r++ {
		pr.keys = cache.AppendRowKey(pr.keys, cols, r)
		pr.offs[r+1] = len(pr.keys)
		key := pr.keys[pr.offs[r]:]
		pr.hashes[r] = cache.Hash64(key)
		if !p.cache.CopyInto(pr.hashes[r], key, pr.out[r:r+1]) {
			pr.miss = append(pr.miss, r)
			if firstMiss {
				break
			}
		}
	}
	return pr, nil
}

// fill completes a probe with the predictions computed for its miss rows, in
// order, and caches them.
func (p *CachedPredictor) fill(pr probed, preds []float64) []float64 {
	for i, r := range pr.miss {
		pr.out[r] = preds[i]
		p.cache.Put(pr.hashes[r], pr.keys[pr.offs[r]:pr.offs[r+1]], preds[i:i+1])
	}
	return pr.out
}

// Stats returns the end-to-end cache's hit and miss counts.
func (p *CachedPredictor) Stats() (hits, misses int64) {
	s := p.cache.Stats()
	return s.Hits, s.Misses
}

// columnNames renders a request's column names for error messages.
func columnNames(inputs map[string]value.Value) string {
	names := make([]string, 0, len(inputs))
	for k := range inputs {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

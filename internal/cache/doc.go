// Package cache implements the caching layers of the paper's section 4.5.
//
// The one cache structure is Sharded: a concurrent feature-vector cache
// used both per-IFV (the feature-level cache, keyed by the raw-input sources
// of the IFV's feature generator) and end-to-end (the Clipper-style
// prediction cache of Tables 2 and 3, keyed by the entire input tuple). It
// is built for the serving hot path:
//
//   - power-of-two shards, each with its own mutex, so concurrent workers do
//     not serialize on a global lock;
//   - 64-bit hashed keys (Hash64) computed inline from length-prefixed row
//     bytes (AppendRowKey) with zero allocations; exact key bytes are kept
//     in pooled entry buffers for collision verification;
//   - slab-backed entries with CLOCK eviction — no container/list, no
//     per-entry allocation once warm;
//   - TinyLFU admission in front of CLOCK: a per-shard count-min sketch of
//     recent lookups, so a key seen once does not evict a key that is
//     reused;
//   - a CopyInto lookup API that copies into caller-owned buffers instead of
//     leaking internal slices;
//   - singleflight miss coalescing (Coalesce), so concurrent requests for
//     the same hot key compute the feature vector once.
//
// Which IFVs get a cache, and how a global entry budget is split between
// them, is decided statistically at Optimize time (internal/core's cache
// planner) from profiled generator costs and training-set key reuse, with
// each IFV capped at CapacityFor its estimated key space.
package cache

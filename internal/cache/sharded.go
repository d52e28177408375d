package cache

import (
	"bytes"
	"math"
	"math/bits"
	"runtime"
	"sync"
)

// Stats are a cache's cumulative counters. The json tags are the counters'
// names in the `feature_cache` block of the serving stats response.
type Stats struct {
	// Hits and Misses count lookups by outcome.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts entries displaced by the CLOCK policy.
	Evictions int64 `json:"evictions"`
	// Coalesced counts lookups that waited on another request's in-flight
	// computation of the same key instead of computing it themselves.
	Coalesced int64 `json:"coalesced"`
	// Rejected counts Puts into a full shard that admission declined: the
	// candidate was looked up no more often than CLOCK's next victim.
	Rejected int64 `json:"rejected"`
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Sharded is a concurrent fixed-capacity feature-vector cache: a power-of-two
// number of independently locked shards, each an open-addressing hash table
// over a slab of entries with CLOCK eviction behind frequency-aware
// admission (sketch.go), built for the serving hot path:
//
//   - lookups take one shard mutex, not a global one, so concurrent workers
//     on different keys proceed in parallel;
//   - keys are 64-bit hashes computed inline from raw row bytes (Hash64 over
//     AppendRowKey output); the exact key bytes are kept in per-entry buffers
//     for collision verification, so no key string is ever built;
//   - entries live in a slab and eviction recycles their key/value buffers in
//     place — no container/list, no per-entry allocation once warm;
//   - CopyInto copies the cached vector into a caller-owned destination, so
//     no internal slice escapes.
//
// Capacity <= 0 means unbounded (the "unlimited cache size" configuration of
// the paper's remote-feature experiments): shards grow and never evict.
type Sharded struct {
	shards []shard
	shift  uint // shard index = hash >> shift (top bits; tables use low bits)
	flight flightGroup
}

// entry is one cached key/value pair in a shard's slab. Its buffers are
// recycled in place when CLOCK eviction reuses the slot.
type entry struct {
	hash uint64
	key  []byte
	val  []float64
	ref  bool // CLOCK reference bit
}

// shard is one independently locked segment: an open-addressing table of
// slab indices plus the slab itself.
type shard struct {
	mu sync.Mutex
	// table holds entry index + 1 per slot (0 = empty), indexed by the low
	// bits of the hash with linear probing.
	table []int32
	tmask uint64
	// entries is the slab; bounded shards never exceed capacity entries.
	entries  []entry
	capacity int // max entries; 0 = unbounded
	hand     int // CLOCK hand over the slab
	// freq estimates recent lookup frequency per key hash for admission;
	// unbounded shards never evict and leave it zero.
	freq sketch

	hits, misses, evictions, rejected int64
}

// defaultShardCount returns a power-of-two shard count sized to the machine.
func defaultShardCount() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return nextPow2(n)
}

func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// NewSharded returns a cache holding at most capacity entries in total
// (capacity <= 0 for unbounded), spread over nShards power-of-two shards.
// nShards <= 0 picks a default sized to GOMAXPROCS; small bounded capacities
// reduce the shard count so each shard keeps a useful number of entries.
func NewSharded(capacity, nShards int) *Sharded {
	nShards = shardCount(capacity, nShards)
	c := &Sharded{
		shards: make([]shard, nShards),
		// For a single shard this is 64; shardFor short-circuits that case.
		shift: uint(64 - bits.Len(uint(nShards-1))),
	}
	perShard := 0
	if capacity > 0 {
		perShard = (capacity + nShards - 1) / nShards
	}
	for i := range c.shards {
		c.shards[i].init(perShard)
	}
	return c
}

// shardCount returns the number of shards NewSharded(capacity, nShards)
// builds: nShards rounded up to a power of two (<= 0 picks a default sized
// to GOMAXPROCS), halved for a small bounded capacity until each shard keeps
// at least ~4 entries, so the budget split is not destroyed by rounding
// per-shard capacities up.
func shardCount(capacity, nShards int) int {
	if nShards <= 0 {
		nShards = defaultShardCount()
	}
	nShards = nextPow2(nShards)
	if capacity > 0 {
		for nShards > 1 && capacity/nShards < 4 {
			nShards /= 2
		}
	}
	return nShards
}

// overflowProb bounds the probability that some shard of a CapacityFor-sized
// cache is handed more of the keys than it holds.
const overflowProb = 1e-3

// CapacityFor returns the smallest total capacity at which a cache built by
// NewSharded(capacity, 0) holds keys distinct keys without evicting any,
// except with probability below 1e-3 over how the keys hash to its shards
// (0 for keys <= 0). Keys hash to shards uniformly, so a shard must hold
// more than its even share: 8 keys in 2 shards of 4 would churn.
func CapacityFor(keys int) int { return capacityFor(keys, 0) }

// capacityFor is CapacityFor for NewSharded(capacity, nShards). It tries
// each shard count n that shardCount can pick, smallest first, and returns
// the first n·m — m the per-shard load bound for n shards — for which
// shardCount picks n. The capacities each n can be picked at are disjoint
// and increase with n, so the first fit is the smallest.
func capacityFor(keys, nShards int) int {
	if keys <= 0 {
		return 0
	}
	for n := 1; ; n *= 2 {
		per := shardLoadBound(keys, n)
		if n > 1 {
			per = max(per, 4)
		}
		if shardCount(n*per, nShards) == n {
			return n * per
		}
	}
}

// shardLoadBound returns the least m such that, by the union bound over n
// shards, the chance that any shard receives more than m of keys uniformly
// hashed keys is at most overflowProb: n·P(Binomial(keys, 1/n) > m) <=
// overflowProb. The tail is summed downward from 12 standard deviations
// plus 12 above the mean, beyond which the binomial's mass is negligible
// against overflowProb, so the cost grows with the square root of keys/n.
func shardLoadBound(keys, n int) int {
	if n == 1 {
		return keys
	}
	k, p := float64(keys), 1/float64(n)
	top := min(keys, int(k*p+12*math.Sqrt(k*p*(1-p))+12))
	lgk, _ := math.Lgamma(k + 1)
	lgm, _ := math.Lgamma(float64(top) + 1)
	lgr, _ := math.Lgamma(k - float64(top) + 1)
	// logPMF is log P(X = m), stepped down from m = top by the ratio
	// P(X = m-1) / P(X = m) = m / (keys-m+1) · (1-p) / p.
	logPMF := lgk - lgm - lgr + float64(top)*math.Log(p) + (k-float64(top))*math.Log1p(-p)
	logOdds := math.Log1p(-p) - math.Log(p)
	tail := 0.0 // P(X >= m), neglecting the mass above top
	for m := top; m > 0; m-- {
		tail += math.Exp(logPMF)
		if float64(n)*tail > overflowProb {
			return m // P(X > m-1) is too large, P(X > m) was not
		}
		logPMF += math.Log(float64(m)) - math.Log(k-float64(m)+1) + logOdds
	}
	return 0
}

// init sizes one shard for its per-shard capacity (0 = unbounded).
func (s *shard) init(capacity int) {
	s.capacity = capacity
	size := 64
	if capacity > 0 {
		size = nextPow2(2 * capacity)
		if size < 8 {
			size = 8
		}
	}
	s.table = make([]int32, size)
	s.tmask = uint64(size - 1)
	if capacity > 0 {
		s.entries = make([]entry, 0, capacity)
		s.freq.init(capacity)
	}
}

// shardFor picks the shard from the hash's top bits (the table index uses
// the low bits, so both stay well distributed).
func (c *Sharded) shardFor(hash uint64) *shard {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	return &c.shards[hash>>c.shift]
}

// find returns the slab index of the entry matching (hash, key), or -1.
// Caller holds s.mu.
func (s *shard) find(hash uint64, key []byte) int {
	i := hash & s.tmask
	for {
		ti := s.table[i]
		if ti == 0 {
			return -1
		}
		e := &s.entries[ti-1]
		if e.hash == hash && bytes.Equal(e.key, key) {
			return int(ti - 1)
		}
		i = (i + 1) & s.tmask
	}
}

// CopyInto looks up (hash, key) and, on a hit, copies the cached vector into
// dst and returns true. dst must have the value's length (the per-cache
// vector width is fixed by construction). Nothing internal escapes, so the
// caller may freely mutate dst afterwards. Every lookup, hit or miss, counts
// toward the key's admission frequency.
func (c *Sharded) CopyInto(hash uint64, key []byte, dst []float64) bool {
	s := c.shardFor(hash)
	s.mu.Lock()
	s.freq.record(hash)
	if ei := s.find(hash, key); ei >= 0 {
		e := &s.entries[ei]
		e.ref = true
		copy(dst, e.val)
		s.hits++
		s.mu.Unlock()
		return true
	}
	s.misses++
	s.mu.Unlock()
	return false
}

// Contains reports whether (hash, key) is cached without copying the value
// or refreshing recency. It still counts as a hit or miss and toward the
// key's admission frequency.
func (c *Sharded) Contains(hash uint64, key []byte) bool {
	s := c.shardFor(hash)
	s.mu.Lock()
	s.freq.record(hash)
	ok := s.find(hash, key) >= 0
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return ok
}

// Put inserts or refreshes (hash, key) -> val, copying both key and value
// into entry-owned buffers. When a bounded shard is full, the entry CLOCK
// would evict next is replaced, its buffers recycled, only if the key was
// looked up more often recently than it; otherwise the Put is declined and
// counted as Rejected. A warm bounded cache allocates nothing per Put.
func (c *Sharded) Put(hash uint64, key []byte, val []float64) {
	s := c.shardFor(hash)
	s.mu.Lock()
	if ei := s.find(hash, key); ei >= 0 {
		e := &s.entries[ei]
		e.val = append(e.val[:0], val...)
		e.ref = true
		s.mu.Unlock()
		return
	}
	if s.capacity > 0 && len(s.entries) >= s.capacity {
		ei := s.victim()
		if s.freq.estimate(hash) <= s.freq.estimate(s.entries[ei].hash) {
			s.rejected++
			s.mu.Unlock()
			return
		}
		s.unlink(ei)
		s.hand++
		s.evictions++
		e := &s.entries[ei]
		e.hash = hash
		e.key = append(e.key[:0], key...)
		e.val = append(e.val[:0], val...)
		e.ref = true
		s.insert(ei)
	} else {
		s.entries = append(s.entries, entry{
			hash: hash,
			key:  append([]byte(nil), key...),
			val:  append([]float64(nil), val...),
			ref:  true,
		})
		// Insert before any rehash: maybeGrow rebuilds the table from the
		// slab, so inserting afterwards would leave a second slot aliasing
		// this entry and break unlink()'s one-slot-per-entry invariant.
		s.insert(len(s.entries) - 1)
		s.maybeGrow()
	}
	s.mu.Unlock()
}

// insert links slab entry ei into the table by linear probing from its
// hash's home slot. Caller holds s.mu and guarantees the key is absent.
func (s *shard) insert(ei int) {
	i := s.entries[ei].hash & s.tmask
	for s.table[i] != 0 {
		i = (i + 1) & s.tmask
	}
	s.table[i] = int32(ei + 1)
}

// victim runs the CLOCK hand over the slab: referenced entries get a second
// chance (ref cleared), and the first unreferenced entry is returned with
// the hand left on it, so a declined Put meets the same victim next time.
// Caller holds s.mu; the slab is non-empty.
func (s *shard) victim() int {
	for {
		if s.hand >= len(s.entries) {
			s.hand = 0
		}
		e := &s.entries[s.hand]
		if !e.ref {
			return s.hand
		}
		e.ref = false
		s.hand++
	}
}

// unlink removes slab entry ei from the probe table using backward-shift
// deletion, preserving the linear-probing invariant without tombstones.
// Caller holds s.mu.
func (s *shard) unlink(ei int) {
	// Locate the table slot holding ei.
	i := s.entries[ei].hash & s.tmask
	for s.table[i] != int32(ei+1) {
		i = (i + 1) & s.tmask
	}
	mask := s.tmask
	j := i
	for {
		s.table[i] = 0
		for {
			j = (j + 1) & mask
			if s.table[j] == 0 {
				return
			}
			home := s.entries[s.table[j]-1].hash & mask
			// Entry at j may move into the hole at i only if its home slot
			// does not lie in the cyclic interval (i, j].
			if j > i {
				if home <= i || home > j {
					break
				}
			} else if home <= i && home > j {
				break
			}
		}
		s.table[i] = s.table[j]
		i = j
	}
}

// maybeGrow rehashes an unbounded shard's table once it passes 3/4 load.
// Caller holds s.mu.
func (s *shard) maybeGrow() {
	if s.capacity > 0 || len(s.entries) < len(s.table)*3/4 {
		return
	}
	s.table = make([]int32, len(s.table)*2)
	s.tmask = uint64(len(s.table) - 1)
	for i := range s.entries {
		s.insert(i)
	}
}

// Len returns the total number of cached entries.
func (c *Sharded) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Capacity returns the configured total entry bound (0 = unbounded). The
// effective bound is the per-shard rounding of the requested capacity.
func (c *Sharded) Capacity() int {
	total := 0
	for i := range c.shards {
		if c.shards[i].capacity == 0 {
			return 0
		}
		total += c.shards[i].capacity
	}
	return total
}

// Stats returns the cache's cumulative counters, summed over shards.
func (c *Sharded) Stats() Stats {
	var out Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out.Hits += s.hits
		out.Misses += s.misses
		out.Evictions += s.evictions
		out.Rejected += s.rejected
		s.mu.Unlock()
	}
	out.Coalesced = c.flight.coalesced.Load()
	return out
}

// Reset clears contents, admission frequencies and statistics.
func (c *Sharded) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		clear(s.table)
		s.entries = s.entries[:0]
		s.hand = 0
		s.freq.reset()
		s.hits, s.misses, s.evictions, s.rejected = 0, 0, 0, 0
		s.mu.Unlock()
	}
	c.flight.coalesced.Store(0)
}

package cache

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// intKey encodes an integer as a key the way production callers do.
func intKey(k int64) []byte {
	var b [9]byte
	b[0] = keyTagInt
	binary.LittleEndian.PutUint64(b[1:], uint64(k))
	return b[:]
}

// keyVal derives a self-verifying value from a key, so corruption anywhere
// in the table/slab machinery surfaces as a wrong vector.
func keyVal(k int64) []float64 { return []float64{float64(k), float64(k) * 2} }

func TestShardedGetPut(t *testing.T) {
	c := NewSharded(64, 4)
	k := intKey(7)
	h := Hash64(k)
	dst := make([]float64, 2)
	if c.CopyInto(h, k, dst) {
		t.Error("empty cache should miss")
	}
	c.Put(h, k, keyVal(7))
	if !c.CopyInto(h, k, dst) {
		t.Fatal("just-inserted key should hit")
	}
	if dst[0] != 7 || dst[1] != 14 {
		t.Errorf("CopyInto = %v, want [7 14]", dst)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss", st)
	}
	// CopyInto hands out a copy: mutating dst must not corrupt the cache.
	dst[0] = -999
	dst2 := make([]float64, 2)
	if !c.CopyInto(h, k, dst2) || dst2[0] != 7 {
		t.Errorf("cached value corrupted through caller buffer: %v", dst2)
	}
}

func TestShardedUpdateExisting(t *testing.T) {
	c := NewSharded(8, 1)
	k := intKey(1)
	h := Hash64(k)
	c.Put(h, k, []float64{1, 1})
	c.Put(h, k, []float64{9, 9})
	dst := make([]float64, 2)
	if !c.CopyInto(h, k, dst) || dst[0] != 9 {
		t.Errorf("updated value = %v, want [9 9]", dst)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

// TestShardedEvictionBound overflows a small cache twice: first with keys
// Put without a lookup, which admission declines once the shards are full,
// then with keys that missed twice before their Put, which out-count CLOCK's
// victims and so evict. The size bound holds throughout and every hit
// returns its own value.
func TestShardedEvictionBound(t *testing.T) {
	c := NewSharded(32, 4)
	bound := c.Capacity()
	if bound < 32 {
		t.Fatalf("effective capacity %d below requested 32", bound)
	}
	dst := make([]float64, 2)
	for k := int64(0); k < 1000; k++ {
		kb := intKey(k)
		if k >= 500 {
			c.CopyInto(Hash64(kb), kb, dst)
			c.CopyInto(Hash64(kb), kb, dst)
		}
		c.Put(Hash64(kb), kb, keyVal(k))
		if c.Len() > bound {
			t.Fatalf("Len = %d exceeds capacity %d after %d puts", c.Len(), bound, k+1)
		}
		if k == 499 && c.Stats().Rejected == 0 {
			t.Error("no Put declined although unreferenced keys overflowed full shards")
		}
	}
	if c.Stats().Evictions == 0 {
		t.Error("no evictions recorded despite a re-referenced overflow")
	}
	// Every surviving entry must still map to its own value.
	survivors := 0
	for k := int64(0); k < 1000; k++ {
		kb := intKey(k)
		if c.CopyInto(Hash64(kb), kb, dst) {
			survivors++
			if dst[0] != float64(k) || dst[1] != float64(k)*2 {
				t.Fatalf("key %d maps to %v", k, dst)
			}
		}
	}
	if survivors == 0 || survivors > bound {
		t.Errorf("survivors = %d, want in (0, %d]", survivors, bound)
	}
}

func TestShardedUnbounded(t *testing.T) {
	c := NewSharded(0, 4)
	for k := int64(0); k < 5000; k++ {
		kb := intKey(k)
		c.Put(Hash64(kb), kb, keyVal(k))
	}
	if c.Len() != 5000 {
		t.Fatalf("unbounded cache evicted: len = %d", c.Len())
	}
	dst := make([]float64, 2)
	for k := int64(0); k < 5000; k++ {
		kb := intKey(k)
		if !c.CopyInto(Hash64(kb), kb, dst) || dst[0] != float64(k) {
			t.Fatalf("unbounded cache lost or corrupted key %d (%v)", k, dst)
		}
	}
}

// TestShardedRehashNoDuplicateSlots pins the one-slot-per-entry table
// invariant across unbounded growth: a Put whose append crosses the load
// threshold rehashes the table, and the new entry must end up in exactly one
// slot (a duplicate would break backward-shift deletion later).
func TestShardedRehashNoDuplicateSlots(t *testing.T) {
	c := NewSharded(0, 1)
	s := &c.shards[0]
	for k := int64(0); k < 500; k++ {
		kb := intKey(k)
		c.Put(Hash64(kb), kb, keyVal(k))
		occupied := 0
		for _, ti := range s.table {
			if ti != 0 {
				occupied++
			}
		}
		if occupied != len(s.entries) {
			t.Fatalf("after %d puts: %d occupied slots for %d entries", k+1, occupied, len(s.entries))
		}
	}
}

func TestShardedReset(t *testing.T) {
	c := NewSharded(16, 2)
	k := intKey(3)
	c.Put(Hash64(k), k, keyVal(3))
	c.CopyInto(Hash64(k), k, make([]float64, 2))
	c.Reset()
	if c.Len() != 0 {
		t.Error("Reset should clear entries")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("Reset should clear stats, got %+v", st)
	}
	if c.CopyInto(Hash64(k), k, make([]float64, 2)) {
		t.Error("entry survived Reset")
	}
}

func TestShardedContains(t *testing.T) {
	c := NewSharded(16, 2)
	k := intKey(5)
	h := Hash64(k)
	if c.Contains(h, k) {
		t.Error("empty cache contains key")
	}
	c.Put(h, k, keyVal(5))
	if !c.Contains(h, k) {
		t.Error("cache lost just-inserted key")
	}
}

// TestShardedCollisionVerification plants two keys that the shard maps to
// the same hash (forged) and checks the exact-bytes comparison keeps them
// distinct.
func TestShardedCollisionVerification(t *testing.T) {
	c := NewSharded(16, 1)
	k1 := []byte{keyTagString, 1, 'a'}
	k2 := []byte{keyTagString, 1, 'b'}
	h := uint64(0x1234) // same forged hash for both
	c.Put(h, k1, []float64{1})
	c.Put(h, k2, []float64{2})
	dst := make([]float64, 1)
	if !c.CopyInto(h, k1, dst) || dst[0] != 1 {
		t.Errorf("k1 = %v, want [1]", dst)
	}
	if !c.CopyInto(h, k2, dst) || dst[0] != 2 {
		t.Errorf("k2 = %v, want [2]", dst)
	}
}

// TestShardedProperty drives random Put/CopyInto/evict sequences and checks
// the standing invariants: the size bound holds, a hit always returns the
// key's own value, and a just-inserted key hits exactly when its shard had
// room or the key out-counted CLOCK's victim — every other Put is declined
// and counted as rejected.
func TestShardedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capN := 8 + rng.Intn(120)
		c := NewSharded(capN, 1<<rng.Intn(3))
		bound := c.Capacity()
		dst := make([]float64, 2)
		var declined int64
		for i := 0; i < 600; i++ {
			k := int64(rng.Intn(300))
			kb := intKey(k)
			h := Hash64(kb)
			if c.CopyInto(h, kb, dst) {
				if dst[0] != float64(k) || dst[1] != float64(k)*2 {
					return false
				}
			} else {
				s := c.shardFor(h)
				admit := len(s.entries) < s.capacity ||
					s.freq.estimate(h) > s.freq.estimate(s.entries[s.victim()].hash)
				c.Put(h, kb, keyVal(k))
				if !admit {
					declined++
				}
				if hit := c.CopyInto(h, kb, dst); hit != admit || hit && dst[0] != float64(k) {
					return false
				}
			}
			if bound > 0 && c.Len() > bound {
				return false
			}
		}
		return c.Stats().Rejected == declined
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestShardedAdmissionScanResistance warms a hot set that fills the cache,
// then streams ten times the capacity in keys that are each looked up once.
// Admission declines them, so the hot set survives; CLOCK alone would have
// evicted every hot key.
func TestShardedAdmissionScanResistance(t *testing.T) {
	for _, shards := range []int{1, 4} {
		const capN = 64
		c := NewSharded(capN, shards)
		hot := int64(c.Capacity())
		dst := make([]float64, 2)
		lookup := func(k int64) bool {
			kb := intKey(k)
			if c.CopyInto(Hash64(kb), kb, dst) {
				return true
			}
			c.Put(Hash64(kb), kb, keyVal(k))
			return false
		}
		// The hot set is as large as the cache; a few hot keys lose to
		// siblings in a fuller shard, the rest are all resident.
		for round := 0; round < 8; round++ {
			for k := int64(0); k < hot; k++ {
				lookup(k)
			}
		}
		resident := map[int64]bool{}
		for k := int64(0); k < hot; k++ {
			kb := intKey(k)
			if c.Contains(Hash64(kb), kb) {
				resident[k] = true
			}
		}
		for k := int64(0); k < 10*capN; k++ {
			lookup(1_000_000 + k)
		}
		lost := 0
		for k := range resident {
			kb := intKey(k)
			if !c.CopyInto(Hash64(kb), kb, dst) {
				lost++
			} else if dst[0] != float64(k) {
				t.Fatalf("%d shards: hot key %d maps to %v", shards, k, dst)
			}
		}
		st := c.Stats()
		t.Logf("%d shards: %d hot keys resident, %d lost to the scan; %+v", shards, len(resident), lost, st)
		if lost > 0 || len(resident) < int(hot)*3/4 {
			t.Errorf("%d shards: scan of one-hit keys evicted %d of %d resident hot keys", shards, lost, len(resident))
		}
		if st.Rejected < 9*capN {
			t.Errorf("%d shards: %d of %d one-hit Puts declined, want nearly all", shards, st.Rejected, 10*capN)
		}
	}
}

// TestShardedAdmissionAdmitsRisingKey: a key that keeps missing gains
// frequency until it out-counts CLOCK's victim, a key put once, and
// displaces it.
func TestShardedAdmissionAdmitsRisingKey(t *testing.T) {
	c := NewSharded(8, 1)
	dst := make([]float64, 2)
	for k := int64(0); k < 8; k++ {
		kb := intKey(k)
		c.CopyInto(Hash64(kb), kb, dst)
		c.Put(Hash64(kb), kb, keyVal(k))
	}
	rising := intKey(100)
	h := Hash64(rising)
	misses := 0
	for !c.CopyInto(h, rising, dst) {
		if misses++; misses > 3 {
			t.Fatalf("key missed %d times and was never admitted: %+v", misses, c.Stats())
		}
		c.Put(h, rising, keyVal(100))
	}
	if dst[0] != 100 {
		t.Errorf("admitted key maps to %v", dst)
	}
	st := c.Stats()
	if misses != 2 || st.Rejected != 1 || st.Evictions != 1 || c.Len() != 8 {
		t.Errorf("rising key admitted after %d misses, stats %+v, len %d; want declined once at 1 lookup, admitted at 2 evicting one cold key", misses, st, c.Len())
	}
}

// TestCapacityForHoldsKeySpace: a cache of capacityFor(k, n) entries, built
// with n shards, holds k keys without evicting or declining any, so after
// one warm-up pass every lookup hits.
func TestCapacityForHoldsKeySpace(t *testing.T) {
	if CapacityFor(0) != 0 || CapacityFor(24) != capacityFor(24, 0) {
		t.Errorf("CapacityFor(0) = %d, CapacityFor(24) = %d, want 0 and capacityFor(24, 0) = %d",
			CapacityFor(0), CapacityFor(24), capacityFor(24, 0))
	}
	for _, shards := range []int{1, 2, 8} {
		for _, k := range []int{1, 2, 3, 8, 24, 100, 1000} {
			capN := capacityFor(k, shards)
			c := NewSharded(capN, shards)
			if c.Capacity() != capN || capN < k || capN > 2*k+8*shards {
				t.Errorf("%d shards, %d keys: capacityFor = %d, effective %d", shards, k, capN, c.Capacity())
			}
			dst := make([]float64, 2)
			for pass := 0; pass < 2; pass++ {
				for key := int64(0); key < int64(k); key++ {
					kb := intKey(key)
					if !c.CopyInto(Hash64(kb), kb, dst) {
						c.Put(Hash64(kb), kb, keyVal(key))
					}
				}
			}
			if st := c.Stats(); st.Hits != int64(k) || st.Evictions != 0 || st.Rejected != 0 {
				t.Errorf("%d shards, %d keys in %d entries: %+v, want %d hits on the second pass", shards, k, capN, st, k)
			}
		}
	}
}

// TestShardedDeletionInvariant hammers a single tiny shard so CLOCK
// eviction and backward-shift table deletion interleave heavily; every hit
// must still return the key's own value afterwards.
func TestShardedDeletionInvariant(t *testing.T) {
	c := NewSharded(8, 1)
	rng := rand.New(rand.NewSource(42))
	dst := make([]float64, 2)
	for i := 0; i < 20000; i++ {
		k := int64(rng.Intn(64))
		kb := intKey(k)
		h := Hash64(kb)
		if c.CopyInto(h, kb, dst) {
			if dst[0] != float64(k) {
				t.Fatalf("iteration %d: key %d maps to %v", i, k, dst)
			}
		} else {
			c.Put(h, kb, keyVal(k))
		}
	}
	if ev := c.Stats().Evictions; ev == 0 {
		t.Error("tiny shard recorded no evictions")
	}
}

func TestShardedStatsString(t *testing.T) {
	st := Stats{Hits: 3, Misses: 1}
	if got := st.HitRate(); got != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", got)
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty HitRate should be 0")
	}
}

// TestShardedWarmZeroAlloc pins the hot-path contract: a warm hit and a warm
// Put over an existing key (and a Put that recycles an evicted slot) touch
// the heap zero times.
func TestShardedWarmZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := NewSharded(64, 4)
	keys := make([][]byte, 256)
	hashes := make([]uint64, 256)
	for i := range keys {
		keys[i] = intKey(int64(i))
		hashes[i] = Hash64(keys[i])
	}
	val := []float64{1, 2}
	// Warm: fill past capacity so further puts recycle evicted slots.
	for i := range keys {
		c.Put(hashes[i], keys[i], val)
	}
	dst := make([]float64, 2)
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		i++
		k := i % len(keys)
		if !c.CopyInto(hashes[k], keys[k], dst) {
			c.Put(hashes[k], keys[k], val)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm get/put allocates %.2f objects/op, want 0", allocs)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 63: 64, 64: 64, 65: 128}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestShardedSmallCapacityShardClamp(t *testing.T) {
	// A tiny budget must not be multiplied by per-shard rounding.
	c := NewSharded(8, 64)
	if got := c.Capacity(); got > 16 {
		t.Errorf("capacity 8 ballooned to %d via shard rounding", got)
	}
	for k := int64(0); k < 100; k++ {
		kb := intKey(k)
		c.Put(Hash64(kb), kb, keyVal(k))
	}
	if c.Len() > c.Capacity() {
		t.Errorf("Len %d exceeds capacity %d", c.Len(), c.Capacity())
	}
	_ = fmt.Sprint(c.Len())
}

package cache

import "math/bits"

// Frequency-aware admission (TinyLFU, Einziger, Friedman and Manes): every
// bounded shard keeps a count-min sketch of how often each key hash was
// looked up recently, and a Put into a full shard displaces the entry CLOCK
// would evict next only when the candidate was looked up more often. Keys
// from a long tail that are seen once then miss without evicting keys that
// are reused, which CLOCK alone cannot tell apart. The rule draws no random
// numbers, so which entries a shard holds is a function of its access
// sequence alone.

const (
	// sketchRows is the count-min sketch's depth: a key's estimate is the
	// least of its counters in this many rows.
	sketchRows = 4
	// sketchWidthFactor sets a row's width to this many counters per entry of
	// shard capacity (rounded up to a power of two), enough that a one-hit
	// key rarely collides with a reused one in every row.
	sketchWidthFactor = 16
	// sketchAgeFactor halves every counter after this many recorded lookups
	// per entry of shard capacity, so the estimate follows recent frequency
	// and a key that stopped being hot stops outranking newcomers.
	sketchAgeFactor = 10
	// counterMax is the saturation value of a 4-bit counter.
	counterMax = 15
)

// sketchSeeds are odd multipliers, one per row; a row indexes its counters
// by the top bits of the key hash times its seed.
var sketchSeeds = [sketchRows]uint64{
	0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9, 0xd6e8feb86659fd93,
}

// sketch is a count-min sketch of 4-bit saturating counters packed 16 to a
// word, sized once for a shard's capacity: recording and estimating never
// allocate. The zero sketch (an unbounded shard) records nothing.
type sketch struct {
	words    []uint64 // sketchRows rows of rowWords words each
	rowWords int
	shift    uint // counter index in a row = (hash * seed) >> shift
	samples  int  // lookups recorded since the counters were last halved
	ageAt    int
}

// init sizes the sketch for a shard holding capacity entries.
func (s *sketch) init(capacity int) {
	counters := nextPow2(max(sketchWidthFactor*capacity, 16))
	s.rowWords = counters / 16
	s.words = make([]uint64, sketchRows*s.rowWords)
	s.shift = uint(64 - bits.TrailingZeros(uint(counters)))
	s.ageAt = sketchAgeFactor * capacity
}

// counter returns the word index and bit offset of hash's counter in row r.
func (s *sketch) counter(hash uint64, r int) (int, uint) {
	c := int((hash * sketchSeeds[r]) >> s.shift)
	return r*s.rowWords + c>>4, uint(c&15) * 4
}

// record counts one lookup of hash, halving every counter once the sketch
// has recorded its aging period's worth of lookups.
func (s *sketch) record(hash uint64) {
	if s.words == nil {
		return
	}
	for r := 0; r < sketchRows; r++ {
		w, off := s.counter(hash, r)
		if (s.words[w]>>off)&counterMax < counterMax {
			s.words[w] += 1 << off
		}
	}
	if s.samples++; s.samples >= s.ageAt {
		for i, w := range s.words {
			s.words[i] = (w >> 1) & 0x7777777777777777
		}
		s.samples /= 2
	}
}

// estimate returns hash's estimated recent lookup count: the least of its
// counters, which over-counts only when every row collides.
func (s *sketch) estimate(hash uint64) uint64 {
	est := uint64(counterMax)
	for r := 0; r < sketchRows; r++ {
		w, off := s.counter(hash, r)
		est = min(est, (s.words[w]>>off)&counterMax)
	}
	return est
}

// reset zeroes every counter.
func (s *sketch) reset() {
	clear(s.words)
	s.samples = 0
}

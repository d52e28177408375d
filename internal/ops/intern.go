package ops

import (
	"math/bits"
	"strings"
	"unicode"
	"unicode/utf8"
)

// This file holds the lookup structures a fused text chain compiles its
// fitted vocabulary into (FuseTextChain builds them once): char n-grams of
// up to eight bytes are probed as packed integers, word n-grams as paths of
// interned word ids, so the per-token work is integer probes into
// open-addressing tables instead of string hashing and string building.

// packedTable is an open-addressing (linear probing) table from uint64 keys
// to non-negative int32 values, at most half full.
type packedTable struct {
	slots []packedSlot
	shift uint
}

// packedSlot is one table entry. link fills what would be padding: a
// gramIndex keeps a term's suffix link there; other tables leave it unused.
type packedSlot struct {
	key  uint64
	val  int32 // -1 marks an empty slot
	link int32
}

func newPackedTable(n int) *packedTable {
	size := 8
	for size < 2*n {
		size *= 2
	}
	t := &packedTable{slots: make([]packedSlot, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
	for i := range t.slots {
		t.slots[i].val = -1
	}
	return t
}

// slot returns the index of key's slot, or of the empty slot it would take.
func (t *packedTable) slot(key uint64) int {
	mask := len(t.slots) - 1
	i := int((key * 0x9E3779B97F4A7C15) >> t.shift)
	for t.slots[i].val >= 0 && t.slots[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

func (t *packedTable) put(key uint64, val int32) {
	t.slots[t.slot(key)] = packedSlot{key: key, val: val}
}

// get returns key's value, or -1 when absent.
func (t *packedTable) get(key uint64) int32 { return t.slots[t.slot(key)].val }

// maxPackedGram is the longest char n-gram (in bytes) that packs into a key.
const maxPackedGram = 8

// gramIndex is a fitted char n-gram vocabulary compiled for byte windows of
// lengths [minN, maxN]: one packed table per length up to maxPackedGram, and
// the vocabulary's own string probe for longer windows.
//
// The windows ending at one byte are suffixes of each other, so each packed
// term carries a suffix link: the column of its longest proper suffix of at
// least minN bytes that is also a term (-1 when none is), in its slot and in
// links by column. Following links from a term's column enumerates every
// shorter term among its suffixes, so count probes only until the longest
// window that is a term.
type gramIndex struct {
	minN, maxN int
	tabs       [maxPackedGram + 1]*packedTable // by window length
	links      []int32                         // by column; -1 ends a chain
	vocab      map[string]int
}

func newGramIndex(vocab map[string]int, minN, maxN int) *gramIndex {
	g := &gramIndex{minN: minN, maxN: maxN, vocab: vocab, links: make([]int32, len(vocab))}
	hi := min(maxN, maxPackedGram)
	var sizes [maxPackedGram + 1]int
	for term := range vocab {
		if n := len(term); n >= minN && n <= hi {
			sizes[n]++
		}
	}
	for n := minN; n <= hi; n++ {
		g.tabs[n] = newPackedTable(sizes[n])
	}
	for i := range g.links {
		g.links[i] = -1
	}
	for term, col := range vocab {
		n := len(term)
		if n < minN || n > hi {
			continue
		}
		var key uint64
		for i := 0; i < n; i++ {
			key = key<<8 | uint64(term[i])
		}
		link := int32(-1)
		for k := n - 1; k >= minN; k-- {
			if suf, ok := vocab[term[n-k:]]; ok {
				link = int32(suf)
				break
			}
		}
		t := g.tabs[n]
		t.slots[t.slot(key)] = packedSlot{key: key, val: int32(col), link: link}
		g.links[col] = link
	}
	return g
}

// count tallies the vocabulary hits of every byte window of doc into acc.
// The packed windows roll: w holds the last eight bytes, and the n-byte
// window ending at a position is w's low n bytes. At each byte the windows
// are probed longest first; the first that is a term is counted with its
// suffix chain, and no shorter window is probed.
func (g *gramIndex) count(doc []byte, acc *sparseAcc) {
	hi := min(g.maxN, maxPackedGram)
	var w uint64
	for e, c := range doc {
		w = w<<8 | uint64(c)
		for n := min(hi, e+1); n >= g.minN; n-- {
			key := w
			if n < 8 {
				key &= 1<<(8*uint(n)) - 1
			}
			t := g.tabs[n]
			if s := &t.slots[t.slot(key)]; s.val >= 0 {
				acc.hit(int(s.val))
				for l := s.link; l >= 0; l = g.links[l] {
					acc.hit(int(l))
				}
				break
			}
		}
	}
	for n := max(g.minN, maxPackedGram+1); n <= g.maxN; n++ {
		for i := 0; i+n <= len(doc); i++ {
			if col, ok := g.vocab[string(doc[i:i+n])]; ok {
				acc.hit(col)
			}
		}
	}
}

// wordIndex is a fitted word n-gram vocabulary compiled for token streams:
// every word of every term is interned to an id (one probe per token), and
// the terms form a trie over ids — a unigram's node is its word id, an
// n-gram's node is reached by one packed (node, id) probe per further word.
type wordIndex struct {
	minN, maxN int

	// Interned words: an open-addressing table over FNV-1a hashes (computed
	// while the token is scanned) whose entries point into blob.
	words []wordSlot
	shift uint
	blob  []byte

	edges   *packedTable // (parent node << 32 | word id) -> child node
	nodeCol []int32      // node -> vocabulary column, -1 when no term ends there
}

type wordSlot struct {
	hash     uint32 // low half of the word's hash: a cheap first comparison
	off, end uint32 // the word is blob[off:end]
	id       int32  // -1 marks an empty slot
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// newWordIndex compiles vocab for word n-grams of [minN, maxN] tokens joined
// by single spaces. The tokens come from strings.Fields-style splitting, so
// they are never empty and never contain whitespace: a term splits back into
// its tokens on " " unambiguously, and a term that does not (or whose length
// is out of range) can match no n-gram and is left out.
func newWordIndex(vocab map[string]int, minN, maxN int) *wordIndex {
	terms := make([]string, len(vocab))
	for term, col := range vocab {
		terms[col] = term
	}
	type entry struct {
		parts []string
		col   int
	}
	var entries []entry
	distinct := make(map[string]int32)
	for col, term := range terms {
		parts := strings.Split(term, " ")
		ok := len(parts) >= minN && len(parts) <= maxN
		for _, p := range parts {
			if p == "" || strings.IndexFunc(p, unicode.IsSpace) >= 0 {
				ok = false
			}
		}
		if !ok {
			continue
		}
		for _, p := range parts {
			if _, seen := distinct[p]; !seen {
				distinct[p] = int32(len(distinct))
			}
		}
		entries = append(entries, entry{parts, col})
	}

	x := &wordIndex{minN: minN, maxN: maxN}
	size := 8
	for size < 2*len(distinct) {
		size *= 2
	}
	x.words = make([]wordSlot, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for i := range x.words {
		x.words[i].id = -1
	}
	x.nodeCol = make([]int32, len(distinct))
	for word, id := range distinct {
		h := uint64(fnvOffset64)
		for i := 0; i < len(word); i++ {
			h = (h ^ uint64(word[i])) * fnvPrime64
		}
		i := x.home(h)
		for x.words[i].id >= 0 {
			i = (i + 1) & (size - 1)
		}
		x.words[i] = wordSlot{hash: uint32(h), off: uint32(len(x.blob)), end: uint32(len(x.blob) + len(word)), id: id}
		x.blob = append(x.blob, word...)
		x.nodeCol[id] = -1
	}

	edges := 0
	for _, e := range entries {
		edges += len(e.parts) - 1
	}
	x.edges = newPackedTable(edges)
	for _, e := range entries {
		node := distinct[e.parts[0]]
		for _, p := range e.parts[1:] {
			key := uint64(node)<<32 | uint64(distinct[p])
			child := x.edges.get(key)
			if child < 0 {
				child = int32(len(x.nodeCol))
				x.nodeCol = append(x.nodeCol, -1)
				x.edges.put(key, child)
			}
			node = child
		}
		x.nodeCol[node] = int32(e.col)
	}
	return x
}

func (x *wordIndex) home(h uint64) int { return int((h * 0x9E3779B97F4A7C15) >> x.shift) }

// id returns the interned id of word (whose FNV-1a hash is h), or -1.
func (x *wordIndex) id(word []byte, h uint64) int32 {
	mask := len(x.words) - 1
	for i := x.home(h); ; i = (i + 1) & mask {
		s := &x.words[i]
		if s.id < 0 {
			return -1
		}
		if s.hash == uint32(h) && string(x.blob[s.off:s.end]) == string(word) {
			return s.id
		}
	}
}

// count tallies the vocabulary hits of doc's word n-grams into acc, using
// ids as the token-id scratch, which it returns for reuse.
func (x *wordIndex) count(doc []byte, acc *sparseAcc, ids []int32) []int32 {
	ids = ids[:0]
	for i := 0; ; {
		start, end, h := nextField(doc, i)
		if start == end {
			break
		}
		ids = append(ids, x.id(doc[start:end], h))
		i = end
	}
	for i, node := range ids {
		for n := 1; ; n++ {
			if node < 0 {
				break // a word (or path) no term contains
			}
			if col := x.nodeCol[node]; col >= 0 && n >= x.minN {
				acc.hit(int(col))
			}
			if n == x.maxN || i+n == len(ids) || ids[i+n] < 0 {
				break
			}
			node = x.edges.get(uint64(node)<<32 | uint64(ids[i+n]))
		}
	}
	return ids
}

// nextField returns the bounds of doc's first whitespace-delimited field at
// or after i — the splitting of strings.Fields: runs of unicode.IsSpace
// runes separate fields, invalid UTF-8 bytes do not — and the field's 64-bit
// FNV-1a hash. start == end when no field is left.
func nextField(doc []byte, i int) (start, end int, h uint64) {
	for i < len(doc) {
		if c := doc[i]; c < utf8.RuneSelf {
			if byteClass[c]&classSpace == 0 {
				break
			}
			i++
		} else {
			r, w := utf8.DecodeRune(doc[i:])
			if !unicode.IsSpace(r) {
				break
			}
			i += w
		}
	}
	start = i
	h = fnvOffset64
	for i < len(doc) {
		w := 1
		if c := doc[i]; c < utf8.RuneSelf {
			if byteClass[c]&classSpace != 0 {
				break
			}
		} else {
			var r rune
			if r, w = utf8.DecodeRune(doc[i:]); unicode.IsSpace(r) {
				break
			}
		}
		for ; w > 0; w-- {
			h = (h ^ uint64(doc[i])) * fnvPrime64
			i++
		}
	}
	return start, i, h
}

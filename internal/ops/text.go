package ops

import (
	"encoding/json"
	"math"
	"math/bits"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"

	"willump/internal/value"
)

// Clean normalizes raw text: lower-cases it and replaces punctuation with
// spaces. It is the first stage of the paper's string-processing pipelines.
type Clean struct{}

// NewClean returns a text-cleaning operator.
func NewClean() *Clean { return &Clean{} }

// Name implements graph.Op.
func (c *Clean) Name() string { return "clean" }

// Compilable implements graph.Op.
func (c *Clean) Compilable() bool { return true }

// Commutative implements graph.Op.
func (c *Clean) Commutative() bool { return false }

// cleanASCII maps an ASCII byte to its cleaned form: letters lower-cased,
// digits and the space kept, everything else a space.
var cleanASCII = func() (t [utf8.RuneSelf]byte) {
	for c := range t {
		switch {
		case 'A' <= c && c <= 'Z':
			t[c] = byte(c) + 'a' - 'A'
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
			t[c] = byte(c)
		default:
			t[c] = ' '
		}
	}
	return t
}()

// appendClean appends the cleaned form of s to dst in one pass: upper-case
// runes are lower-cased, other letters, digits and the space are kept, and
// every other rune — an invalid UTF-8 byte included — becomes one space.
func appendClean(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			dst = append(dst, cleanASCII[c])
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		switch {
		case unicode.IsUpper(r):
			dst = utf8.AppendRune(dst, unicode.ToLower(r))
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			dst = append(dst, s[i:i+w]...)
		default:
			dst = append(dst, ' ')
		}
		i += w
	}
	return dst
}

func cleanString(s string) string {
	return string(appendClean(make([]byte, 0, len(s)), s))
}

// Apply implements graph.Op (columnar path).
func (c *Clean) Apply(ins []value.Value) (value.Value, error) {
	return applyFresh(c, ins)
}

// ApplyBoxed implements graph.Op (row-at-a-time path).
func (c *Clean) ApplyBoxed(ins []any) (any, error) {
	if len(ins) != 1 {
		return nil, errArity(c.Name(), len(ins), 1)
	}
	s, ok := ins[0].(string)
	if !ok {
		return nil, errBoxed(c.Name(), 0, ins[0], "string")
	}
	return cleanString(s), nil
}

// Tokenize splits cleaned text into whitespace-separated tokens.
type Tokenize struct{}

// NewTokenize returns a whitespace tokenizer.
func NewTokenize() *Tokenize { return &Tokenize{} }

// Name implements graph.Op.
func (t *Tokenize) Name() string { return "tokenize" }

// Compilable implements graph.Op.
func (t *Tokenize) Compilable() bool { return true }

// Commutative implements graph.Op.
func (t *Tokenize) Commutative() bool { return false }

// Apply implements graph.Op.
func (t *Tokenize) Apply(ins []value.Value) (value.Value, error) {
	return applyFresh(t, ins)
}

// ApplyBoxed implements graph.Op.
func (t *Tokenize) ApplyBoxed(ins []any) (any, error) {
	if len(ins) != 1 {
		return nil, errArity(t.Name(), len(ins), 1)
	}
	s, ok := ins[0].(string)
	if !ok {
		return nil, errBoxed(t.Name(), 0, ins[0], "string")
	}
	return strings.Fields(s), nil
}

// TextStats computes cheap scalar statistics over raw text: character length,
// word count, upper-case ratio, and the count of words from a keyword list
// (e.g. curse words for the Toxic benchmark, which the paper's introduction
// uses as the canonical "important yet inexpensive" feature).
type TextStats struct {
	// The lower-cased non-empty keywords, compiled at setKeywords into an
	// open-addressed table keyed by fingerprint and length: kwShift turns a
	// mixed fingerprint into a slot index, kwProbe bounds a lookup's chain
	// and kwMax is the longest keyword's length. kwEmpty records the ""
	// keyword, which matches a word made only of trim punctuation.
	kwSlots []kwSlot
	kwShift uint
	kwProbe int
	kwMax   int
	kwEmpty bool
}

// kwSlot is one keyword-table slot; an empty kw marks a free slot.
type kwSlot struct {
	fp uint64
	kw string
}

// NewTextStats returns a text-statistics operator counting the given keywords.
func NewTextStats(keywords []string) *TextStats {
	t := &TextStats{}
	t.setKeywords(keywords)
	return t
}

// setKeywords compiles the lower-cased keyword set into its table: a power
// of two at least four times the keyword count, with linear probing. kwProbe
// is the farthest any keyword sits past its first slot, so a lookup reads at
// most kwProbe+1 slots and most words, missing every fingerprint, take one.
func (t *TextStats) setKeywords(keywords []string) {
	size, shift := 1, uint(64)
	for size < 4*len(keywords) {
		size, shift = size*2, shift-1
	}
	*t = TextStats{kwSlots: make([]kwSlot, size), kwShift: shift}
	for _, k := range keywords {
		k = strings.ToLower(k)
		if k == "" {
			t.kwEmpty = true
			continue
		}
		fp := kwFingerprint(k)
		if isKeyword(t, fp, k) {
			continue
		}
		i, d := t.kwHome(fp), 0
		for t.kwSlots[i].kw != "" {
			i, d = (i+1)&(size-1), d+1
		}
		t.kwSlots[i] = kwSlot{fp, k}
		t.kwProbe = max(t.kwProbe, d)
		t.kwMax = max(t.kwMax, len(k))
	}
}

// lowerByte is strings.ToLower on an ASCII byte; bytes of a multi-byte rune
// map to themselves.
var lowerByte = func() (t [256]byte) {
	for c := range t {
		t[c] = byte(c)
		if 'A' <= c && c <= 'Z' {
			t[c] += 'a' - 'A'
		}
	}
	return t
}()

// kwFold folds one more byte into a word's fingerprint, lower-casing it.
func kwFold(h uint64, c byte) uint64 {
	return bits.RotateLeft64(h, 7) ^ uint64(lowerByte[c])
}

// kwFingerprint is the fingerprint of w's lower-cased bytes.
func kwFingerprint[T string | []byte](w T) uint64 {
	var h uint64
	for i := 0; i < len(w); i++ {
		h = kwFold(h, w[i])
	}
	return h
}

// kwHome is the first slot probed for fingerprint fp.
func (t *TextStats) kwHome(fp uint64) int {
	return int(fp * 0x9e3779b97f4a7c15 >> t.kwShift)
}

// kwMiss reports a sure miss without the probe loop, so that it inlines:
// no keyword sits past its first slot and that slot's fingerprint differs.
func (t *TextStats) kwMiss(fp uint64) bool {
	return t.kwProbe == 0 && t.kwSlots[t.kwHome(fp)].fp != fp
}

// isKeyword reports whether w, a non-empty word whose fingerprint is fp,
// lower-cases to a keyword. A fingerprint match is confirmed byte for byte,
// so a collision never counts a word; a free slot matches no word, its kw
// being empty.
func isKeyword[T string | []byte](t *TextStats, fp uint64, w T) bool {
	for i, n := t.kwHome(fp), t.kwProbe; n >= 0; i, n = (i+1)&(len(t.kwSlots)-1), n-1 {
		if slot := &t.kwSlots[i]; slot.fp == fp && len(slot.kw) == len(w) && equalLower(slot.kw, w) {
			return true
		}
	}
	return false
}

// equalLower reports whether w lower-cases to kw, which is as long.
func equalLower[T string | []byte](kw string, w T) bool {
	for j := range len(kw) {
		if lowerByte[w[j]] != kw[j] {
			return false
		}
	}
	return true
}

// Name implements graph.Op.
func (t *TextStats) Name() string { return "text_stats" }

// Compilable implements graph.Op.
func (t *TextStats) Compilable() bool { return true }

// Commutative implements graph.Op.
func (t *TextStats) Commutative() bool { return false }

// Width returns the number of produced features.
func (t *TextStats) Width() int { return 4 }

// Byte classes, for the single-pass scans of the text kernels.
const (
	classUpper = 1 << iota
	classLetter
	classSpace    // the ASCII bytes unicode.IsSpace accepts
	classTrim     // the punctuation stripped from a word before the keyword probe
	classNonASCII // a byte of a multi-byte rune, or an invalid one
)

var byteClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case 'A' <= c && c <= 'Z':
			t[c] = classUpper | classLetter
		case 'a' <= c && c <= 'z':
			t[c] = classLetter
		case strings.IndexByte("\t\n\v\f\r ", byte(c)) >= 0:
			t[c] = classSpace
		case strings.IndexByte(".,!?;:'\"", byte(c)) >= 0:
			t[c] = classTrim
		case c >= utf8.RuneSelf:
			t[c] = classNonASCII
		}
	}
	return t
}()

// byteCounts packs an ASCII byte's upper-case count in the low 32 bits and
// its letter count in the high 32, so one add tallies both; exact for rows
// shorter than 4 GiB.
var byteCounts = func() (t [256]uint64) {
	for c, class := range byteClass {
		if class&classUpper != 0 {
			t[c]++
		}
		if class&classLetter != 0 {
			t[c] += 1 << 32
		}
	}
	return t
}()

// statsRow computes the four statistics of s in one pass over its bytes:
// upper-case and letter bytes are counted as they go by, words are the
// whitespace-delimited fields (strings.Fields' splitting), and each word's
// fingerprint — folded over the same bytes, past its leading and up to its
// trailing trim punctuation — is probed in the keyword table at its end. A
// row holding a byte outside ASCII takes statsRowUnicode instead.
func (t *TextStats) statsRow(s string, dst []float64) {
	var counts uint64
	words, kw := 0, 0
	for i := 0; i < len(s); {
		class := byteClass[s[i]]
		if class&classSpace != 0 {
			i++
			continue
		}
		// A word: skip its leading trim bytes (neither upper-case nor
		// letters), then fold the rest, remembering the extent and the
		// fingerprint as of its last non-trim byte.
		for class&classTrim != 0 {
			if i++; i == len(s) {
				break
			}
			class = byteClass[s[i]]
		}
		start, end := i, i
		var h, fp uint64
		for ; i < len(s); i++ {
			c := s[i]
			class := byteClass[c]
			if class&(classSpace|classNonASCII) != 0 {
				if class&classNonASCII != 0 {
					t.statsRowUnicode(s, dst)
					return
				}
				break
			}
			counts += byteCounts[c]
			h = kwFold(h, c)
			if class&classTrim == 0 {
				end, fp = i+1, h
			}
		}
		words++
		if end == start {
			if t.kwEmpty {
				kw++
			}
		} else if !t.kwMiss(fp) && isKeyword(t, fp, s[start:end]) {
			kw++
		}
	}
	writeStats(dst, len(s), words, int(counts&math.MaxUint32), int(counts>>32), kw)
}

// statsRowUnicode is statsRow on a row holding non-ASCII bytes: runes are
// classified by unicode.IsUpper and IsLetter, and each word is trimmed and
// lower-cased before its fingerprint is probed in the same table.
func (t *TextStats) statsRowUnicode(s string, dst []float64) {
	var upper, letters, words, kw int
	for i := 0; i < len(s); {
		// Between words: skip whitespace, which is neither upper-case nor a
		// letter.
		if c := s[i]; c < utf8.RuneSelf {
			if byteClass[c]&classSpace != 0 {
				i++
				continue
			}
		} else if r, w := utf8.DecodeRuneInString(s[i:]); unicode.IsSpace(r) {
			i += w
			continue
		}
		// A word: count its runes' classes up to the next whitespace.
		start := i
		for i < len(s) {
			if c := s[i]; c < utf8.RuneSelf {
				class := byteClass[c]
				if class&classSpace != 0 {
					break
				}
				upper += int(class & classUpper)
				letters += int(class & classLetter / classLetter)
				i++
				continue
			}
			r, w := utf8.DecodeRuneInString(s[i:])
			if unicode.IsSpace(r) {
				break
			}
			if unicode.IsUpper(r) {
				upper++
			}
			if unicode.IsLetter(r) {
				letters++
			}
			i += w
		}
		words++
		if t.isKeywordUnicode(s[start:i]) {
			kw++
		}
	}
	writeStats(dst, len(s), words, upper, letters, kw)
}

// writeStats writes a row's four statistics.
func writeStats(dst []float64, n, words, upper, letters, kw int) {
	dst[0] = float64(n)
	dst[1] = float64(words)
	if letters > 0 {
		dst[2] = float64(upper) / float64(letters)
	} else {
		dst[2] = 0
	}
	dst[3] = float64(kw)
}

// isKeywordUnicode reports whether word, stripped of leading and trailing
// punctuation and lower-cased (strings.ToLower's mapping: per rune, an
// invalid byte becoming U+FFFD), is a keyword.
func (t *TextStats) isKeywordUnicode(word string) bool {
	for len(word) > 0 && byteClass[word[0]]&classTrim != 0 {
		word = word[1:]
	}
	for n := len(word); n > 0 && byteClass[word[n-1]]&classTrim != 0; n-- {
		word = word[:n-1]
	}
	if word == "" {
		return t.kwEmpty
	}
	var arr [64]byte
	low := arr[:0]
	for i := 0; i < len(word); {
		if len(low) > t.kwMax {
			return false
		}
		if c := word[i]; c < utf8.RuneSelf {
			low = append(low, lowerByte[c])
			i++
		} else {
			r, w := utf8.DecodeRuneInString(word[i:])
			low = utf8.AppendRune(low, unicode.ToLower(r))
			i += w
		}
	}
	return isKeyword(t, kwFingerprint(low), low)
}

// Apply implements graph.Op.
func (t *TextStats) Apply(ins []value.Value) (value.Value, error) {
	return applyFresh(t, ins)
}

// ApplyBoxed implements graph.Op.
func (t *TextStats) ApplyBoxed(ins []any) (any, error) {
	if len(ins) != 1 {
		return nil, errArity(t.Name(), len(ins), 1)
	}
	s, ok := ins[0].(string)
	if !ok {
		return nil, errBoxed(t.Name(), 0, ins[0], "string")
	}
	dst := make([]float64, t.Width())
	t.statsRow(s, dst)
	return dst, nil
}

// textStatsState is the serialized form of a TextStats operator: the keyword
// list in sorted order.
type textStatsState struct {
	Keywords []string `json:"keywords,omitempty"`
}

// MarshalState implements StateMarshaler.
func (t *TextStats) MarshalState() ([]byte, error) {
	var kws []string
	if t.kwEmpty {
		kws = append(kws, "")
	}
	for _, slot := range t.kwSlots {
		if slot.kw != "" {
			kws = append(kws, slot.kw)
		}
	}
	sort.Strings(kws)
	return json.Marshal(textStatsState{Keywords: kws})
}

// UnmarshalState implements StateUnmarshaler.
func (t *TextStats) UnmarshalState(state []byte) error {
	var st textStatsState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	t.setKeywords(st.Keywords)
	return nil
}

package ops

import (
	"encoding/json"
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
	keywords map[string]bool
	// Prefilter derived from keywords — the longest one's length and their
	// first bytes — so most words are rejected without a map probe.
	kwMax   int
	kwFirst [256]bool
}

// NewTextStats returns a text-statistics operator counting the given keywords.
func NewTextStats(keywords []string) *TextStats {
	t := &TextStats{}
	t.setKeywords(keywords)
	return t
}

// setKeywords installs the lower-cased keyword set and its prefilter.
func (t *TextStats) setKeywords(keywords []string) {
	t.keywords = make(map[string]bool, len(keywords))
	t.kwMax = -1
	t.kwFirst = [256]bool{}
	for _, k := range keywords {
		k = strings.ToLower(k)
		t.kwMax = max(t.kwMax, len(k))
		if k != "" {
			t.kwFirst[k[0]] = true
		}
		t.keywords[k] = true
	}
}

// Name implements graph.Op.
func (t *TextStats) Name() string { return "text_stats" }

// Compilable implements graph.Op.
func (t *TextStats) Compilable() bool { return true }

// Commutative implements graph.Op.
func (t *TextStats) Commutative() bool { return false }

// Width returns the number of produced features.
func (t *TextStats) Width() int { return 4 }

// Byte classes of the ASCII range, for the single-pass scans of the text
// kernels.
const (
	classUpper = 1 << iota
	classLetter
	classSpace // the ASCII bytes unicode.IsSpace accepts
	classTrim  // the punctuation stripped from a word before the keyword probe
)

var asciiClass = func() (t [utf8.RuneSelf]uint8) {
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
		}
	}
	return t
}()

// statsRow computes the four statistics of s in one pass: upper-case and
// letter runes are counted as they go by, words are the whitespace-delimited
// fields (strings.Fields' splitting), and each word is probed against the
// keywords at its end.
func (t *TextStats) statsRow(s string, dst []float64) {
	var upper, letters, words, kw int
	for i := 0; i < len(s); {
		// Between words: skip whitespace, which is neither upper-case nor a
		// letter.
		if c := s[i]; c < utf8.RuneSelf {
			if asciiClass[c]&classSpace != 0 {
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
				class := asciiClass[c]
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
		if t.isKeyword(s[start:i]) {
			kw++
		}
	}
	dst[0] = float64(len(s))
	dst[1] = float64(words)
	if letters > 0 {
		dst[2] = float64(upper) / float64(letters)
	} else {
		dst[2] = 0
	}
	dst[3] = float64(kw)
}

// isKeyword reports whether word, stripped of leading and trailing
// punctuation and lower-cased (strings.ToLower's mapping: per rune, an
// invalid byte becoming U+FFFD), is a keyword.
func (t *TextStats) isKeyword(word string) bool {
	for len(word) > 0 && word[0] < utf8.RuneSelf && asciiClass[word[0]]&classTrim != 0 {
		word = word[1:]
	}
	for n := len(word); n > 0 && word[n-1] < utf8.RuneSelf && asciiClass[word[n-1]]&classTrim != 0; n-- {
		word = word[:n-1]
	}
	var arr [64]byte
	low := arr[:0]
	for i := 0; i < len(word); {
		if c := word[i]; c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			low = append(low, c)
			i++
		} else {
			r, w := utf8.DecodeRuneInString(word[i:])
			low = utf8.AppendRune(low, unicode.ToLower(r))
			i += w
		}
		// Most words stop here, on their first byte, without a map probe.
		if len(low) > t.kwMax || !t.kwFirst[low[0]] {
			return false
		}
	}
	return t.keywords[string(low)]
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
	kws := make([]string, 0, len(t.keywords))
	for k := range t.keywords {
		kws = append(kws, k)
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

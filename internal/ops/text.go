package ops

import (
	"encoding/json"
	"sort"
	"strings"
	"unicode"

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

func cleanString(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch {
		case unicode.IsUpper(r):
			b.WriteRune(unicode.ToLower(r))
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == ' ':
			b.WriteRune(r)
		default:
			b.WriteByte(' ')
		}
	}
	return b.String()
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
}

// NewTextStats returns a text-statistics operator counting the given keywords.
func NewTextStats(keywords []string) *TextStats {
	kw := make(map[string]bool, len(keywords))
	for _, k := range keywords {
		kw[strings.ToLower(k)] = true
	}
	return &TextStats{keywords: kw}
}

// Name implements graph.Op.
func (t *TextStats) Name() string { return "text_stats" }

// Compilable implements graph.Op.
func (t *TextStats) Compilable() bool { return true }

// Commutative implements graph.Op.
func (t *TextStats) Commutative() bool { return false }

// Width returns the number of produced features.
func (t *TextStats) Width() int { return 4 }

func (t *TextStats) statsRow(s string, dst []float64) {
	var upper, letters int
	for _, r := range s {
		if unicode.IsUpper(r) {
			upper++
		}
		if unicode.IsLetter(r) {
			letters++
		}
	}
	words := strings.Fields(strings.ToLower(s))
	kw := 0
	for _, w := range words {
		if t.keywords[strings.Trim(w, ".,!?;:'\"")] {
			kw++
		}
	}
	dst[0] = float64(len(s))
	dst[1] = float64(len(words))
	if letters > 0 {
		dst[2] = float64(upper) / float64(letters)
	} else {
		dst[2] = 0
	}
	dst[3] = float64(kw)
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
	t.keywords = make(map[string]bool, len(st.Keywords))
	for _, k := range st.Keywords {
		t.keywords[strings.ToLower(k)] = true
	}
	return nil
}

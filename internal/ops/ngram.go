package ops

import (
	"encoding/json"
	"fmt"
	"strings"

	"willump/internal/value"
)

// WordNGrams expands token lists into word n-grams for n in [MinN, MaxN].
// Multi-word grams are joined with a single space, matching the convention
// of common vectorizer APIs.
type WordNGrams struct{ ngramRange }

// NewWordNGrams returns a word n-gram expander over the inclusive range
// [minN, maxN].
func NewWordNGrams(minN, maxN int) *WordNGrams {
	if minN < 1 || maxN < minN {
		panic("ops: NewWordNGrams: need 1 <= minN <= maxN")
	}
	return &WordNGrams{ngramRange{minN, maxN}}
}

// Name implements graph.Op.
func (w *WordNGrams) Name() string { return "word_ngrams" }

// Compilable implements graph.Op.
func (w *WordNGrams) Compilable() bool { return true }

// Commutative implements graph.Op.
func (w *WordNGrams) Commutative() bool { return false }

func (w *WordNGrams) expand(tokens []string) []string {
	var out []string
	for n := w.MinN; n <= w.MaxN; n++ {
		for i := 0; i+n <= len(tokens); i++ {
			if n == 1 {
				out = append(out, tokens[i])
			} else {
				out = append(out, strings.Join(tokens[i:i+n], " "))
			}
		}
	}
	return out
}

// Apply implements graph.Op.
func (w *WordNGrams) Apply(ins []value.Value) (value.Value, error) {
	return applyFresh(w, ins)
}

// ApplyBoxed implements graph.Op.
func (w *WordNGrams) ApplyBoxed(ins []any) (any, error) {
	if len(ins) != 1 {
		return nil, errArity(w.Name(), len(ins), 1)
	}
	toks, ok := ins[0].([]string)
	if !ok {
		return nil, errBoxed(w.Name(), 0, ins[0], "[]string")
	}
	return w.expand(toks), nil
}

// CharNGrams expands raw strings into character n-grams for n in
// [MinN, MaxN]. It operates on strings (not tokens), like char analyzers in
// common vectorizers.
type CharNGrams struct{ ngramRange }

// NewCharNGrams returns a character n-gram expander over [minN, maxN].
func NewCharNGrams(minN, maxN int) *CharNGrams {
	if minN < 1 || maxN < minN {
		panic("ops: NewCharNGrams: need 1 <= minN <= maxN")
	}
	return &CharNGrams{ngramRange{minN, maxN}}
}

// Name implements graph.Op.
func (c *CharNGrams) Name() string { return "char_ngrams" }

// Compilable implements graph.Op.
func (c *CharNGrams) Compilable() bool { return true }

// Commutative implements graph.Op.
func (c *CharNGrams) Commutative() bool { return false }

func (c *CharNGrams) expand(s string) []string {
	var out []string
	for n := c.MinN; n <= c.MaxN; n++ {
		for i := 0; i+n <= len(s); i++ {
			out = append(out, s[i:i+n])
		}
	}
	return out
}

// Apply implements graph.Op.
func (c *CharNGrams) Apply(ins []value.Value) (value.Value, error) {
	return applyFresh(c, ins)
}

// ApplyBoxed implements graph.Op.
func (c *CharNGrams) ApplyBoxed(ins []any) (any, error) {
	if len(ins) != 1 {
		return nil, errArity(c.Name(), len(ins), 1)
	}
	s, ok := ins[0].(string)
	if !ok {
		return nil, errBoxed(c.Name(), 0, ins[0], "string")
	}
	return c.expand(s), nil
}

// ngramRange is the inclusive n range [MinN, MaxN] of both n-gram
// expanders, and their one serialized state.
type ngramRange struct {
	MinN int `json:"min_n"`
	MaxN int `json:"max_n"`
}

// MarshalState implements StateMarshaler.
func (r *ngramRange) MarshalState() ([]byte, error) { return json.Marshal(r) }

// UnmarshalState implements StateUnmarshaler.
func (r *ngramRange) UnmarshalState(state []byte) error {
	var st ngramRange
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	if st.MinN < 1 || st.MaxN < st.MinN {
		return fmt.Errorf("ops: n-gram state needs 1 <= min_n <= max_n, got [%d, %d]", st.MinN, st.MaxN)
	}
	*r = st
	return nil
}

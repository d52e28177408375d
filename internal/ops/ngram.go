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
type WordNGrams struct {
	MinN, MaxN int
}

// NewWordNGrams returns a word n-gram expander over the inclusive range
// [minN, maxN].
func NewWordNGrams(minN, maxN int) *WordNGrams {
	if minN < 1 || maxN < minN {
		panic("ops: NewWordNGrams: need 1 <= minN <= maxN")
	}
	return &WordNGrams{MinN: minN, MaxN: maxN}
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
type CharNGrams struct {
	MinN, MaxN int
}

// NewCharNGrams returns a character n-gram expander over [minN, maxN].
func NewCharNGrams(minN, maxN int) *CharNGrams {
	if minN < 1 || maxN < minN {
		panic("ops: NewCharNGrams: need 1 <= minN <= maxN")
	}
	return &CharNGrams{MinN: minN, MaxN: maxN}
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

// ngramState is the serialized configuration shared by the n-gram expanders.
type ngramState struct {
	MinN int `json:"min_n"`
	MaxN int `json:"max_n"`
}

// MarshalState implements StateMarshaler.
func (w *WordNGrams) MarshalState() ([]byte, error) {
	return json.Marshal(ngramState{MinN: w.MinN, MaxN: w.MaxN})
}

// UnmarshalState implements StateUnmarshaler.
func (w *WordNGrams) UnmarshalState(state []byte) error {
	var st ngramState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	if st.MinN < 1 || st.MaxN < st.MinN {
		return fmt.Errorf("ops: word_ngrams state needs 1 <= min_n <= max_n, got [%d, %d]", st.MinN, st.MaxN)
	}
	w.MinN, w.MaxN = st.MinN, st.MaxN
	return nil
}

// MarshalState implements StateMarshaler.
func (c *CharNGrams) MarshalState() ([]byte, error) {
	return json.Marshal(ngramState{MinN: c.MinN, MaxN: c.MaxN})
}

// UnmarshalState implements StateUnmarshaler.
func (c *CharNGrams) UnmarshalState(state []byte) error {
	var st ngramState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	if st.MinN < 1 || st.MaxN < st.MinN {
		return fmt.Errorf("ops: char_ngrams state needs 1 <= min_n <= max_n, got [%d, %d]", st.MinN, st.MaxN)
	}
	c.MinN, c.MaxN = st.MinN, st.MaxN
	return nil
}

package ops

import (
	"fmt"

	"willump/internal/artifact"
	"willump/internal/graph"
)

// opKinds backs artifact (de)serialization of operators: every operator
// type appearing in a saved pipeline must be registered, either here
// (built-ins) or by the user through RegisterOp.
var opKinds = artifact.NewRegistry[graph.Op]("ops: RegisterOp")

// RegisterOp registers an operator implementation under a stable kind
// string for artifact (de)serialization. The factory must return a new,
// empty operator of a single concrete type; if the operator has state, that
// type must implement artifact.StateUnmarshaler (and StateMarshaler for
// saving). Stateless operators (Clean, Tokenize, Concat, ...) need neither:
// their factory alone reconstructs them. Registering a duplicate kind or
// type panics, mirroring gob.Register.
func RegisterOp(kind string, factory func() graph.Op) { opKinds.Register(kind, factory) }

// EncodeOp serializes an operator into its registry kind and state payload.
func EncodeOp(op graph.Op) (kind string, state []byte, err error) {
	kind, ok := opKinds.Kind(op)
	if !ok {
		return "", nil, fmt.Errorf("ops: operator %s (%T) is not registered; call RegisterOp to make it serializable", op.Name(), op)
	}
	if m, has := op.(artifact.StateMarshaler); has {
		state, err = m.MarshalState()
		if err != nil {
			return "", nil, fmt.Errorf("ops: marshaling %s state: %w", op.Name(), err)
		}
	}
	return kind, state, nil
}

// DecodeOp reconstructs an operator from its registry kind and state.
func DecodeOp(kind string, state []byte) (graph.Op, error) {
	op, ok := opKinds.New(kind)
	if !ok {
		return nil, fmt.Errorf("ops: unknown operator kind %q; register it with RegisterOp before loading", kind)
	}
	if len(state) > 0 {
		u, has := op.(artifact.StateUnmarshaler)
		if !has {
			return nil, fmt.Errorf("ops: operator kind %q has state but %T implements no UnmarshalState", kind, op)
		}
		if err := u.UnmarshalState(state); err != nil {
			return nil, fmt.Errorf("ops: unmarshaling %q state: %w", kind, err)
		}
	}
	return op, nil
}

// Codec adapts the operator registry to graph.OpCodec.
type Codec struct{}

// EncodeOp implements graph.OpCodec.
func (Codec) EncodeOp(op graph.Op) (string, []byte, error) { return EncodeOp(op) }

// DecodeOp implements graph.OpCodec.
func (Codec) DecodeOp(kind string, state []byte) (graph.Op, error) { return DecodeOp(kind, state) }

func init() {
	RegisterOp("clean", func() graph.Op { return &Clean{} })
	RegisterOp("tokenize", func() graph.Op { return &Tokenize{} })
	RegisterOp("text_stats", func() graph.Op { return &TextStats{} })
	RegisterOp("word_ngrams", func() graph.Op { return &WordNGrams{} })
	RegisterOp("char_ngrams", func() graph.Op { return &CharNGrams{} })
	RegisterOp("tfidf", func() graph.Op { return &TFIDF{} })
	RegisterOp("count_vectorizer", func() graph.Op { return &CountVectorizer{} })
	RegisterOp("hashing_vectorizer", func() graph.Op { return &HashingVectorizer{} })
	RegisterOp("one_hot", func() graph.Op { return &OneHot{} })
	RegisterOp("ordinal", func() graph.Op { return &Ordinal{} })
	RegisterOp("standard_scale", func() graph.Op { return &StandardScale{} })
	RegisterOp("numeric_stats", func() graph.Op { return &NumericStats{} })
	RegisterOp("concat", func() graph.Op { return &Concat{} })
	RegisterOp("clip", func() graph.Op { return &Clip{} })
	RegisterOp("ratio", func() graph.Op { return &Ratio{} })
	RegisterOp("lookup", func() graph.Op { return &Lookup{} })
}

package model

import (
	"encoding/json"
	"fmt"

	"willump/internal/artifact"
)

// modelKinds backs artifact (de)serialization of models, exactly like the
// operator registry in internal/ops.
var modelKinds = artifact.NewRegistry[Model]("model: RegisterModel")

// RegisterModel registers a model implementation under a stable kind string
// for artifact (de)serialization. The factory must return a new, empty
// model of a single concrete type implementing artifact.StateUnmarshaler
// (and StateMarshaler for saving). Registering a duplicate kind or type
// panics.
func RegisterModel(kind string, factory func() Model) { modelKinds.Register(kind, factory) }

// EncodeModel serializes a model into its registry kind and state payload.
func EncodeModel(m Model) (kind string, state []byte, err error) {
	kind, ok := modelKinds.Kind(m)
	if !ok {
		return "", nil, fmt.Errorf("model: %T is not registered; call RegisterModel to make it serializable", m)
	}
	sm, has := m.(artifact.StateMarshaler)
	if !has {
		return "", nil, fmt.Errorf("model: %T implements no MarshalState", m)
	}
	state, err = sm.MarshalState()
	if err != nil {
		return "", nil, fmt.Errorf("model: marshaling %q state: %w", kind, err)
	}
	return kind, state, nil
}

// DecodeModel reconstructs a model from its registry kind and state.
func DecodeModel(kind string, state []byte) (Model, error) {
	m, ok := modelKinds.New(kind)
	if !ok {
		return nil, fmt.Errorf("model: unknown model kind %q; register it with RegisterModel before loading", kind)
	}
	u, has := m.(artifact.StateUnmarshaler)
	if !has {
		return nil, fmt.Errorf("model: %T implements no UnmarshalState", m)
	}
	if err := u.UnmarshalState(state); err != nil {
		return nil, fmt.Errorf("model: unmarshaling %q state: %w", kind, err)
	}
	return m, nil
}

func init() {
	RegisterModel("logistic", func() Model { return NewLogistic(LinearConfig{}) })
	RegisterModel("linear_regression", func() Model { return NewLinearRegression(LinearConfig{}) })
	RegisterModel("gbdt", func() Model { return &GBDT{} })
	RegisterModel("mlp", func() Model { return &MLP{} })
}

// linearState is the serialized form of both linear model families.
type linearState struct {
	Config  LinearConfig    `json:"config"`
	Weights artifact.Vector `json:"weights,omitempty"`
	Bias    artifact.Scalar `json:"bias"`
	MeanAbs artifact.Vector `json:"mean_abs,omitempty"`
}

// MarshalState implements StateMarshaler.
func (m *linear) MarshalState() ([]byte, error) {
	return json.Marshal(linearState{Config: m.cfg, Weights: artifact.Vector(m.w), Bias: artifact.Scalar(m.b), MeanAbs: artifact.Vector(m.meanAbs)})
}

// UnmarshalState implements StateUnmarshaler.
func (m *linear) UnmarshalState(state []byte) error {
	var st linearState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	m.cfg = st.Config.withDefaults()
	m.w = []float64(st.Weights)
	m.b = float64(st.Bias)
	m.meanAbs = []float64(st.MeanAbs)
	return nil
}

// treeState is one regression tree in column-major (parallel-array) form.
// RawThresh and Value affect predictions and are stored bit-exactly.
type treeState struct {
	Feature   []int           `json:"feature"`
	BinThresh []int           `json:"bin_thresh"`
	RawThresh artifact.Vector `json:"raw_thresh"`
	Left      []int           `json:"left"`
	Right     []int           `json:"right"`
	Value     artifact.Vector `json:"value"`
}

// gbdtState is the serialized form of a GBDT ensemble.
type gbdtState struct {
	Config      GBDTConfig      `json:"config"`
	Base        artifact.Scalar `json:"base"`
	NumFeatures int             `json:"num_features"`
	Gains       artifact.Vector `json:"gains,omitempty"`
	Trees       []treeState     `json:"trees"`
}

// MarshalState implements StateMarshaler.
func (m *GBDT) MarshalState() ([]byte, error) {
	st := gbdtState{
		Config:      m.cfg,
		Base:        artifact.Scalar(m.base),
		NumFeatures: m.numFeatures,
		Gains:       artifact.Vector(m.gains),
		Trees:       make([]treeState, len(m.trees)),
	}
	for i, t := range m.trees {
		ts := treeState{
			Feature:   make([]int, len(t.nodes)),
			BinThresh: make([]int, len(t.nodes)),
			RawThresh: make(artifact.Vector, len(t.nodes)),
			Left:      make([]int, len(t.nodes)),
			Right:     make([]int, len(t.nodes)),
			Value:     make(artifact.Vector, len(t.nodes)),
		}
		for j, n := range t.nodes {
			ts.Feature[j] = n.feature
			ts.BinThresh[j] = int(n.binThresh)
			ts.RawThresh[j] = n.rawThresh
			ts.Left[j] = int(n.left)
			ts.Right[j] = int(n.right)
			ts.Value[j] = n.value
		}
		st.Trees[i] = ts
	}
	return json.Marshal(st)
}

// UnmarshalState implements StateUnmarshaler.
func (m *GBDT) UnmarshalState(state []byte) error {
	var st gbdtState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	m.cfg = st.Config.withDefaults()
	m.base = float64(st.Base)
	m.numFeatures = st.NumFeatures
	m.gains = []float64(st.Gains)
	m.trees = make([]*tree, len(st.Trees))
	for i, ts := range st.Trees {
		n := len(ts.Feature)
		if len(ts.BinThresh) != n || len(ts.RawThresh) != n || len(ts.Left) != n || len(ts.Right) != n || len(ts.Value) != n {
			return fmt.Errorf("model: gbdt tree %d has ragged node arrays", i)
		}
		t := &tree{nodes: make([]treeNode, n)}
		for j := 0; j < n; j++ {
			if ts.Feature[j] >= 0 {
				if ts.Left[j] < 0 || ts.Left[j] >= n || ts.Right[j] < 0 || ts.Right[j] >= n {
					return fmt.Errorf("model: gbdt tree %d node %d has child out of range", i, j)
				}
			}
			t.nodes[j] = treeNode{
				feature:   ts.Feature[j],
				binThresh: uint8(ts.BinThresh[j]),
				rawThresh: ts.RawThresh[j],
				left:      int32(ts.Left[j]),
				right:     int32(ts.Right[j]),
				value:     ts.Value[j],
			}
		}
		m.trees[i] = t
	}
	return nil
}

// mlpState is the serialized form of an MLP.
type mlpState struct {
	Config      MLPConfig         `json:"config"`
	W1          []artifact.Vector `json:"w1,omitempty"`
	B1          artifact.Vector   `json:"b1,omitempty"`
	W2          artifact.Vector   `json:"w2,omitempty"`
	B2          artifact.Scalar   `json:"b2"`
	NumFeatures int               `json:"num_features"`
}

// MarshalState implements StateMarshaler.
func (m *MLP) MarshalState() ([]byte, error) {
	return json.Marshal(mlpState{
		Config:      m.cfg,
		W1:          artifact.Vectors(m.w1),
		B1:          artifact.Vector(m.b1),
		W2:          artifact.Vector(m.w2),
		B2:          artifact.Scalar(m.b2),
		NumFeatures: m.numFeatures,
	})
}

// UnmarshalState implements StateUnmarshaler.
func (m *MLP) UnmarshalState(state []byte) error {
	var st mlpState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	m.cfg = st.Config.withDefaults()
	if len(st.W1) > 0 && m.cfg.Hidden != len(st.W1) {
		return fmt.Errorf("model: mlp state has %d hidden rows for %d hidden units", len(st.W1), m.cfg.Hidden)
	}
	for i, row := range st.W1 {
		if len(row) != st.NumFeatures {
			return fmt.Errorf("model: mlp state hidden row %d has %d weights for %d features", i, len(row), st.NumFeatures)
		}
	}
	m.w1 = artifact.Floats(st.W1)
	m.b1 = []float64(st.B1)
	m.w2 = []float64(st.W2)
	m.b2 = float64(st.B2)
	m.numFeatures = st.NumFeatures
	return nil
}

package ops

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"willump/internal/artifact"
	"willump/internal/value"
)

// OneHot encodes a categorical string column as one-hot indicator features.
// Fit learns the category set (capped at MaxCategories by frequency);
// unknown categories at serve time map to an all-zeros row.
type OneHot struct {
	MaxCategories int

	cats   map[string]int
	fitted bool
}

// NewOneHot returns an unfitted one-hot encoder.
func NewOneHot(maxCategories int) *OneHot {
	if maxCategories < 1 {
		panic("ops: NewOneHot: maxCategories must be positive")
	}
	return &OneHot{MaxCategories: maxCategories}
}

// Name implements graph.Op.
func (o *OneHot) Name() string { return "one_hot" }

// Compilable implements graph.Op.
func (o *OneHot) Compilable() bool { return true }

// Commutative implements graph.Op.
func (o *OneHot) Commutative() bool { return false }

// Fitted implements Fitter.
func (o *OneHot) Fitted() bool { return o.fitted }

// Width returns the number of learned categories. Valid after Fit.
func (o *OneHot) Width() int { return len(o.cats) }

// Fit implements Fitter.
func (o *OneHot) Fit(ins []value.Value) error {
	if len(ins) != 1 {
		return errArity(o.Name(), len(ins), 1)
	}
	if ins[0].Kind != value.Strings {
		return errKind(o.Name(), 0, ins[0].Kind, value.Strings)
	}
	freq := make(map[string]int)
	for _, s := range ins[0].Strings {
		freq[s]++
	}
	type catFreq struct {
		cat string
		n   int
	}
	cats := make([]catFreq, 0, len(freq))
	for c, n := range freq {
		cats = append(cats, catFreq{c, n})
	}
	sort.Slice(cats, func(i, j int) bool {
		if cats[i].n != cats[j].n {
			return cats[i].n > cats[j].n
		}
		return cats[i].cat < cats[j].cat
	})
	if len(cats) > o.MaxCategories {
		cats = cats[:o.MaxCategories]
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i].cat < cats[j].cat })
	o.cats = make(map[string]int, len(cats))
	for i, c := range cats {
		o.cats[c.cat] = i
	}
	o.fitted = true
	return nil
}

// Apply implements graph.Op.
func (o *OneHot) Apply(ins []value.Value) (value.Value, error) {
	return applyFresh(o, ins)
}

// ApplyBoxed implements graph.Op.
func (o *OneHot) ApplyBoxed(ins []any) (any, error) {
	if !o.fitted {
		return nil, fmt.Errorf("ops: %s: ApplyBoxed before Fit", o.Name())
	}
	if len(ins) != 1 {
		return nil, errArity(o.Name(), len(ins), 1)
	}
	s, ok := ins[0].(string)
	if !ok {
		return nil, errBoxed(o.Name(), 0, ins[0], "string")
	}
	row := make([]float64, len(o.cats))
	if col, hit := o.cats[s]; hit {
		row[col] = 1
	}
	return row, nil
}

// Ordinal encodes a categorical string column as a single learned integer
// code (frequency-ranked), with unknowns mapping to -1. GBDT models split on
// these codes directly.
type Ordinal struct {
	codes  map[string]float64
	fitted bool
}

// NewOrdinal returns an unfitted ordinal encoder.
func NewOrdinal() *Ordinal { return &Ordinal{} }

// Name implements graph.Op.
func (o *Ordinal) Name() string { return "ordinal" }

// Compilable implements graph.Op.
func (o *Ordinal) Compilable() bool { return true }

// Commutative implements graph.Op.
func (o *Ordinal) Commutative() bool { return false }

// Fitted implements Fitter.
func (o *Ordinal) Fitted() bool { return o.fitted }

// Fit implements Fitter.
func (o *Ordinal) Fit(ins []value.Value) error {
	if len(ins) != 1 {
		return errArity(o.Name(), len(ins), 1)
	}
	if ins[0].Kind != value.Strings {
		return errKind(o.Name(), 0, ins[0].Kind, value.Strings)
	}
	freq := make(map[string]int)
	for _, s := range ins[0].Strings {
		freq[s]++
	}
	cats := make([]string, 0, len(freq))
	for c := range freq {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool {
		if freq[cats[i]] != freq[cats[j]] {
			return freq[cats[i]] > freq[cats[j]]
		}
		return cats[i] < cats[j]
	})
	o.codes = make(map[string]float64, len(cats))
	for i, c := range cats {
		o.codes[c] = float64(i)
	}
	o.fitted = true
	return nil
}

// Apply implements graph.Op.
func (o *Ordinal) Apply(ins []value.Value) (value.Value, error) {
	return applyFresh(o, ins)
}

// ApplyBoxed implements graph.Op.
func (o *Ordinal) ApplyBoxed(ins []any) (any, error) {
	if !o.fitted {
		return nil, fmt.Errorf("ops: %s: ApplyBoxed before Fit", o.Name())
	}
	if len(ins) != 1 {
		return nil, errArity(o.Name(), len(ins), 1)
	}
	s, ok := ins[0].(string)
	if !ok {
		return nil, errBoxed(o.Name(), 0, ins[0], "string")
	}
	if code, hit := o.codes[s]; hit {
		return code, nil
	}
	return float64(-1), nil
}

// StandardScale standardizes a matrix column-wise to zero mean and unit
// variance using statistics learned at Fit time.
type StandardScale struct {
	mean, invStd []float64
	fitted       bool
}

// NewStandardScale returns an unfitted standard scaler.
func NewStandardScale() *StandardScale { return &StandardScale{} }

// Name implements graph.Op.
func (s *StandardScale) Name() string { return "standard_scale" }

// Compilable implements graph.Op.
func (s *StandardScale) Compilable() bool { return true }

// Commutative implements graph.Op.
func (s *StandardScale) Commutative() bool { return false }

// Fitted implements Fitter.
func (s *StandardScale) Fitted() bool { return s.fitted }

// Fit implements Fitter.
func (s *StandardScale) Fit(ins []value.Value) error {
	if len(ins) != 1 {
		return errArity(s.Name(), len(ins), 1)
	}
	m, err := ins[0].AsMatrix()
	if err != nil {
		return fmt.Errorf("ops: %s: %w", s.Name(), err)
	}
	rows, cols := m.Rows(), m.Cols()
	s.mean = make([]float64, cols)
	s.invStd = make([]float64, cols)
	if rows == 0 {
		for i := range s.invStd {
			s.invStd[i] = 1
		}
		s.fitted = true
		return nil
	}
	for r := 0; r < rows; r++ {
		m.ForEachNZ(r, func(c int, v float64) { s.mean[c] += v })
	}
	for c := range s.mean {
		s.mean[c] /= float64(rows)
	}
	variance := make([]float64, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			d := m.At(r, c) - s.mean[c]
			variance[c] += d * d
		}
	}
	for c := range variance {
		sd := math.Sqrt(variance[c] / float64(rows))
		if sd == 0 {
			sd = 1
		}
		s.invStd[c] = 1 / sd
	}
	s.fitted = true
	return nil
}

// Apply implements graph.Op.
func (s *StandardScale) Apply(ins []value.Value) (value.Value, error) {
	return applyFresh(s, ins)
}

// ApplyBoxed implements graph.Op.
func (s *StandardScale) ApplyBoxed(ins []any) (any, error) {
	if !s.fitted {
		return nil, fmt.Errorf("ops: %s: ApplyBoxed before Fit", s.Name())
	}
	if len(ins) != 1 {
		return nil, errArity(s.Name(), len(ins), 1)
	}
	row, ok := ins[0].([]float64)
	if !ok {
		return nil, errBoxed(s.Name(), 0, ins[0], "[]float64")
	}
	if len(row) != len(s.mean) {
		return nil, fmt.Errorf("ops: %s: row has %d cols, fitted on %d", s.Name(), len(row), len(s.mean))
	}
	out := make([]float64, len(row))
	for c, v := range row {
		out[c] = (v - s.mean[c]) * s.invStd[c]
	}
	return out, nil
}

// NumericStats maps a float column to derived features:
// [x, log1p(|x|), x^2, is_zero].
type NumericStats struct{}

// NewNumericStats returns the derived-numeric-features operator.
func NewNumericStats() *NumericStats { return &NumericStats{} }

// Name implements graph.Op.
func (n *NumericStats) Name() string { return "numeric_stats" }

// Compilable implements graph.Op.
func (n *NumericStats) Compilable() bool { return true }

// Commutative implements graph.Op.
func (n *NumericStats) Commutative() bool { return false }

// Width returns the number of derived features.
func (n *NumericStats) Width() int { return 4 }

func (n *NumericStats) row(x float64, dst []float64) {
	dst[0] = x
	dst[1] = math.Log1p(math.Abs(x))
	dst[2] = x * x
	if x == 0 {
		dst[3] = 1
	} else {
		dst[3] = 0
	}
}

// Apply implements graph.Op.
func (n *NumericStats) Apply(ins []value.Value) (value.Value, error) {
	return applyFresh(n, ins)
}

// ApplyBoxed implements graph.Op.
func (n *NumericStats) ApplyBoxed(ins []any) (any, error) {
	if len(ins) != 1 {
		return nil, errArity(n.Name(), len(ins), 1)
	}
	var x float64
	switch v := ins[0].(type) {
	case float64:
		x = v
	case int64:
		x = float64(v)
	default:
		return nil, errBoxed(n.Name(), 0, ins[0], "float64 or int64")
	}
	dst := make([]float64, n.Width())
	n.row(x, dst)
	return dst, nil
}

// oneHotState is the serialized form of a OneHot encoder. Categories are
// listed in column order.
type oneHotState struct {
	MaxCategories int      `json:"max_categories"`
	Fitted        bool     `json:"fitted"`
	Categories    []string `json:"categories,omitempty"`
}

// MarshalState implements StateMarshaler.
func (o *OneHot) MarshalState() ([]byte, error) {
	st := oneHotState{MaxCategories: o.MaxCategories, Fitted: o.fitted}
	if o.cats != nil {
		st.Categories = make([]string, len(o.cats))
		for cat, col := range o.cats {
			st.Categories[col] = cat
		}
	}
	return json.Marshal(st)
}

// UnmarshalState implements StateUnmarshaler.
func (o *OneHot) UnmarshalState(state []byte) error {
	var st oneHotState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	o.MaxCategories = st.MaxCategories
	o.fitted = st.Fitted
	o.cats = make(map[string]int, len(st.Categories))
	for col, cat := range st.Categories {
		o.cats[cat] = col
	}
	return nil
}

// ordinalState is the serialized form of an Ordinal encoder. Categories are
// listed in code order (position i carries code i).
type ordinalState struct {
	Fitted     bool     `json:"fitted"`
	Categories []string `json:"categories,omitempty"`
}

// MarshalState implements StateMarshaler.
func (o *Ordinal) MarshalState() ([]byte, error) {
	st := ordinalState{Fitted: o.fitted}
	if o.codes != nil {
		st.Categories = make([]string, len(o.codes))
		for cat, code := range o.codes {
			st.Categories[int(code)] = cat
		}
	}
	return json.Marshal(st)
}

// UnmarshalState implements StateUnmarshaler.
func (o *Ordinal) UnmarshalState(state []byte) error {
	var st ordinalState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	o.fitted = st.Fitted
	o.codes = make(map[string]float64, len(st.Categories))
	for code, cat := range st.Categories {
		o.codes[cat] = float64(code)
	}
	return nil
}

// scaleState is the serialized form of a StandardScale operator. Mean and
// inverse standard deviation are stored bit-exactly.
type scaleState struct {
	Fitted bool            `json:"fitted"`
	Mean   artifact.Vector `json:"mean,omitempty"`
	InvStd artifact.Vector `json:"inv_std,omitempty"`
}

// MarshalState implements StateMarshaler.
func (s *StandardScale) MarshalState() ([]byte, error) {
	return json.Marshal(scaleState{Fitted: s.fitted, Mean: artifact.Vector(s.mean), InvStd: artifact.Vector(s.invStd)})
}

// UnmarshalState implements StateUnmarshaler.
func (s *StandardScale) UnmarshalState(state []byte) error {
	var st scaleState
	if err := json.Unmarshal(state, &st); err != nil {
		return err
	}
	if len(st.Mean) != len(st.InvStd) {
		return fmt.Errorf("ops: standard_scale state has %d means but %d inverse stddevs", len(st.Mean), len(st.InvStd))
	}
	s.fitted = st.Fitted
	s.mean = []float64(st.Mean)
	s.invStd = []float64(st.InvStd)
	return nil
}

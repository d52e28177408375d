// Package fixture builds small synthetic pipelines with the statistical
// structure Willump's optimizations exploit, for use in unit and integration
// tests: multiple feature generators with asymmetric computational costs and
// a planted mix of easy inputs (classifiable from the cheap features alone)
// and hard inputs (requiring the expensive features). One builder makes every
// fixture; NewClassification and NewRegression differ only in the label they
// draw per row.
package fixture

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"willump/internal/feature"
	"willump/internal/graph"
	"willump/internal/model"
	"willump/internal/ops"
	"willump/internal/value"
	"willump/internal/weld"
)

// HeavyOp wraps a lookup-like transform with deliberate extra computation so
// that profiled costs differ strongly between feature generators. Work is
// deterministic in the key.
type HeavyOp struct {
	Table ops.Table
	Spin  int // busy-work iterations per row
	inner *ops.Lookup
}

// NewHeavyOp returns a lookup against table with Spin iterations of extra
// per-row work.
func NewHeavyOp(name string, table ops.Table, spin int) *HeavyOp {
	return &HeavyOp{Table: table, Spin: spin, inner: ops.NewLookup(name, table)}
}

// Name implements graph.Op.
func (h *HeavyOp) Name() string { return "heavy_" + h.inner.Name() }

// Compilable implements graph.Op.
func (h *HeavyOp) Compilable() bool { return true }

// Commutative implements graph.Op.
func (h *HeavyOp) Commutative() bool { return false }

func (h *HeavyOp) burn(k int64) float64 {
	x := float64(k%97) + 1
	for i := 0; i < h.Spin; i++ {
		x = math.Sqrt(x*x + 1)
	}
	return x
}

// Apply implements graph.Op.
func (h *HeavyOp) Apply(ins []value.Value) (value.Value, error) {
	out, err := h.inner.Apply(ins)
	if err != nil {
		return value.Value{}, err
	}
	m := out.Mat.(*feature.Dense)
	for r := 0; r < m.Rows(); r++ {
		// The burn result perturbs nothing (multiplied by 0) but cannot be
		// optimized away by the compiler because it lands in the matrix.
		m.Set(r, 0, m.At(r, 0)+0*h.burn(ins[0].Ints[r]))
	}
	return out, nil
}

// ApplyInto implements graph.IntoApplier, delegating to the wrapped
// lookup's reuse path so fixture pipelines exercise the executor's
// allocation-free contract end to end.
func (h *HeavyOp) ApplyInto(ins []value.Value, out *value.Value, scratch *any) error {
	if err := h.inner.ApplyInto(ins, out, scratch); err != nil {
		return err
	}
	m := out.Mat.(*feature.Dense)
	for r := 0; r < m.Rows(); r++ {
		m.Set(r, 0, m.At(r, 0)+0*h.burn(ins[0].Ints[r]))
	}
	return nil
}

// ApplyBoxed implements graph.Op.
func (h *HeavyOp) ApplyBoxed(ins []any) (any, error) {
	out, err := h.inner.ApplyBoxed(ins)
	if err != nil {
		return nil, err
	}
	vec := out.([]float64)
	vec[0] += 0 * h.burn(ins[0].(int64))
	return vec, nil
}

// Data is a generated dataset split.
type Data struct {
	Inputs map[string]value.Value
	Y      []float64
}

// Classification holds a complete fitted fixture: the program, its trained
// model, the data splits and the two lookup tables.
type Classification struct {
	Prog       *weld.Program
	Model      model.Model
	Train      Data
	TrainX     feature.Matrix
	Valid      Data
	Test       Data
	CheapTable *ops.LocalTable
	HeavyTable *ops.LocalTable
}

// Regression is a fitted regression fixture: the same topology with a
// continuous target.
type Regression = Classification

// NewClassification builds, fits, and trains a two-generator classification
// pipeline:
//
//	cheap_id -> lookup(cheap)  \
//	                            concat -> GBDT
//	heavy_id -> heavy lookup   /
//
// Labels are decided by the cheap features for easyFrac of the rows and by
// the heavy features for the rest, so a small model on the cheap IFV is
// confident exactly on the easy rows.
func NewClassification(seed int64, nTrain, nValid, nTest int, easyFrac float64, spin int) (*Classification, error) {
	return build(seed, nTrain, nValid, nTest, spin, model.Classification, func(rng *rand.Rand, cvec, hvec []float64) float64 {
		if rng.Float64() < easyFrac {
			// Easy: label determined by a strong cheap-feature signal.
			if cvec[0]+0.5*cvec[1] > 0 {
				return 1
			}
			return 0
		}
		// Hard: cheap features near the boundary don't decide; the heavy
		// features do.
		if hvec[0]-hvec[1] > 0 {
			return 1
		}
		return 0
	})
}

// NewRegression mirrors NewClassification with a continuous target:
// y = cheap signal + smaller heavy signal + noise.
func NewRegression(seed int64, nTrain, nValid, nTest int, spin int) (*Regression, error) {
	return build(seed, nTrain, nValid, nTest, spin, model.Regression, func(rng *rand.Rand, cvec, hvec []float64) float64 {
		return 2*cvec[0] + cvec[1] + 0.3*hvec[0] + 0.1*rng.NormFloat64()
	})
}

// build is the one fixture builder: tables, graph, splits, fit and a GBDT
// for task. label draws each row's target after the row's two keys, from
// the same generator, so every fixture's RNG stream is fixed by its seed.
func build(seed int64, nTrain, nValid, nTest, spin int, task model.Task, label func(rng *rand.Rand, cvec, hvec []float64) float64) (*Classification, error) {
	rng := rand.New(rand.NewSource(seed))
	const nKeys = 4096
	cheapRows := make(map[int64][]float64, nKeys)
	heavyRows := make(map[int64][]float64, nKeys)
	for k := int64(0); k < nKeys; k++ {
		cheapRows[k] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		heavyRows[k] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	cheapTable := ops.NewLocalTable(2, cheapRows)
	heavyTable := ops.NewLocalTable(2, heavyRows)

	b := graph.NewBuilder()
	cheapID := b.Input("cheap_id")
	heavyID := b.Input("heavy_id")
	cf := b.Add("cheap_features", ops.NewLookup("cheap", cheapTable), cheapID)
	hf := b.Add("heavy_features", NewHeavyOp("heavy", heavyTable, spin), heavyID)
	cat := b.Add("concat", ops.NewConcat(), cf, hf)
	b.SetOutput(cat)
	g, err := b.Build()
	if err != nil {
		return nil, err
	}

	gen := func(n int) Data {
		cheapIDs := make([]int64, n)
		heavyIDs := make([]int64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			ck := rng.Int63n(nKeys)
			hk := rng.Int63n(nKeys)
			cheapIDs[i] = ck
			heavyIDs[i] = hk
			y[i] = label(rng, cheapRows[ck], heavyRows[hk])
		}
		return Data{
			Inputs: map[string]value.Value{
				"cheap_id": value.NewInts(cheapIDs),
				"heavy_id": value.NewInts(heavyIDs),
			},
			Y: y,
		}
	}
	train := gen(nTrain)
	valid := gen(nValid)
	test := gen(nTest)

	prog, err := weld.Compile(g)
	if err != nil {
		return nil, err
	}
	out, err := prog.Fit(context.Background(), train.Inputs)
	if err != nil {
		return nil, err
	}
	x, err := out.AsMatrix()
	if err != nil {
		return nil, err
	}
	m := model.NewGBDT(model.GBDTConfig{Task: task, Trees: 30, MaxDepth: 4, Seed: seed})
	if err := m.Train(x, train.Y); err != nil {
		return nil, err
	}
	return &Classification{
		Prog:       prog,
		Model:      m,
		Train:      train,
		TrainX:     x,
		Valid:      valid,
		Test:       test,
		CheapTable: cheapTable,
		HeavyTable: heavyTable,
	}, nil
}

// Check verifies a fixture's model is meaningfully better than chance on its
// test split; fixtures failing this are useless for cascade tests.
func (c *Classification) Check() error {
	x, err := c.Prog.RunBatch(context.Background(), c.Test.Inputs)
	if err != nil {
		return err
	}
	acc := model.Accuracy(c.Model.Predict(x), c.Test.Y)
	if acc < 0.75 {
		return fmt.Errorf("fixture: test accuracy %.3f too low", acc)
	}
	return nil
}

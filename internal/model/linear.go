package model

import (
	"fmt"
	"math"
	"math/rand"

	"willump/internal/feature"
)

// LinearConfig holds hyperparameters shared by the linear models.
type LinearConfig struct {
	Epochs       int     // SGD passes over the data (default 10)
	LearningRate float64 // AdaGrad base step (default 0.1)
	L2           float64 // L2 regularization strength (default 1e-6)
	Seed         int64   // shuffle seed
}

func (c LinearConfig) withDefaults() LinearConfig {
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.L2 < 0 {
		c.L2 = 0
	}
	return c
}

// linear is the state, AdaGrad SGD loop and scoring both linear families
// share. logit selects the sigmoid link of Logistic over the identity link
// of LinearRegression; everything else, down to the order of arithmetic in
// the update, is common.
type linear struct {
	cfg   LinearConfig
	logit bool

	w       []float64
	b       float64
	meanAbs []float64
}

// Logistic is an L2-regularized logistic regression classifier trained with
// AdaGrad SGD. It supports sparse inputs natively, which matters for the
// TF-IDF benchmarks (Product, Toxic).
type Logistic struct{ linear }

// NewLogistic returns an untrained logistic regression model.
func NewLogistic(cfg LinearConfig) *Logistic {
	return &Logistic{linear{cfg: cfg.withDefaults(), logit: true}}
}

// LinearRegression is an L2-regularized least-squares model trained with
// AdaGrad SGD.
type LinearRegression struct{ linear }

// NewLinearRegression returns an untrained linear regression model.
func NewLinearRegression(cfg LinearConfig) *LinearRegression {
	return &LinearRegression{linear{cfg: cfg.withDefaults()}}
}

// Task implements Model.
func (m *linear) Task() Task {
	if m.logit {
		return Classification
	}
	return Regression
}

// Fresh implements Model.
func (m *linear) Fresh() Model {
	if m.logit {
		return NewLogistic(m.cfg)
	}
	return NewLinearRegression(m.cfg)
}

// NumFeatures implements Model.
func (m *linear) NumFeatures() int { return len(m.w) }

// Weights implements Linear.
func (m *linear) Weights() []float64 { return m.w }

// Bias implements Linear.
func (m *linear) Bias() float64 { return m.b }

// Link implements Linear: the sigmoid for Logistic, the identity for
// LinearRegression.
func (m *linear) Link(z float64) float64 {
	if m.logit {
		return sigmoid(z)
	}
	return z
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Train implements Model.
func (m *linear) Train(x feature.Matrix, y []float64) error {
	name := "LinearRegression"
	if m.logit {
		name = "Logistic"
	}
	if x.Rows() != len(y) {
		return fmt.Errorf("model: %s.Train: %d rows vs %d labels", name, x.Rows(), len(y))
	}
	if x.Rows() == 0 {
		return fmt.Errorf("model: %s.Train: empty training set", name)
	}
	n, d := x.Rows(), x.Cols()
	m.w = make([]float64, d)
	m.b = 0
	g2 := make([]float64, d+1) // AdaGrad accumulators, last slot for bias
	rng := rand.New(rand.NewSource(m.cfg.Seed))
	order := rng.Perm(n)
	lr, l2 := m.cfg.LearningRate, m.cfg.L2
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, r := range order {
			// The link is inlined rather than called through PredictRow:
			// this loop runs epochs x rows times at set-up.
			pred := feature.Dot(x, r, m.w) + m.b
			if m.logit {
				pred = sigmoid(pred)
			}
			grad := pred - y[r]
			x.ForEachNZ(r, func(c int, v float64) {
				g := grad*v + l2*m.w[c]
				g2[c] += g * g
				m.w[c] -= lr * g / (math.Sqrt(g2[c]) + 1e-8)
			})
			g2[d] += grad * grad
			m.b -= lr * grad / (math.Sqrt(g2[d]) + 1e-8)
		}
	}
	m.meanAbs = feature.MeanAbs(x)
	return nil
}

// Predict implements Model.
func (m *linear) Predict(x feature.Matrix) []float64 {
	out := make([]float64, x.Rows())
	for r := range out {
		out[r] = m.PredictRow(x, r)
	}
	return out
}

// PredictRow implements Model.
func (m *linear) PredictRow(x feature.Matrix, r int) float64 {
	return m.Link(feature.Dot(x, r, m.w) + m.b)
}

// Importances implements Importancer: |coefficient| x mean |feature value|,
// the paper's linear-model prediction importance.
func (m *linear) Importances() []float64 {
	out := make([]float64, len(m.w))
	for i, w := range m.w {
		out[i] = math.Abs(w) * m.meanAbs[i]
	}
	return out
}

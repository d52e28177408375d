// Package model implements the ML models behind the paper's benchmarks
// (Table 1), from scratch: logistic and linear regression trained with
// AdaGrad SGD, histogram-based gradient-boosted decision trees (the LightGBM
// stand-in used by Music, Credit, and Tracking), and a small multilayer
// perceptron (the Price benchmark's NN).
//
// Two model capabilities drive Willump's statistical optimizations:
//
//   - Confidences: classifiers return calibrated-ish probabilities, and the
//     cascade confidence of a prediction p is max(p, 1-p) (section 4.2).
//   - Prediction importances: linear models report |coefficient| x mean
//     |feature value|; ensembles report split-gain importances; models with
//     no native importances (the MLP) get a proxy GBDT trained on the same
//     data (section 4.2, "Computing IFV Statistics").
package model

import (
	"sync"

	"willump/internal/feature"
)

// Task distinguishes classification from regression models. End-to-end
// cascades apply only to classification (section 6.3).
type Task int

// Supported tasks.
const (
	Classification Task = iota
	Regression
)

// Model is a trainable predictor over feature matrices.
type Model interface {
	// Task reports whether the model classifies or regresses.
	Task() Task
	// Fresh returns a new untrained model with the same hyperparameters.
	// Cascades use it to train the small model of the same family.
	Fresh() Model
	// Train fits the model. For classification, y must be 0/1 labels; for
	// regression, real-valued targets.
	Train(x feature.Matrix, y []float64) error
	// Predict returns one score per row: P(class=1) for classification,
	// the predicted value for regression.
	Predict(x feature.Matrix) []float64
	// PredictRow returns the score of a single row of x.
	PredictRow(x feature.Matrix, r int) float64
	// NumFeatures returns the trained input width (0 before Train).
	NumFeatures() int
}

// Scratch holds reusable per-call inference buffers (currently the MLP's
// hidden-layer activations). A Scratch may be reused across calls on one
// goroutine but never concurrently; the serving point path keeps one per
// pooled execution state so warm predictions allocate nothing.
type Scratch struct {
	hidden []float64
}

// grow returns a length-n buffer, reusing the scratch's backing array.
func (s *Scratch) grow(n int) []float64 {
	if cap(s.hidden) < n {
		s.hidden = make([]float64, n)
	}
	s.hidden = s.hidden[:n]
	return s.hidden
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch fetches an inference scratch from the shared pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch recycles a scratch obtained from GetScratch.
func PutScratch(s *Scratch) { scratchPool.Put(s) }

// RowScorer is implemented by models whose single-row scoring needs working
// buffers: PredictRowScratch behaves exactly like PredictRow but draws its
// buffers from the caller-owned Scratch instead of the heap.
type RowScorer interface {
	PredictRowScratch(x feature.Matrix, r int, s *Scratch) float64
}

// ScoreRow scores row r of x with m, routing through the model's scratch
// fast path when it has one. The remaining families' PredictRow is already
// allocation-free (GBDT walks its trees iteratively; the linear models use
// the devirtualized feature.Dot), so they need no scratch.
func ScoreRow(m Model, x feature.Matrix, r int, s *Scratch) float64 {
	if rs, ok := m.(RowScorer); ok {
		return rs.PredictRowScratch(x, r, s)
	}
	return m.PredictRow(x, r)
}

// Linear is implemented by the linear families, whose score of row r of x
// is Link(feature.Dot(x, r, Weights()) + Bias()): what lets a caller that
// makes the features take the dot product itself, without assembling x.
// Weights is shared; callers must not mutate it.
type Linear interface {
	Weights() []float64
	Bias() float64
	Link(z float64) float64
}

// Importancer is implemented by models with native per-feature prediction
// importances, available after Train.
type Importancer interface {
	// Importances returns non-negative per-feature importance scores.
	Importances() []float64
}

// Confidence converts a classification probability into the cascade
// confidence of section 4.2: the probability of the predicted class.
func Confidence(p float64) float64 {
	if p >= 0.5 {
		return p
	}
	return 1 - p
}

// Accuracy computes 0/1 accuracy of probability predictions against 0/1
// labels using a 0.5 decision threshold.
func Accuracy(probs, y []float64) float64 {
	if len(probs) == 0 {
		return 0
	}
	correct := 0
	for i, p := range probs {
		pred := 0.0
		if p >= 0.5 {
			pred = 1
		}
		if pred == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(probs))
}

// MSE computes mean squared error.
func MSE(preds, y []float64) float64 {
	if len(preds) == 0 {
		return 0
	}
	var s float64
	for i, p := range preds {
		d := p - y[i]
		s += d * d
	}
	return s / float64(len(preds))
}

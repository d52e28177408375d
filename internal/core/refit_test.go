package core

import (
	"math"
	"math/rand"
	"testing"

	"willump/internal/cascade"
	"willump/internal/model"
)

// TestRefitSelectsAsTheOfflineSelectorDoes: cascade stage 4 is one function.
// Given the full model's own decisions as labels, the offline selector and
// the online re-fit must agree on every output: threshold, accuracy, and the
// fraction the small model answers.
func TestRefitSelectsAsTheOfflineSelectorDoes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name   string
		noise  float64
		target float64
	}{
		{"small model agrees when confident", 0.15, 0.01},
		{"small model is noise", 1, 0.001},
		{"loose target", 0.4, 0.2},
	} {
		small, full := make([]float64, 400), make([]float64, 400)
		labels := make([]float64, len(full))
		for i := range full {
			full[i] = rng.Float64()
			small[i] = math.Min(1, math.Max(0, full[i]+tc.noise*(rng.Float64()-0.5)*2))
			if full[i] >= 0.5 {
				labels[i] = 1
			}
		}
		thr, acc, frac := cascade.SelectThreshold(small, full, labels, model.Accuracy(full, labels), tc.target)
		rr, err := RefitCascadeThreshold(small, full, tc.target)
		if err != nil {
			t.Fatal(err)
		}
		if rr.Threshold != thr || rr.Agreement != acc || rr.SmallFrac != frac {
			t.Errorf("%s: online re-fit chose %+v, offline selector (%v, %v, %v)", tc.name, rr, thr, acc, frac)
		}
		t.Logf("%s: threshold %v, agreement %v, small-only %v", tc.name, thr, acc, frac)
	}
}

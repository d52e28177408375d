// Package cascade implements Willump's automatic end-to-end cascades (paper
// section 4.2): computing per-IFV prediction importances and computational
// costs, selecting the efficient IFV set (Algorithm 1), training the small
// approximate model, choosing the cascade threshold against a user-specified
// accuracy target, and serving data inputs through the small-model/full-model
// cascade. The same machinery (minus the threshold) builds the top-K filter
// models of section 4.3.
package cascade

import (
	"fmt"
	"sort"

	"willump/internal/feature"
	"willump/internal/model"
	"willump/internal/weld"
)

// IFVStat pairs an independent feature vector with its two cascade
// statistics: prediction importance and computational cost.
type IFVStat struct {
	// Index into the program's IFV list.
	Index int
	// Importance is the summed prediction importance of the IFV's features.
	Importance float64
	// Cost is the measured per-row cost (seconds) of the IFV's generator.
	Cost float64
}

// CostEffectiveness returns importance per unit cost, the quantity
// Algorithm 1 ranks by. Zero-cost IFVs are maximally cost-effective.
func (s IFVStat) CostEffectiveness() float64 {
	if s.Cost <= 0 {
		if s.Importance <= 0 {
			return 0
		}
		return inf
	}
	return s.Importance / s.Cost
}

const inf = 1e308

// ComputeStats computes per-IFV statistics for a fitted program and trained
// model, using the training matrix for importance estimation.
//
// Importances follow the paper's model-specific rules: native importances
// for linear models (|coefficient| x mean |value|) and ensembles (split
// gain); for models with no importance metric (the MLP), a proxy GBDT is
// trained on the same data and its importances are used instead.
func ComputeStats(prog *weld.Program, m model.Model, x feature.Matrix, y []float64) ([]IFVStat, error) {
	if len(prog.Spans) != len(prog.A.IFVs) {
		return nil, fmt.Errorf("cascade: program has no column spans; call Fit first")
	}
	imp, err := featureImportances(m, x, y)
	if err != nil {
		return nil, err
	}
	if len(imp) != x.Cols() {
		return nil, fmt.Errorf("cascade: %d importances for %d features", len(imp), x.Cols())
	}
	stats := make([]IFVStat, len(prog.A.IFVs))
	for i := range prog.A.IFVs {
		span := prog.Spans[i]
		var total float64
		for c := span.Start; c < span.End; c++ {
			total += imp[c]
		}
		stats[i] = IFVStat{
			Index:      i,
			Importance: total,
			Cost:       prog.Prof.IFVCost(prog.A, i),
		}
	}
	return stats, nil
}

// featureImportances returns per-feature importances for the model, training
// a proxy GBDT when the model has none.
func featureImportances(m model.Model, x feature.Matrix, y []float64) ([]float64, error) {
	if imp, ok := m.(model.Importancer); ok {
		return imp.Importances(), nil
	}
	proxy := model.NewGBDT(model.GBDTConfig{
		Task:     m.Task(),
		Trees:    20,
		MaxDepth: 4,
		Seed:     7,
	})
	if err := proxy.Train(x, y); err != nil {
		return nil, fmt.Errorf("cascade: training proxy GBDT for importances: %w", err)
	}
	return proxy.Importances(), nil
}

// EfficientIFVs implements Algorithm 1 of the paper: greedily add the most
// cost-effective IFVs to the efficient set, skipping any IFV that would push
// the set's cost past half the total cost, and stopping once the next IFV is
// substantially less cost-effective (below gamma times the running average
// cost-effectiveness of the set). It returns the selected IFV indices in
// ascending order.
func EfficientIFVs(stats []IFVStat, gamma float64) []int {
	return selectGreedy(stats, IFVStat.CostEffectiveness, gamma)
}

// SelectMostImportant is the "Important" baseline of Table 8: greedily add
// by raw importance, subject to the same half-total-cost budget.
func SelectMostImportant(stats []IFVStat) []int {
	return selectGreedy(stats, func(s IFVStat) float64 { return s.Importance }, 0)
}

// SelectCheapest is the "Cheap" baseline of Table 8: greedily add the
// cheapest IFVs, subject to the same half-total-cost budget.
func SelectCheapest(stats []IFVStat) []int {
	return selectGreedy(stats, func(s IFVStat) float64 { return -s.Cost }, 0)
}

// selectGreedy is the greedy half-budget loop behind Algorithm 1 and its
// baselines: it walks the IFVs by descending rank (ties by index), skips any
// IFV that would push the set's cost past half the total cost, and stops at
// the first IFV whose cost-effectiveness is below gamma times the set's
// average. gamma = 0 never stops the loop. The selected indices come back
// ascending.
func selectGreedy(stats []IFVStat, rank func(IFVStat) float64, gamma float64) []int {
	queue := make([]IFVStat, len(stats))
	copy(queue, stats)
	sort.Slice(queue, func(i, j int) bool {
		ri, rj := rank(queue[i]), rank(queue[j])
		if ri != rj {
			return ri > rj
		}
		return queue[i].Index < queue[j].Index
	})
	var totalCost float64
	for _, s := range stats {
		totalCost += s.Cost
	}
	var (
		selected      []int
		selImportance float64
		selCost       float64
	)
	for _, f := range queue {
		if gamma > 0 {
			avgCE := 0.0
			if selCost > 0 {
				avgCE = selImportance / selCost
			}
			if f.CostEffectiveness() < gamma*avgCE {
				break
			}
		}
		if selCost+f.Cost > totalCost/2 {
			continue
		}
		selected = append(selected, f.Index)
		selImportance += f.Importance
		selCost += f.Cost
	}
	sort.Ints(selected)
	return selected
}

// Complement returns the IFV indices not in the selected set.
func Complement(stats []IFVStat, selected []int) []int {
	in := make(map[int]bool, len(selected))
	for _, i := range selected {
		in[i] = true
	}
	var rest []int
	for _, s := range stats {
		if !in[s.Index] {
			rest = append(rest, s.Index)
		}
	}
	sort.Ints(rest)
	return rest
}

package cascade

import (
	"context"
	"fmt"
	"sort"

	"willump/internal/feature"
	"willump/internal/model"
	"willump/internal/value"
	"willump/internal/weld"
)

// OracleSelect exhaustively evaluates every non-trivial IFV subset as a
// candidate efficient set, trains a small model for each, and returns the
// subset minimizing expected per-row serving cost while meeting the accuracy
// target on the validation set. It is the "Oracle" column of Table 8 and is
// exponential in the number of IFVs, which is why Willump approximates it
// with Algorithm 1.
func OracleSelect(ctx context.Context, prog *weld.Program, fullModel model.Model,
	trainInputs map[string]value.Value, trainX feature.Matrix, trainY []float64,
	validInputs map[string]value.Value, validY []float64, accuracyTarget float64) ([]int, error) {
	if fullModel.Task() != model.Classification {
		return nil, fmt.Errorf("cascade: oracle selection requires a classifier")
	}
	stats, err := ComputeStats(prog, fullModel, trainX, trainY)
	if err != nil {
		return nil, err
	}
	n := len(stats)
	if n > 16 {
		return nil, fmt.Errorf("cascade: oracle selection infeasible for %d IFVs", n)
	}
	var totalCost float64
	for _, s := range stats {
		totalCost += s.Cost
	}

	trainRun, err := prog.NewRun(ctx, trainInputs)
	if err != nil {
		return nil, err
	}
	validRun, err := prog.NewRun(ctx, validInputs)
	if err != nil {
		return nil, err
	}
	fullValidX, err := validRun.MatrixShared(prog.AllIFVs())
	if err != nil {
		return nil, err
	}
	fullP := fullModel.Predict(fullValidX)
	fullAcc := model.Accuracy(fullP, validY)

	best := []int(nil)
	bestCost := totalCost // serving cost of the no-cascade baseline
	for mask := 1; mask < (1<<n)-1; mask++ {
		var subset []int
		var subsetCost float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				subset = append(subset, stats[i].Index)
				subsetCost += stats[i].Cost
			}
		}
		sort.Ints(subset)
		effTrainX, err := trainRun.MatrixShared(subset)
		if err != nil {
			return nil, err
		}
		small := fullModel.Fresh()
		if err := small.Train(effTrainX, trainY); err != nil {
			return nil, err
		}
		effValidX, err := validRun.MatrixShared(subset)
		if err != nil {
			return nil, err
		}
		smallP := small.Predict(effValidX)
		// Lowest valid threshold for this subset, as in selectThreshold.
		for _, t := range thresholdCandidates {
			mixed := make([]float64, len(smallP))
			confident := 0
			for i := range mixed {
				if model.Confidence(smallP[i]) > t {
					mixed[i] = smallP[i]
					confident++
				} else {
					mixed[i] = fullP[i]
				}
			}
			if model.Accuracy(mixed, validY) < fullAcc-accuracyTarget {
				continue
			}
			// Expected serving cost: efficient features always, remaining
			// features for the cascaded fraction.
			cascFrac := 1 - float64(confident)/float64(len(smallP))
			expected := subsetCost + cascFrac*(totalCost-subsetCost)
			if expected < bestCost {
				bestCost = expected
				best = subset
			}
			break
		}
	}
	if best == nil {
		return nil, fmt.Errorf("cascade: oracle found no subset meeting the accuracy target")
	}
	return best, nil
}

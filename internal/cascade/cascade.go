package cascade

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"willump/internal/feature"
	"willump/internal/model"
	"willump/internal/trace"
	"willump/internal/value"
	"willump/internal/weld"
)

// Config controls cascade construction.
type Config struct {
	// AccuracyTarget is the maximum allowed validation accuracy loss versus
	// the full model (paper default in the evaluation: 0.001, i.e. < 0.1%).
	AccuracyTarget float64
	// Gamma is the stopping constant of Algorithm 1: selection stops once
	// the next IFV's cost-effectiveness falls below Gamma times the running
	// average of the efficient set. Default 0.25.
	Gamma float64
	// DisableGammaRule turns off the stopping rule (the section 6.4
	// ablation), keeping only the half-total-cost budget.
	DisableGammaRule bool
	// Selection overrides the IFV selection strategy (for the Table 8
	// comparison). Nil selects Algorithm 1.
	Selection func(stats []IFVStat) []int
}

func (c Config) withDefaults() Config {
	if c.AccuracyTarget <= 0 {
		c.AccuracyTarget = 0.001
	}
	if c.Gamma <= 0 {
		c.Gamma = 0.25
	}
	return c
}

// Approx is the approximate-model half of a cascade: the small model trained
// on the efficient IFVs. It is also the filter model of the top-K
// optimization (section 4.3), which shares stages 1-3 of cascade
// construction but needs no confidence threshold.
type Approx struct {
	Prog *weld.Program
	// Small is the approximate model, trained on the efficient IFVs'
	// concatenation.
	Small model.Model
	// Efficient and Rest partition the program's IFV indices.
	Efficient []int
	Rest      []int
	// Stats are the per-IFV statistics selection was based on.
	Stats []IFVStat
}

// BuildApprox runs cascade stages 1-3: compute IFV statistics, select the
// efficient set, and train the small model from the efficient feature
// vectors. fullModel must already be trained on the full feature matrix x.
func BuildApprox(ctx context.Context, prog *weld.Program, fullModel model.Model, trainInputs map[string]value.Value, x feature.Matrix, y []float64, cfg Config) (*Approx, error) {
	cfg = cfg.withDefaults()
	stats, err := ComputeStats(prog, fullModel, x, y)
	if err != nil {
		return nil, err
	}
	var efficient []int
	switch {
	case cfg.Selection != nil:
		efficient = cfg.Selection(stats)
	case cfg.DisableGammaRule:
		efficient = EfficientIFVs(stats, 0)
	default:
		efficient = EfficientIFVs(stats, cfg.Gamma)
	}
	if len(efficient) == 0 || len(efficient) == len(stats) {
		return nil, fmt.Errorf("cascade: degenerate efficient set (%d of %d IFVs)", len(efficient), len(stats))
	}
	run, err := prog.NewRun(ctx, trainInputs)
	if err != nil {
		return nil, err
	}
	effX, err := run.MatrixShared(efficient)
	if err != nil {
		return nil, fmt.Errorf("cascade: computing efficient training features: %w", err)
	}
	small := fullModel.Fresh()
	if err := small.Train(effX, y); err != nil {
		return nil, fmt.Errorf("cascade: training small model: %w", err)
	}
	return &Approx{
		Prog:      prog,
		Small:     small,
		Efficient: efficient,
		Rest:      Complement(stats, efficient),
		Stats:     stats,
	}, nil
}

// Cascade is a deployed end-to-end cascade: small model on efficient IFVs,
// full model on everything, and the confidence threshold that routes between
// them.
type Cascade struct {
	*Approx
	// Full is the full model over the complete feature vector.
	Full model.Model
	// Threshold is the cascade threshold t_c: a small-model prediction is
	// returned when its confidence strictly exceeds Threshold. A threshold
	// above 1 sends every input to the full model.
	Threshold float64
	// FullAccuracy and CascadeAccuracy are the validation accuracies
	// recorded during threshold selection.
	FullAccuracy    float64
	CascadeAccuracy float64

	// small and full are Small and Full bound for scoring, by Train and
	// Restore.
	small, full model.Scorer
}

// thresholdCandidates are the integer multiples of 0.1 the paper restricts
// thresholds to, avoiding overfitting to the validation set. Confidences lie
// in [0.5, 1], so candidates below 0.5 are redundant with 0.5.
var thresholdCandidates = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// Train builds a complete cascade: BuildApprox plus threshold selection on
// the validation set (cascade stage 4). fullModel must be a trained
// classifier.
func Train(ctx context.Context, prog *weld.Program, fullModel model.Model,
	trainInputs map[string]value.Value, trainX feature.Matrix, trainY []float64,
	validInputs map[string]value.Value, validY []float64, cfg Config) (*Cascade, error) {
	cfg = cfg.withDefaults()
	if fullModel.Task() != model.Classification {
		return nil, fmt.Errorf("cascade: end-to-end cascades require a classification model")
	}
	approx, err := BuildApprox(ctx, prog, fullModel, trainInputs, trainX, trainY, cfg)
	if err != nil {
		return nil, err
	}
	c := Restore(approx, fullModel, 0, 0, 0)
	if err := c.selectThreshold(ctx, validInputs, validY, cfg.AccuracyTarget); err != nil {
		return nil, err
	}
	return c, nil
}

// selectThreshold runs cascade stage 4 on the validation set: both models
// score it, and SelectThreshold picks the threshold against its labels.
func (c *Cascade) selectThreshold(ctx context.Context, validInputs map[string]value.Value, validY []float64, target float64) error {
	run, err := c.Prog.NewRun(ctx, validInputs)
	if err != nil {
		return err
	}
	// The run's shared matrix is valid until the next one is asked for, so
	// the small model scores before the run resumes to the full features.
	effX, err := run.MatrixShared(c.Efficient)
	if err != nil {
		return err
	}
	smallP := c.Small.Predict(effX)
	fullX, err := run.MatrixShared(c.Prog.AllIFVs())
	if err != nil {
		return err
	}
	fullP := c.Full.Predict(fullX)
	c.FullAccuracy = model.Accuracy(fullP, validY)
	c.Threshold, c.CascadeAccuracy, _ = SelectThreshold(smallP, fullP, validY, c.FullAccuracy, target)
	return nil
}

// SelectThreshold implements cascade stage 4: the threshold is the lowest
// candidate such that routing confident inputs to the small model keeps
// accuracy against labels within target of baseline, the full model's own
// accuracy. small[i] and full[i] are the two models' scores for the same
// input. Offline the labels are the validation set's; online, where live
// traffic has none, they are the full model's decisions and baseline is 1.
// It returns the threshold with the mixed predictions' accuracy and the
// fraction of inputs the small model answers alone — +Inf, baseline and 0
// when no candidate meets the target and every input cascades.
func SelectThreshold(small, full, labels []float64, baseline, target float64) (threshold, accuracy, smallFrac float64) {
	mixed := make([]float64, len(small))
	for _, t := range thresholdCandidates {
		routed := 0
		for i := range mixed {
			if model.Confidence(small[i]) > t {
				mixed[i] = small[i]
				routed++
			} else {
				mixed[i] = full[i]
			}
		}
		if acc := model.Accuracy(mixed, labels); acc >= baseline-target {
			// Candidates ascend; the first valid is the lowest.
			return t, acc, float64(routed) / float64(len(small))
		}
	}
	return math.Inf(1), baseline, 0
}

// Restore reassembles a deployed cascade from persisted state (an
// artifact): the decoded approximate model, the trained full model, and the
// threshold selected at optimization time. No training or validation data
// is touched — the counterpart of Train for the deploy phase.
func Restore(approx *Approx, full model.Model, threshold, fullAccuracy, cascadeAccuracy float64) *Cascade {
	return &Cascade{
		Approx:          approx,
		Full:            full,
		Threshold:       threshold,
		FullAccuracy:    fullAccuracy,
		CascadeAccuracy: cascadeAccuracy,
		small:           model.Bind(approx.Small),
		full:            model.Bind(full),
	}
}

// ServeStats reports how a batch was served.
type ServeStats struct {
	// Total rows in the batch.
	Total int
	// SmallOnly rows were answered by the small model alone.
	SmallOnly int
	// Cascaded rows required the full model.
	Cascaded int
}

// PredictBatch serves a batch through the cascade (cascade stage 5): compute
// efficient IFVs, predict with the small model, return confident predictions
// directly, and cascade only the unconfident rows to the full model —
// computing the remaining IFVs for those rows alone.
func (c *Cascade) PredictBatch(ctx context.Context, inputs map[string]value.Value) ([]float64, ServeStats, error) {
	return c.PredictBatchThreshold(ctx, inputs, c.Threshold)
}

// PredictBatchThreshold serves a batch using an explicit threshold (the
// Figure 7 threshold sweep). The batch runs on row shards (weld.Shards),
// each through both stages with no barrier between them: small-model scores
// over the efficient IFVs, routing, and full-model scores on the shard's
// hard rows alone, each pass one weld.BatchRun.Score. Runs, the hard rows'
// index and copy of the inputs, and the scores are pooled, and every score
// is written into the result in place, so the steady-state batch allocates
// its result and what its operators allocate per call.
func (c *Cascade) PredictBatchThreshold(ctx context.Context, inputs map[string]value.Value, threshold float64) ([]float64, ServeStats, error) {
	run, err := c.Prog.NewRun(ctx, inputs)
	if err != nil {
		return nil, ServeStats{}, err
	}
	defer run.Close()
	out := make([]float64, run.Len())
	j := cascadeJobs.Get().(*cascadeJob)
	j.c, j.threshold, j.out = c, threshold, out
	j.cascaded.Store(0)
	err = run.Shards(nil, c.Prog.AllIFVs(), j)
	cascaded := int(j.cascaded.Load())
	j.c, j.out = nil, nil
	cascadeJobs.Put(j)
	if err != nil {
		return nil, ServeStats{}, err
	}
	return out, ServeStats{Total: len(out), SmallOnly: len(out) - cascaded, Cascaded: cascaded}, nil
}

// cascadeJob is PredictBatchThreshold's shard body; cascaded sums the rows
// its shards sent to the full model.
type cascadeJob struct {
	c         *Cascade
	threshold float64
	out       []float64
	cascaded  atomic.Int64
}

var cascadeJobs = sync.Pool{New: func() any { return new(cascadeJob) }}

func (j *cascadeJob) RunShard(sub *weld.BatchRun, lo, hi int) error {
	c, out := j.c, j.out[lo:hi]
	tr := sub.Trace()
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	small, err := sub.Score(c.Efficient, c.small)
	if err != nil {
		return err
	}
	hard := sub.RowScratch(len(out))[:0]
	for k, p := range small {
		out[k] = p
		if !(model.Confidence(p) > j.threshold) {
			hard = append(hard, k)
		}
	}
	if tr != nil {
		tr.Record(trace.StageCascadeSmall, t0)
	}
	j.cascaded.Add(int64(len(hard)))
	if len(hard) == 0 {
		return nil
	}
	if tr != nil {
		t0 = time.Now()
	}
	hs := sub // every row hard (a point query's): resume on sub itself
	if len(hard) < len(out) {
		hs = sub.SubsetRun(hard)
		defer hs.Close()
	}
	full, err := hs.Score(c.Prog.AllIFVs(), c.full)
	if err != nil {
		return err
	}
	for k, row := range hard {
		out[row] = full[k]
	}
	if tr != nil {
		tr.Record(trace.StageCascadeResume, t0)
	}
	return nil
}

// Score writes m's score of the given rows of run (nil: every row) over the
// IFVs idx into out, one element per row, on row shards (weld.Shards): each
// shard scores its rows with weld.BatchRun.Score, which gives
// model.ScoreRow's scores, the row function every model family's Predict is
// made of, so out holds Predict's scores to the bit. A sampled run records
// stage, when not empty, around each shard's scoring.
func Score(run *weld.BatchRun, rows, idx []int, m model.Scorer, stage string, out []float64) error {
	j := scoreJobs.Get().(*scoreJob)
	*j = scoreJob{m: m, idx: idx, stage: stage, out: out}
	err := run.Shards(rows, idx, j)
	*j = scoreJob{}
	scoreJobs.Put(j)
	return err
}

// scoreJob is Score's shard body.
type scoreJob struct {
	m     model.Scorer
	idx   []int
	stage string
	out   []float64
}

var scoreJobs = sync.Pool{New: func() any { return new(scoreJob) }}

func (j *scoreJob) RunShard(sub *weld.BatchRun, lo, hi int) error {
	tr, t0 := sub.Trace(), time.Time{}
	if tr != nil {
		t0 = time.Now()
	}
	scores, err := sub.Score(j.idx, j.m)
	copy(j.out[lo:hi], scores)
	if j.stage != "" {
		tr.Record(j.stage, t0)
	}
	return err
}

// PredictPoint serves one example-at-a-time query through the cascade.
func (c *Cascade) PredictPoint(ctx context.Context, inputs map[string]value.Value) (float64, error) {
	p, _, err := c.PredictPointThreshold(ctx, inputs, c.Threshold)
	return p, err
}

// PredictPointThreshold serves one example-at-a-time query using an
// explicit confidence threshold (the serving layer's per-request override).
// The query is a batch of one on the pooled point path: a batch's shard
// body runs on its run, so the small model scores over the efficient IFVs,
// and only an unconfident query resumes the same state for the full model —
// zero heap allocations once warm. Like the batch path it reports which
// model answered.
func (c *Cascade) PredictPointThreshold(ctx context.Context, inputs map[string]value.Value, threshold float64) (float64, ServeStats, error) {
	run, err := c.Prog.NewRun(ctx, inputs)
	if err != nil {
		return 0, ServeStats{}, err
	}
	defer run.Close()
	if run.Len() != 1 {
		return 0, ServeStats{}, fmt.Errorf("cascade: point query got %d rows", run.Len())
	}
	var p [1]float64
	j := cascadeJob{c: c, threshold: threshold, out: p[:]}
	if err := j.RunShard(run, 0, 1); err != nil {
		return 0, ServeStats{}, err
	}
	cascaded := int(j.cascaded.Load())
	return p[0], ServeStats{Total: 1, SmallOnly: 1 - cascaded, Cascaded: cascaded}, nil
}

// SmallOnlyPredict runs only the small model over a batch (the orange-X
// point of Figure 7), on row shards like every batch path.
func (a *Approx) SmallOnlyPredict(ctx context.Context, inputs map[string]value.Value) ([]float64, error) {
	run, err := a.Prog.NewRun(ctx, inputs)
	if err != nil {
		return nil, err
	}
	defer run.Close()
	out := make([]float64, run.Len())
	if err := Score(run, nil, a.Efficient, model.Bind(a.Small), "", out); err != nil {
		return nil, err
	}
	return out, nil
}

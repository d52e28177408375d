package weld

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"weak"

	"willump/internal/artifact"
	"willump/internal/graph"
	"willump/internal/model"
	"willump/internal/ops"
	"willump/internal/value"
)

// fusedGraph is text -> clean -> {word chain, char chain} beside TextStats
// on the raw text: three IFVs, the two chains ending in the vectorizers
// given. clipWord puts a Clip spine operator over the word IFV alone.
func fusedGraph(t *testing.T, word, char graph.Op, clipWord bool) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	text := b.Input("text")
	clean := b.Add("clean", ops.NewClean(), text)
	w := b.Add("word", word, b.Add("ngram", ops.NewWordNGrams(1, 2), b.Add("tok", ops.NewTokenize(), clean)))
	if clipWord {
		w = b.Add("clip", ops.NewClip(-0.25, 0.25), b.Add("inner", ops.NewConcat(), w))
	}
	c := b.Add("char", char, b.Add("chars", ops.NewCharNGrams(2, 3), clean))
	stats := b.Add("stats", ops.NewTextStats([]string{"bad", "día"}), text)
	b.SetOutput(b.Add("concat", ops.NewConcat(), w, c, stats))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// scalarFusedGraph is a word TF-IDF chain beside two scalar IFV roots, a
// float and an int column passed through.
func scalarFusedGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	w := b.Add("word", ops.NewTFIDF(64, ops.NormL2), b.Add("tok", ops.NewTokenize(), b.Add("clean", ops.NewClean(), b.Input("text"))))
	b.SetOutput(b.Add("concat", ops.NewConcat(), w, b.Add("px", passthrough{}, b.Input("x")), b.Add("py", passthrough{}, b.Input("y"))))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// linearModel loads a linear model with the given weights and bias through
// its saved state, the way an artifact's model arrives.
func linearModel(t *testing.T, logit bool, w []float64, bias float64) model.Model {
	t.Helper()
	state, err := json.Marshal(map[string]any{"config": model.LinearConfig{}, "weights": artifact.Vector(w), "bias": artifact.Scalar(bias)})
	if err != nil {
		t.Fatal(err)
	}
	m := model.Model(model.NewLinearRegression(model.LinearConfig{}))
	if logit {
		m = model.NewLogistic(model.LinearConfig{})
	}
	if err := m.(artifact.StateUnmarshaler).UnmarshalState(state); err != nil {
		t.Fatal(err)
	}
	return m
}

// assembledScores is the reference Score must match to the bit: m's
// model.ScoreRow of every row of what MatrixShared(idx) assembles on a run of
// its own.
func assembledScores(t *testing.T, p *Program, in map[string]value.Value, idx []int, m model.Model) []float64 {
	t.Helper()
	r, err := p.NewRun(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	x, err := r.MatrixShared(idx)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, r.Len())
	var s model.Scratch
	for k := range out {
		out[k] = model.ScoreRow(m, x, k, &s)
	}
	return out
}

// requireBits fails unless got and want hold the same float64s bit for bit,
// NaN matching any NaN (the payload an operation on two NaNs keeps depends
// on its operand order in the machine code).
func requireBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", what, len(got), len(want))
	}
	for k := range got {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) && !(math.IsNaN(got[k]) && math.IsNaN(want[k])) {
			t.Fatalf("%s: row %d scores %v, assembled %v", what, k, got[k], want[k])
		}
	}
}

// scoreJob scores each shard's rows into out[lo:hi] through BatchRun.Score.
type scoreJob struct {
	idx []int
	m   model.Model
	out []float64
}

func (j scoreJob) RunShard(sub *BatchRun, lo, hi int) error {
	s, err := sub.Score(j.idx, j.m)
	copy(j.out[lo:hi], s)
	return err
}

// TestFusedLinearScoreMatchesAssembled: BatchRun.Score equals the assembled
// reference bit for bit on every IFV subset, for plans it fuses and for each
// fallback — an IFV under a Clip spine, an IFV behind a feature cache, a
// hashing chain, binary and plain counts, an MLP — and beside scalar roots
// holding zeros and NaN, on a batch, after a resume on the same run, on a
// hard-row sub-run, point by point and on shards, with weights that hold
// NaN, ±Inf and zeros.
func TestFusedLinearScoreMatchesAssembled(t *testing.T) {
	docs := []string{
		"Good dog plays fetch", "BAD cat is bad!", "", "the quick brown fox", "día de sol, bad",
		"nice sunny day", "\xffbad\xfe", "dogs and cats, living together", "bad bad bad bad", "   ",
	}
	text := map[string]value.Value{"text": value.NewStrings(docs)}
	scalars := map[string]value.Value{
		"text": value.NewStrings(docs),
		"x":    value.NewFloats([]float64{0, 1.5, math.NaN(), -2, 0, 3, 0.25, 0, -0.5, 7}),
		"y":    value.NewInts([]int64{3, 0, 0, -1, 2, 0, 5, 1, 0, 4}),
	}
	tfidf := func() graph.Op { return ops.NewTFIDF(64, ops.NormL2) }
	plans := []struct {
		name       string
		g          *graph.Graph
		in         map[string]value.Value // nil: text
		cacheWord  bool
		dots       [3]bool // which IFVs have a dot step
		mlp, logit bool
	}{
		{name: "tfidf", g: fusedGraph(t, tfidf(), tfidf(), false), dots: [3]bool{true, true, false}, logit: true},
		{name: "tfidf-regression", g: fusedGraph(t, tfidf(), ops.NewTFIDF(64, ops.NormL1), false), dots: [3]bool{true, true, false}},
		{name: "counts", g: fusedGraph(t, ops.NewCountVectorizer(64, true), ops.NewCountVectorizer(64, false), false), dots: [3]bool{true, true, false}, logit: true},
		{name: "hashing", g: fusedGraph(t, ops.NewHashingVectorizer(16), tfidf(), false), dots: [3]bool{false, true, false}, logit: true},
		{name: "clip-spine", g: fusedGraph(t, tfidf(), tfidf(), true), dots: [3]bool{false, true, false}, logit: true},
		{name: "feature-cache", g: fusedGraph(t, tfidf(), tfidf(), false), cacheWord: true, dots: [3]bool{true, true, false}, logit: true},
		{name: "mlp", g: fusedGraph(t, tfidf(), tfidf(), false), dots: [3]bool{true, true, false}, mlp: true},
		{name: "scalar-roots", g: scalarFusedGraph(t), in: scalars, dots: [3]bool{true, false, false}, logit: true},
	}
	subsets := [][]int{{0, 1, 2}, {0}, {1}, {2}, {0, 1}, {1, 2}, {2, 0}}
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	for _, plan := range plans {
		in := plan.in
		if in == nil {
			in = text
		}
		p, x := fitProgram(t, plan.g, in)
		for i, want := range plan.dots {
			if got := p.dotSteps[i] >= 0; got != want {
				t.Fatalf("%s: IFV %d has a dot step: %v, want %v", plan.name, i, got, want)
			}
		}
		if plan.cacheWord {
			p.EnableFeatureCachingSpecs([]CacheSpec{{IFV: 0, Capacity: 4}})
		}
		w := make([]float64, x.Cols())
		for c := range w {
			w[c] = rng.NormFloat64()
		}
		models := []model.Model{linearModel(t, plan.logit, w, 0.25)}
		hostile := append([]float64(nil), w...)
		for _, c := range []int{0, 3, len(w) / 2, len(w) - 1} {
			hostile[c] = [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), 0}[c%4]
		}
		models = append(models, linearModel(t, plan.logit, hostile, -1))
		if plan.mlp {
			mlp := model.NewMLP(model.MLPConfig{Task: model.Classification, Hidden: 4, Epochs: 2, Seed: 3})
			y := make([]float64, x.Rows())
			for k := range y {
				y[k] = float64(k % 2)
			}
			if err := mlp.Train(x, y); err != nil {
				t.Fatal(err)
			}
			models = []model.Model{mlp}
		}
		for mi, m := range models {
			for _, idx := range subsets {
				what := fmt.Sprintf("%s model %d IFVs %v", plan.name, mi, idx)
				want := assembledScores(t, p, in, idx, m)
				all := assembledScores(t, p, in, p.AllIFVs(), m)

				r, err := p.NewRun(ctx, in)
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.Score(idx, m)
				if err != nil {
					t.Fatal(err)
				}
				requireBits(t, what+" batch", got, want)
				_, linear := m.(model.Linear)
				for _, i := range idx {
					fused := linear && plan.dots[i] && !(plan.cacheWord && i == 0)
					if r.ifvDone[i] == fused {
						t.Fatalf("%s: IFV %d computed %v after Score, want %v", what, i, r.ifvDone[i], !fused)
					}
				}
				// The rest on the same run: computed IFVs read in place,
				// the others fused, then the hard rows on a sub-run.
				got, err = r.Score(p.AllIFVs(), m)
				if err != nil {
					t.Fatal(err)
				}
				requireBits(t, what+" resumed", got, all)
				hard := []int{1, 4, 6, 9}
				sub := r.SubsetRun(hard)
				got, err = sub.Score(p.AllIFVs(), m)
				if err != nil {
					t.Fatal(err)
				}
				for k, row := range hard {
					requireBits(t, what+" hard rows", got[k:k+1], all[row:row+1])
				}
				sub.Close()
				r.Close()

				for row := range docs {
					point := make(map[string]value.Value, len(in))
					for k, v := range in {
						point[k] = v.Gather([]int{row})
					}
					pr, err := p.NewRun(ctx, point)
					if err != nil {
						t.Fatal(err)
					}
					got, err := pr.Score(idx, m)
					if err != nil {
						t.Fatal(err)
					}
					requireBits(t, fmt.Sprintf("%s point %d", what, row), got, want[row:row+1])
					pr.Close()
				}

				for _, workers := range []int{2, 3} {
					ForceFanOut(t, p, workers)
					r, err := p.NewRun(ctx, in)
					if err != nil {
						t.Fatal(err)
					}
					out := make([]float64, len(docs))
					if err := r.Shards(nil, idx, scoreJob{idx, m, out}); err != nil {
						t.Fatal(err)
					}
					r.Close()
					requireBits(t, fmt.Sprintf("%s %d shards", what, workers), out, want)
				}
			}
		}
	}
}

// TestLongPointDocumentNotKeptAfterGC: the free list that outlives
// collections keeps a short point query's state, and never the state a
// point query over more than maxPointBytes of text grew its buffers in —
// that one is freed by the next two collections.
func TestLongPointDocumentNotKeptAfterGC(t *testing.T) {
	docs := []string{"Good dog plays fetch", "BAD cat is bad!", "día de sol, bad", "nice sunny day"}
	p, _ := fitProgram(t, fusedGraph(t, ops.NewTFIDF(64, ops.NormL2), ops.NewTFIDF(64, ops.NormL2), false),
		map[string]value.Value{"text": value.NewStrings(docs)})
	point := func(doc string) weak.Pointer[BatchRun] {
		r, err := p.NewRun(context.Background(), map[string]value.Value{"text": value.NewStrings([]string{doc})})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.MatrixShared(p.AllIFVs()); err != nil {
			t.Fatal(err)
		}
		w := weak.Make(r)
		r.Close()
		return w
	}
	short := point(docs[0])
	long := point(strings.Repeat("bad dog day ", maxPointBytes/12+1))
	runtime.GC()
	runtime.GC()
	if long.Value() != nil {
		t.Fatalf("the state that ran a %d-byte point document outlives two collections", maxPointBytes+12)
	}
	if short.Value() == nil {
		t.Fatal("a short point query's state did not outlive two collections")
	}
	runtime.KeepAlive(p)
}

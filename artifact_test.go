package willump

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"willump/internal/artifact"
	"willump/internal/pipeline"
	"willump/internal/value"
)

// optimizeBenchmark builds and optimizes one of the paper's benchmark
// pipelines at test scale.
func optimizeBenchmark(t *testing.T, name string, n int, opts ...Option) (*pipeline.Benchmark, *Optimized) {
	t.Helper()
	b, err := pipeline.ByName(name, pipeline.Config{Seed: 5, N: n})
	if err != nil {
		t.Fatalf("building %s: %v", name, err)
	}
	t.Cleanup(func() { b.Close() })
	o, _, err := Optimize(context.Background(), b.Pipeline, b.Train, b.Valid, opts...)
	if err != nil {
		t.Fatalf("optimizing %s: %v", name, err)
	}
	return b, o
}

// roundTrip saves o and loads it back through the public API.
func roundTrip(t *testing.T, o *Optimized, opts ...LoadOption) *Optimized {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(o, &buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()), opts...)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return loaded
}

// assertSamePreds fails unless two prediction slices are bit-identical.
func assertSamePreds(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d predictions vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: prediction %d differs: %v vs %v", label, i, want[i], got[i])
		}
	}
}

// TestArtifactHeaderGolden pins the artifact version header: every artifact
// stream must begin with the exact bytes in the golden file, so old readers
// fail loudly on new formats and vice versa. Bumping the format version
// must update the golden file deliberately.
func TestArtifactHeaderGolden(t *testing.T) {
	_, o := optimizeBenchmark(t, "product", 400)
	var buf bytes.Buffer
	if err := Save(o, &buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "artifact_header.golden"))
	if err != nil {
		t.Fatalf("reading golden header: %v", err)
	}
	if !bytes.HasPrefix(buf.Bytes(), golden) {
		n := len(golden)
		if buf.Len() < n {
			n = buf.Len()
		}
		t.Fatalf("artifact header changed:\n got %q\nwant %q", buf.Bytes()[:n], golden)
	}
}

func TestLoadRejectsBadHeader(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"wrong magic", `{"magic":"not-willump","version":1}`, "not a willump artifact"},
		{"future version", fmt.Sprintf(`{"magic":"willump/artifact","version":%d}`, 999), "version 999 not supported"},
		{"not json", "PK\x03\x04 zip junk", "decoding"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tc.doc))
			if err == nil {
				t.Fatalf("Load succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Load error = %q, want it to contain %q", err, tc.want)
			}
		})
	}
}

// TestLoadRejectsModelWidthMismatch edits a saved model so its input width
// disagrees with the feature vector the restored pipeline produces. Load
// must refuse it, naming both widths, rather than hand back a pipeline that
// panics (logistic weights cut short) or silently misreads columns (a GBDT
// claiming one feature) on its first prediction.
func TestLoadRejectsModelWidthMismatch(t *testing.T) {
	setState := func(t *testing.T, m *artifact.Model, key string, v any) {
		var st map[string]json.RawMessage
		if err := json.Unmarshal(m.State, &st); err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		st[key] = raw
		if m.State, err = json.Marshal(st); err != nil {
			t.Fatal(err)
		}
	}
	// Each edit returns the width it makes the model claim and the width the
	// pipeline really feeds it.
	cases := []struct {
		bench string
		opts  []Option
		edit  func(t *testing.T, a *artifact.Artifact, o *Optimized) (claimed, want int)
	}{
		{"product", nil, func(t *testing.T, a *artifact.Artifact, o *Optimized) (int, int) {
			setState(t, &a.Model, "weights", artifact.Vector{1, 2, 3})
			return 3, o.Model.NumFeatures()
		}},
		{"music", nil, func(t *testing.T, a *artifact.Artifact, o *Optimized) (int, int) {
			setState(t, &a.Model, "num_features", 1)
			return 1, o.Model.NumFeatures()
		}},
		{"price", nil, func(t *testing.T, a *artifact.Artifact, o *Optimized) (int, int) {
			var st struct {
				W1 []artifact.Vector `json:"w1"`
			}
			if err := json.Unmarshal(a.Model.State, &st); err != nil {
				t.Fatal(err)
			}
			for i := range st.W1 {
				st.W1[i] = st.W1[i][:1]
			}
			setState(t, &a.Model, "w1", st.W1)
			return 1, o.Model.NumFeatures()
		}},
		{"toxic", []Option{WithCascades(0.01)}, func(t *testing.T, a *artifact.Artifact, o *Optimized) (int, int) {
			if a.Approx == nil {
				t.Skip("no cascade was selected")
			}
			setState(t, &a.Approx.Small, "weights", artifact.Vector{1, 2})
			return 2, o.Approx.Small.NumFeatures()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.bench, func(t *testing.T) {
			_, o := optimizeBenchmark(t, tc.bench, 600, tc.opts...)
			var buf bytes.Buffer
			if err := Save(o, &buf); err != nil {
				t.Fatal(err)
			}
			art, err := artifact.Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			claimed, want := tc.edit(t, art, o)
			buf.Reset()
			if err := artifact.Write(&buf, art); err != nil {
				t.Fatal(err)
			}
			_, err = Load(&buf)
			if err == nil {
				t.Fatalf("Load accepted a model taking %d features where the pipeline produces %d", claimed, want)
			}
			for _, n := range []int{claimed, want} {
				if !strings.Contains(err.Error(), fmt.Sprint(n)) {
					t.Errorf("Load error %q does not name width %d", err, n)
				}
			}
		})
	}
}

// TestArtifactRoundTripFamilies saves and reloads pipelines spanning all
// four model families and the benchmark operator families (TF-IDF chains,
// lookups, encoders, the non-compilable ratio op), asserting the loaded
// pipeline's PredictBatch and PredictPoint are bit-identical to the
// in-memory Optimized — with cascades and top-K where configured.
func TestArtifactRoundTripFamilies(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		bench string
		opts  []Option
	}{
		{"toxic", []Option{WithCascades(0.01), WithTopK(0, 0)}}, // logistic + cascade + top-K
		{"music", []Option{WithCascades(0.01)}},                 // GBDT classification + cascade
		{"credit", nil},                                         // GBDT regression + python (ratio) node
		{"price", nil},                                          // MLP regression
	}
	for _, tc := range cases {
		t.Run(tc.bench, func(t *testing.T) {
			b, o := optimizeBenchmark(t, tc.bench, 1000, tc.opts...)
			loaded := roundTrip(t, o)

			want, err := o.PredictBatch(ctx, b.Test.Inputs)
			if err != nil {
				t.Fatalf("in-memory PredictBatch: %v", err)
			}
			got, err := loaded.PredictBatch(ctx, b.Test.Inputs)
			if err != nil {
				t.Fatalf("loaded PredictBatch: %v", err)
			}
			assertSamePreds(t, "PredictBatch", want, got)

			for _, row := range []int{0, 7, 42} {
				in := b.Test.Row(row).Inputs
				wp, err := o.PredictPoint(ctx, in)
				if err != nil {
					t.Fatalf("in-memory PredictPoint(%d): %v", row, err)
				}
				gp, err := loaded.PredictPoint(ctx, in)
				if err != nil {
					t.Fatalf("loaded PredictPoint(%d): %v", row, err)
				}
				if wp != gp {
					t.Fatalf("PredictPoint(%d) differs: %v vs %v", row, wp, gp)
				}
			}

			if o.Cascade != nil && loaded.Cascade == nil {
				t.Error("cascade lost in round trip")
			}
			if loaded.Cascade != nil && loaded.Cascade.Threshold != o.Cascade.Threshold {
				t.Errorf("cascade threshold drifted: %v vs %v", loaded.Cascade.Threshold, o.Cascade.Threshold)
			}
			if o.Filter != nil {
				if loaded.Filter == nil {
					t.Fatal("top-K filter lost in round trip")
				}
				const k = 15
				wantK, err := o.TopK(ctx, b.Test.Inputs, k)
				if err != nil {
					t.Fatalf("in-memory TopK: %v", err)
				}
				gotK, err := loaded.TopK(ctx, b.Test.Inputs, k)
				if err != nil {
					t.Fatalf("loaded TopK: %v", err)
				}
				for i := range wantK {
					if wantK[i] != gotK[i] {
						t.Fatalf("TopK index %d differs: %d vs %d", i, wantK[i], gotK[i])
					}
				}
			}
		})
	}
}

// TestArtifactFileRoundTrip exercises SaveFile/LoadFile on disk.
func TestArtifactFileRoundTrip(t *testing.T) {
	ctx := context.Background()
	b, o := optimizeBenchmark(t, "product", 600, WithCascades(0.01), WithFeatureCache(1024))
	path := filepath.Join(t.TempDir(), "product.willump")
	if err := SaveFile(o, path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	// Deployment processes often run as a different user than training;
	// artifacts must not keep CreateTemp's owner-only permissions.
	if info, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if perm := info.Mode().Perm(); perm != 0o644 {
		t.Errorf("artifact permissions = %o, want 644", perm)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	want, err := o.PredictBatch(ctx, b.Test.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.PredictBatch(ctx, b.Test.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePreds(t, "PredictBatch", want, got)
}

// TestServeLoadedArtifact proves the deployment path the willump-serve
// binary uses: a loaded artifact hosted behind the HTTP serving frontend
// returns the same predictions the training process computed in memory.
func TestServeLoadedArtifact(t *testing.T) {
	ctx := context.Background()
	b, o := optimizeBenchmark(t, "toxic", 800, WithCascades(0.01))
	loaded := roundTrip(t, o)

	server := Serve(loaded, ServeOptions{})
	url, err := server.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer server.Close()

	rows := make([]int, 64)
	for i := range rows {
		rows[i] = i
	}
	sub := b.Test.Gather(rows)
	want, err := o.PredictBatch(ctx, sub.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewClient(url).Predict(ctx, sub.Inputs)
	if err != nil {
		t.Fatalf("Predict over HTTP: %v", err)
	}
	assertSamePreds(t, "HTTP predictions", want, got)
}

// scaleOp is a custom user operator with serializable state, exercising the
// RegisterOp extension hook.
type scaleOp struct {
	Factor float64 `json:"factor"`
}

func (s *scaleOp) Name() string      { return "test_scale" }
func (s *scaleOp) Compilable() bool  { return true }
func (s *scaleOp) Commutative() bool { return false }
func (s *scaleOp) Apply(ins []value.Value) (value.Value, error) {
	out := make([]float64, len(ins[0].Floats))
	for i, v := range ins[0].Floats {
		out[i] = v * s.Factor
	}
	return value.NewFloats(out), nil
}
func (s *scaleOp) ApplyBoxed(ins []any) (any, error) {
	return ins[0].(float64) * s.Factor, nil
}
func (s *scaleOp) MarshalState() ([]byte, error)     { return json.Marshal(s) }
func (s *scaleOp) UnmarshalState(state []byte) error { return json.Unmarshal(state, s) }

var registerScaleOp = sync.OnceFunc(func() {
	RegisterOp("test_scale", func() Op { return &scaleOp{} })
})

func TestArtifactCustomRegisteredOp(t *testing.T) {
	registerScaleOp()
	ctx := context.Background()
	pipe, err := NewPipeline().
		Input("x").
		Node("scaled", &scaleOp{Factor: 2.5}, "x").
		Node("stats", NumericStats(), "scaled").
		Model(NewLogistic(LinearConfig{Epochs: 3, Seed: 1})).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	train := twoColumnData(64)
	o, _, err := Optimize(ctx, pipe, train, Dataset{})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	loaded := roundTrip(t, o)
	want, err := o.PredictBatch(ctx, train.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.PredictBatch(ctx, train.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePreds(t, "custom-op PredictBatch", want, got)
}

// unserializableOp has no registration, so Save must refuse it with a
// pointer at RegisterOp.
type unserializableOp struct{}

func (unserializableOp) Name() string                                 { return "mystery" }
func (unserializableOp) Compilable() bool                             { return true }
func (unserializableOp) Commutative() bool                            { return false }
func (unserializableOp) Apply(ins []value.Value) (value.Value, error) { return ins[0], nil }
func (unserializableOp) ApplyBoxed(ins []any) (any, error)            { return ins[0], nil }

func TestSaveRejectsUnregisteredOp(t *testing.T) {
	ctx := context.Background()
	pipe, err := NewPipeline().
		Input("x").
		Node("m", unserializableOp{}, "x").
		Node("stats", NumericStats(), "m").
		Model(NewLogistic(LinearConfig{Epochs: 2})).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	o, _, err := Optimize(ctx, pipe, twoColumnData(32), Dataset{})
	if err != nil {
		t.Fatal(err)
	}
	err = Save(o, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "RegisterOp") {
		t.Fatalf("Save = %v, want unregistered-op error mentioning RegisterOp", err)
	}
}

// remoteStub is a Table that cannot be inlined into an artifact, standing
// in for a remote feature store.
type remoteStub struct{ rows map[int64][]float64 }

func (r *remoteStub) Dim() int { return 2 }
func (r *remoteStub) LookupBatch(keys []int64) ([][]float64, error) {
	out := make([][]float64, len(keys))
	for i, k := range keys {
		out[i] = r.rows[k]
	}
	return out, nil
}
func (r *remoteStub) Requests() int64 { return 0 }

func TestLoadBindsExternalTables(t *testing.T) {
	ctx := context.Background()
	rows := map[int64][]float64{}
	for k := int64(0); k < 64; k++ {
		rows[k] = []float64{float64(k%7) - 3, float64(k % 5)}
	}
	table := &remoteStub{rows: rows}
	pipe, err := NewPipeline().
		Input("id").
		Node("features", Lookup("users", table), "id").
		Model(NewLogistic(LinearConfig{Epochs: 3, Seed: 1})).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, 128)
	ys := make([]float64, 128)
	for i := range ids {
		ids[i] = int64(i % 64)
		if rows[ids[i]][0] > 0 {
			ys[i] = 1
		}
	}
	train := Dataset{Inputs: Inputs{"id": Ints(ids)}, Y: ys}
	o, _, err := Optimize(ctx, pipe, train, Dataset{})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := Save(o, &buf); err != nil {
		t.Fatalf("Save: %v", err)
	}

	// Loading without a binding must fail, naming the missing table.
	_, err = Load(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), `"users"`) {
		t.Fatalf("Load without binding = %v, want missing-table error naming \"users\"", err)
	}

	loaded, err := Load(bytes.NewReader(buf.Bytes()), WithTableBinding("users", table))
	if err != nil {
		t.Fatalf("Load with binding: %v", err)
	}
	want, err := o.PredictBatch(ctx, train.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.PredictBatch(ctx, train.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePreds(t, "rebound-table PredictBatch", want, got)
}

// TestOptimizeDoesNotMutateCallerModel pins the train-a-Fresh-clone fix:
// the caller's model stays untrained, and optimizing the same pipeline
// twice yields identical results.
func TestOptimizeDoesNotMutateCallerModel(t *testing.T) {
	ctx := context.Background()
	m := NewLogistic(LinearConfig{Epochs: 3, Seed: 1})
	pipe, err := NewPipeline().
		Input("x").
		Node("stats", NumericStats(), "x").
		Model(m).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	train := twoColumnData(64)
	o1, _, err := Optimize(ctx, pipe, train, Dataset{})
	if err != nil {
		t.Fatalf("first Optimize: %v", err)
	}
	if m.NumFeatures() != 0 {
		t.Fatalf("caller's model was trained in place (NumFeatures = %d)", m.NumFeatures())
	}
	o2, _, err := Optimize(ctx, pipe, train, Dataset{})
	if err != nil {
		t.Fatalf("second Optimize: %v", err)
	}
	p1, err := o1.PredictBatch(ctx, train.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := o2.PredictBatch(ctx, train.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePreds(t, "repeated Optimize", p1, p2)
}

func TestOptimizeValidatesDatasets(t *testing.T) {
	ctx := context.Background()
	pipe := buildSlowPipeline(t, 0)
	ragged := Dataset{
		Inputs: Inputs{
			"x": Floats([]float64{1, 2, 3}),
			"y": Floats([]float64{1, 2}),
		},
		Y: []float64{0, 1, 0},
	}
	_, _, err := Optimize(ctx, pipe, ragged, Dataset{})
	if err == nil || !strings.HasPrefix(err.Error(), "willump:") {
		t.Fatalf("Optimize(ragged) = %v, want willump:-prefixed error", err)
	}
	if !strings.Contains(err.Error(), "rows") {
		t.Errorf("error %q does not describe the column mismatch", err)
	}

	mislabeled := Dataset{
		Inputs: Inputs{"x": Floats([]float64{1, 2, 3})},
		Y:      []float64{0, 1},
	}
	_, _, err = Optimize(ctx, pipe, mislabeled, Dataset{})
	if err == nil || !strings.Contains(err.Error(), "labels") {
		t.Fatalf("Optimize(mislabeled) = %v, want label-mismatch error", err)
	}

	// Ragged validation sets are rejected too.
	good := twoColumnData(16)
	_, _, err = Optimize(ctx, pipe, good, ragged)
	if err == nil || !strings.Contains(err.Error(), "validation") {
		t.Fatalf("Optimize(good, ragged valid) = %v, want validation-dataset error", err)
	}
}

func TestWithWorkersClampsNegative(t *testing.T) {
	got := resolveOptions(WithWorkers(-4))
	if got.Workers != 0 {
		t.Errorf("WithWorkers(-4) resolved to %d workers, want 0", got.Workers)
	}
}

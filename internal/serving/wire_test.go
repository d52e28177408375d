package serving

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"willump/internal/adapt"
	"willump/internal/admission"
	"willump/internal/cache"
	"willump/internal/core"
	"willump/internal/metrics"
	"willump/internal/ops"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite wire protocol golden files")

// goldenCheck marshals v (indented, stable key order) and compares it
// byte-for-byte against the named golden file, then decodes the golden file
// back into a fresh instance and compares structs — pinning both directions
// of the wire format the way the artifact header test pins its encoding.
func goldenCheck[T any](t *testing.T, name string, v T) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire encoding drifted from %s:\n got: %s\nwant: %s", path, got, want)
	}
	var back T
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatalf("decoding golden: %v", err)
	}
	if !reflect.DeepEqual(back, v) {
		t.Errorf("golden round trip drifted:\n got: %+v\nwant: %+v", back, v)
	}
	// The client half: what a decoder of the golden bytes holds encodes back
	// to the same bytes.
	again, err := json.MarshalIndent(back, "", "  ")
	if err != nil {
		t.Fatalf("re-encoding decoded golden: %v", err)
	}
	if again = append(again, '\n'); !bytes.Equal(again, want) {
		t.Errorf("decode then re-encode of %s drifted:\n got: %s\nwant: %s", path, again, want)
	}
}

func TestWireRequestGolden(t *testing.T) {
	th := 0.85
	req := wireRequest{
		Inputs: map[string]wireColumn{
			"title": {Kind: "strings", Strings: []string{"abc", "def"}},
			"score": {Kind: "floats", Floats: []float64{1.5, -2.25}},
			"id":    {Kind: "ints", Ints: []int64{7, 8}},
		},
		Options: &wireOptions{
			CascadeThreshold: &th,
			K:                10,
			Budget:           200,
			Point:            false,
			DeadlineMillis:   1500,
		},
	}
	goldenCheck(t, "wire_request_options.golden.json", req)
}

// TestWireRequestLegacyGolden pins the pre-options request shape: a request
// without per-request options must serialize with no options key at all, so
// new clients speak byte-identically to old servers.
func TestWireRequestLegacyGolden(t *testing.T) {
	req := wireRequest{
		Inputs: map[string]wireColumn{
			"x": {Kind: "floats", Floats: []float64{1, 2, 3}},
		},
	}
	goldenCheck(t, "wire_request_legacy.golden.json", req)
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("options")) {
		t.Errorf("zero-option request leaks an options field: %s", raw)
	}
}

func TestWireResponseGolden(t *testing.T) {
	goldenCheck(t, "wire_response_predictions.golden.json",
		wireResponse{Predictions: []float64{0.25, 0.75}})
	goldenCheck(t, "wire_response_indices.golden.json",
		wireResponse{Indices: []int{4, 1, 3}})
	goldenCheck(t, "wire_response_error.golden.json",
		wireResponse{Error: "serving: empty request"})
}

// The read routes' goldens below are built from the types the server
// serializes and the client decodes into — ModelInfo, ModelStats with the
// producers' own section snapshots, RequestTrace — so they pin what is
// served, not a mirror of it.

func TestWireModelListGolden(t *testing.T) {
	goldenCheck(t, "wire_models.golden.json", wireModelList{Models: []ModelInfo{
		{
			Name: "toxic", Version: "v2", Default: true,
			Inputs: []string{"comment"}, Cascade: true, CascadeThreshold: 0.7, TopK: true,
		},
		{Name: "product", Version: "v1", Inputs: []string{"title"}},
	}})
}

// ms is a (possibly fractional) millisecond count as a duration.
func ms(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }

// millis is ms for the snapshots' wire-typed durations.
func millis(f float64) metrics.Millis { return metrics.Millis(ms(f)) }

func TestWireStatsGolden(t *testing.T) {
	goldenCheck(t, "wire_stats.golden.json", ModelStats{
		Model: "toxic", Version: "v2",
		Requests: 1200, Errors: 3, Rejected: 17, QPS: 56.5,
		LatencyP50: ms(1.25), LatencyP90: ms(4.5), LatencyP99: ms(12.75),
		CascadeTotal: 4800, CascadeSmallOnly: 4100, CascadeHitRate: 0.8541666666666666,
	})
	// Stats of a deployment with none of the optional features leak none of
	// their blocks, nor the p999 quantile at zero: they serialize
	// byte-identically to servers that predate each.
	raw, err := json.Marshal(ModelStats{Model: "toxic", Version: "v5"})
	if err != nil {
		t.Fatal(err)
	}
	for _, leak := range []string{"p999", "cascade", "feature_cache", "feature_store", "admission", "adaptation", "recent_slow"} {
		if bytes.Contains(raw, []byte(leak)) {
			t.Errorf("bare stats leak %q: %s", leak, raw)
		}
	}
}

// TestWireStatsFeatureCacheGolden pins the stats shape for a model whose
// pipeline carries feature-level caches.
func TestWireStatsFeatureCacheGolden(t *testing.T) {
	goldenCheck(t, "wire_stats_feature_cache.golden.json", ModelStats{
		Model: "music", Version: "v5",
		Requests: 900, QPS: 12.25,
		LatencyP50: ms(0.5), LatencyP90: ms(1.5), LatencyP99: ms(3.75),
		FeatureCache: &FeatureCacheStats{
			Stats:   cache.Stats{Hits: 8000, Misses: 2000, Evictions: 450, Coalesced: 120, Rejected: 1300},
			HitRate: 0.8,
		},
	})
}

// TestWireStatsFeatureStoreGolden pins the stats shape for a model whose
// lookup tables are backed by a remote feature-store client.
func TestWireStatsFeatureStoreGolden(t *testing.T) {
	goldenCheck(t, "wire_stats_feature_store.golden.json", ModelStats{
		Model: "credit", Version: "v3",
		Requests: 640, QPS: 9.5,
		LatencyP50: ms(1.75), LatencyP90: ms(3.25), LatencyP99: ms(8.5),
		FeatureStore: &ops.StoreStats{
			Requests: 640, Retries: 4, HedgesIssued: 31, HedgesWon: 12,
			Degraded: 2, BreakerOpens: 1, BreakerState: "closed",
			Inflight: 3, P50Millis: 0.85, P99Millis: 4.25,
		},
	})
}

// TestWireStatsTracingGolden pins the stats shape for a model with tracing
// enabled: the p999 quantile and the recent-slow list ride along.
func TestWireStatsTracingGolden(t *testing.T) {
	goldenCheck(t, "wire_stats_tracing.golden.json", ModelStats{
		Model: "toxic", Version: "v3",
		Requests: 5000, Errors: 2, QPS: 80,
		LatencyP50: ms(1), LatencyP90: ms(2.5), LatencyP99: ms(9), LatencyP999: ms(27.5),
		RecentSlow: []SlowQuery{
			{StartUnixNano: 1700000000000000000, Latency: millis(31.5), Sampled: true},
			{StartUnixNano: 1700000000100000000, Latency: millis(2.25), Err: "context deadline exceeded"},
		},
	})
}

// TestWireRequestBrownoutGolden pins the request shape carrying the PR's
// overload knobs: small-model-only scoring and a criticality class.
func TestWireRequestBrownoutGolden(t *testing.T) {
	goldenCheck(t, "wire_request_brownout.golden.json", wireRequest{
		Inputs: map[string]wireColumn{
			"x": {Kind: "floats", Floats: []float64{1.5}},
		},
		Options: &wireOptions{SmallOnly: true, Criticality: "high"},
	})
}

// TestWireResponseDegradedGolden pins the degraded-response shape — and that
// the marker is omitempty, so full-fidelity responses stay byte-identical to
// the legacy goldens above.
func TestWireResponseDegradedGolden(t *testing.T) {
	goldenCheck(t, "wire_response_degraded.golden.json",
		wireResponse{Predictions: []float64{0.5}, Degraded: "small-only"})
	raw, err := json.Marshal(wireResponse{Predictions: []float64{0.25, 0.75}})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("degraded")) {
		t.Errorf("full-fidelity response leaks a degraded field: %s", raw)
	}
}

// TestWireStatsAdmissionGolden pins the stats shape for a model under SLO
// admission control.
func TestWireStatsAdmissionGolden(t *testing.T) {
	goldenCheck(t, "wire_stats_admission.golden.json", ModelStats{
		Model: "toxic", Version: "v4",
		Requests: 20000, Errors: 12, Rejected: 340, QPS: 410.5,
		LatencyP50: ms(1.5), LatencyP90: ms(4.25), LatencyP99: ms(9.75),
		Admission: &admission.Snapshot{
			SLO: millis(10), Limit: 96, Inflight: 41, Level: admission.LevelDegrade,
			ShedPredicted: 220, ShedLimit: 85, ShedBrownout: 35,
			Expired: 14, DegradedSmallOnly: 1200, DegradedBudget: 90,
			DegradedCache: 310, ForecastService: millis(2.25),
			ForecastError: millis(0.75), PressureRatio: 0.95,
		},
	})
	// Options without overload knobs must not leak the new fields either.
	raw, err := json.Marshal(wireOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, leak := range []string{"small_only", "criticality"} {
		if bytes.Contains(raw, []byte(leak)) {
			t.Errorf("legacy options leak %q: %s", leak, raw)
		}
	}
}

// TestWireStatsAdaptationGolden pins the stats shape for a model with
// online adaptation enabled, mid-canary.
func TestWireStatsAdaptationGolden(t *testing.T) {
	goldenCheck(t, "wire_stats_adaptation.golden.json", ModelStats{
		Model: "toxic", Version: "v5",
		Requests: 48000, Errors: 9, QPS: 520.25,
		LatencyP50: ms(1.25), LatencyP90: ms(3.5), LatencyP99: ms(8.25),
		Adaptation: &adapt.Snapshot{
			State: "canarying", CanaryTag: "adapt-3", CanaryFraction: 0.1,
			Sampled: 6000, ShadowDropped: 14, ReservoirRows: 512,
			KeyReuseObserved: 0.31, KeyReuseExpected: 0.88,
			ScorePH: 0.12, ScoreKS: 0.04,
			KeyDrift: true, KeyDriftEvents: 3, ScoreDriftEvents: 1,
			Refits: 3, Canaries: 3, Promotions: 1, Rollbacks: 1,
			LastRollback: "guard regression",
		},
	})
}

// TestWireTracesGolden pins the GET /v1/traces shape: a head-sampled trace
// with stage spans and a tail-sampled entry with totals only.
func TestWireTracesGolden(t *testing.T) {
	goldenCheck(t, "wire_traces.golden.json", wireTraceList{Traces: []RequestTrace{
		{
			ID: 42, Model: "toxic", StartUnixNano: 1700000000000000000,
			Total: millis(3.5), Sampled: true,
			Spans: []TraceSpan{
				{Stage: "queue:wait", Offset: 0, Dur: millis(0.125)},
				{Stage: "ifv:0", Offset: millis(0.125), Dur: millis(1.5)},
				{Stage: "model:score", Offset: millis(1.75), Dur: millis(0.5)},
			},
		},
		{
			Model: "toxic", StartUnixNano: 1700000000200000000,
			Total: millis(42.5), Err: "context canceled",
		},
	}})
}

// TestWireOptionsConversion checks the wire <-> core options mapping both
// ways, including the nil (no overrides) fast path.
func TestWireOptionsConversion(t *testing.T) {
	po, err := (*wireOptions)(nil).toPredictOptions()
	if err != nil || !po.IsZero() {
		t.Fatalf("nil options = %+v, %v; want zero", po, err)
	}
	if w := fromPredictOptions(core.PredictOptions{}); w != nil {
		t.Fatalf("zero options encoded as %+v, want nil", w)
	}
	th := 0.6
	in := core.ResolvePredict(
		core.WithCascadeThreshold(th),
		core.WithTopKBudget(42),
		core.WithPointQuery(),
		core.WithPredictDeadline(250*1e6), // 250ms
	)
	w := fromPredictOptions(in)
	back, err := w.toPredictOptions()
	if err != nil {
		t.Fatal(err)
	}
	if *back.CascadeThreshold != th || back.Budget != 42 || !back.Point || back.Deadline != 250*1e6 {
		t.Errorf("round trip = %+v, want %+v", back, in)
	}
	// Sub-millisecond deadlines survive the wire exactly.
	sub := fromPredictOptions(core.ResolvePredict(core.WithPredictDeadline(500 * 1e3))) // 500us
	subBack, err := sub.toPredictOptions()
	if err != nil {
		t.Fatal(err)
	}
	if subBack.Deadline != 500*1e3 {
		t.Errorf("sub-ms deadline round trip = %v, want 500us", subBack.Deadline)
	}
	// Invalid options are rejected at the boundary.
	if _, err := (&wireOptions{K: -1}).toPredictOptions(); err == nil {
		t.Error("negative k accepted")
	}
	if _, err := (&wireOptions{DeadlineMillis: -5}).toPredictOptions(); err == nil {
		t.Error("negative deadline accepted")
	}
}

// TestWireUnknownFieldsIgnored: older servers must tolerate requests from
// newer clients that add optional fields.
func TestWireUnknownFieldsIgnored(t *testing.T) {
	raw := []byte(`{"inputs":{"x":{"kind":"floats","floats":[1]}},"options":{"k":3,"future_knob":true},"future_field":1}`)
	var req wireRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		t.Fatalf("decoding forward-compatible request: %v", err)
	}
	if req.Options == nil || req.Options.K != 3 {
		t.Errorf("options = %+v, want k=3", req.Options)
	}
	if _, _, err := decodeInputs(req.Inputs); err != nil {
		t.Errorf("decodeInputs: %v", err)
	}
}

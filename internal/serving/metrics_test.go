package serving

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"willump/internal/adapt"
	"willump/internal/admission"
	"willump/internal/cache"
	"willump/internal/observ"
	"willump/internal/ops"
)

func renderMetrics(t *testing.T, serverRequests int64, snaps []modelMetrics) []byte {
	t.Helper()
	var buf bytes.Buffer
	mw := observ.NewWriter(&buf)
	writeMetrics(mw, serverRequests, snaps)
	if err := mw.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMetricsGolden pins the /metrics exposition — family names, help text,
// types, label sets, order and number formatting — for one fixed snapshot of
// two models: "full" with every stats section populated, "bare" with none
// (and no batching counters, as between an undeploy and the scrape). The
// golden was captured from the renderer that preceded the family table (one
// hand-written loop per family) over this same snapshot; since then it gained
// only willump_store_hedges_issued_total, willump_store_breaker_opens_total
// and willump_feature_cache_rejected_total.
// Tracer-fed families need a live tracer's clock and are covered by
// TestMetricsEndpoint instead.
func TestMetricsGolden(t *testing.T) {
	batching := &batchStats{}
	batching.inline.Store(900)
	batching.mergedBatches.Store(70)
	batching.mergedRows.Store(300)
	batching.waits.Store(11)
	got := renderMetrics(t, 1234, []modelMetrics{
		{stats: ModelStats{
			Model: "bare", Version: "v1", Requests: 9, QPS: 0.15,
			LatencyP50: ms(0.8), LatencyP90: ms(0.9), LatencyP99: ms(0.95),
		}, queueCap: 64},
		{stats: ModelStats{
			Model: "full", Version: "v7",
			Requests: 1200, Errors: 3, Rejected: 17, QPS: 56.5,
			LatencyP50: ms(1.25), LatencyP90: ms(4.5), LatencyP99: ms(12.75), LatencyP999: ms(27.5),
			CascadeTotal: 4800, CascadeSmallOnly: 4100, CascadeHitRate: 0.8541666666666666,
			FeatureCache: &FeatureCacheStats{
				Stats:   cache.Stats{Hits: 8000, Misses: 2000, Evictions: 450, Coalesced: 120, Rejected: 1300},
				HitRate: 0.8,
			},
			FeatureStore: &ops.StoreStats{
				Requests: 640, Retries: 4, HedgesIssued: 31, HedgesWon: 12,
				Degraded: 2, BreakerOpens: 1, BreakerState: "half-open", Inflight: 3,
				P50Millis: 0.5, P99Millis: 4.25,
			},
			Admission: &admission.Snapshot{
				Enabled: true, SLO: millis(10), Limit: 96, Inflight: 41, Level: admission.LevelDegrade,
				ShedPredicted: 220, ShedLimit: 85, ShedBrownout: 35, Expired: 14,
				DegradedSmallOnly: 1200, DegradedBudget: 90, DegradedCache: 310,
				ForecastService: millis(2.25), ForecastError: millis(0.75), PressureRatio: 0.95,
			},
			Adaptation: &adapt.Snapshot{
				State: "canarying", CanaryTag: "adapt-3", CanaryFraction: 0.1,
				Sampled: 6000, ShadowDropped: 14, ReservoirRows: 512,
				KeyReuseObserved: 0.31, KeyReuseExpected: 0.88, ScorePH: 0.12, ScoreKS: 0.04,
				KeyDrift: true, KeyDriftEvents: 3, ScoreDriftEvents: 1,
				Refits: 4, Canaries: 2, Promotions: 1, Rollbacks: 5, CanaryErrors: 6,
				LastRollback: "guard regression",
			},
			RecentSlow: []SlowQuery{{StartUnixNano: 1700000000000000000, Latency: millis(31.5), Sampled: true}},
		}, queueLen: 5, queueCap: 1024, inflight: 2, batching: batching},
	})
	const path = "testdata/metrics.golden.txt"
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/metrics exposition drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// notExported lists, by JSON path, the numeric /stats fields that have no
// /metrics series, each with the reason. (Strings have no sample value: model
// and version are labels at most, state strings are exported as coded
// gauges.) A numeric field with neither a family row nor an entry here fails
// TestStatsFieldsReachMetrics.
var notExported = map[string]string{
	"cascade.hit_rate":            "a ratio of two exported counters; rates are taken by the scraper",
	"feature_cache.hit_rate":      "a ratio of two exported counters; rates are taken by the scraper",
	"admission.slo_ms":            "configuration, constant for the life of the deployment",
	"admission.forecast_error_ms": "the forecast's padding term; only the forecast itself is a series so far",
	"adaptation.canary_fraction":  "configuration of the in-flight canary, not a measurement",
	"adaptation.shadow_dropped":   "sampler back-pressure detail; sampled_total is the series",
	"adaptation.reservoir_rows":   "re-fit buffer fill, bounded by configuration",
	"adaptation.canary_errors":    "canary hook failures surface as rollbacks, which are counted",
	"recent_slow.start_unix_nano": "a per-request record, not a time series (see /v1/traces)",
	"recent_slow.latency_ms":      "a per-request record, not a time series (see /v1/traces)",
}

// TestStatsFieldsReachMetrics holds /stats and /metrics to the same list of
// facts. Every numeric field of ModelStats and of the section snapshots it
// points to is set to its own sentinel by reflection, so a field added
// tomorrow is covered without touching this test; the stats are rendered
// both ways; and each number in the JSON must appear as a sample in the
// exposition (as is, or a *_ms value in seconds) or be on notExported.
func TestStatsFieldsReachMetrics(t *testing.T) {
	var st ModelStats
	next := int64(1000)
	fillNumeric(reflect.ValueOf(&st).Elem(), &next)
	if st.Admission == nil || st.Adaptation == nil || st.FeatureStore == nil || st.FeatureCache == nil || len(st.RecentSlow) != 1 {
		t.Fatalf("reflection did not populate every section: %+v", st)
	}

	samples := make(map[float64]bool)
	for _, line := range strings.Split(string(renderMetrics(t, 0, []modelMetrics{{stats: st}})), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		samples[v] = true
	}
	exported := func(x float64) bool {
		for v := range samples {
			if math.Abs(v-x) <= 1e-9*math.Abs(x) {
				return true
			}
		}
		return false
	}

	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var tree map[string]any
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	seen := 0
	stale := make(map[string]bool, len(notExported))
	for path := range notExported {
		stale[path] = true
	}
	var walk func(path string, node any)
	walk = func(path string, node any) {
		switch n := node.(type) {
		case map[string]any:
			for k, child := range n {
				walk(strings.TrimPrefix(path+"."+k, "."), child)
			}
		case []any:
			for _, child := range n {
				walk(path, child)
			}
		case float64:
			seen++
			found := exported(n) || (strings.HasSuffix(path, "_ms") || strings.HasPrefix(path, "latency_ms.")) && exported(n/1e3)
			reason, listed := notExported[path]
			delete(stale, path)
			switch {
			case !found && !listed:
				t.Errorf("/stats field %s is on no /metrics family: add a row to families, or put it on notExported with the reason", path)
			case found && listed:
				t.Errorf("/stats field %s is exported but still on notExported (%q)", path, reason)
			}
		}
	}
	walk("", tree)
	for path := range stale {
		t.Errorf("notExported lists %s, which is not a numeric /stats field", path)
	}
	// The sentinels must have reached the JSON: one per numeric field.
	if want := int(next - 1000); seen != want {
		t.Errorf("JSON carries %d numbers for %d numeric fields; an omitted or untagged field escapes this test", seen, want)
	}
}

// fillNumeric sets every integer and float field reachable from v — through
// nil pointers (allocated) and slices (given one element) — to a distinct
// value, counting up from *next.
func fillNumeric(v reflect.Value, next *int64) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(*next)
		*next++
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*next))
		*next++
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*next))
		*next++
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNumeric(v.Elem(), next)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillNumeric(v.Index(0), next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNumeric(v.Field(i), next)
		}
	}
}

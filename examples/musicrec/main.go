// MusicRec: the paper's Figure 1 scenario end-to-end. A music
// recommendation pipeline looks up user, song, genre, artist, and context
// features in remote key-value stores (our Redis stand-in), concatenates
// them, and predicts with gradient-boosted trees whether the user will like
// the song.
//
// The example contrasts four serving configurations over the same Zipf-
// skewed query stream — unoptimized, feature-level caching, cascades, and
// both — and reports remote requests and mean latency for each, the
// measurements behind the paper's Tables 2 and 3.
//
// Run with: go run ./examples/musicrec
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"willump"
	"willump/internal/pipeline"
)

func main() {
	ctx := context.Background()
	const remoteLatency = 500 * time.Microsecond

	type result struct {
		config   string
		requests int64
		latency  time.Duration
	}
	var results []result
	var baseline int64

	for _, cfg := range []struct {
		name  string
		opts  []willump.Option
		notes string
	}{
		{"unoptimized", nil, "every query fetches all five tables"},
		{"feature-cache", []willump.Option{willump.WithFeatureCache(0)},
			"per-IFV cache keyed by user/song/... ids"},
		{"cascades", []willump.Option{willump.WithCascades(0.01)},
			"easy queries skip the expensive tables"},
		{"cache+cascades", []willump.Option{willump.WithFeatureCache(0), willump.WithCascades(0.01)},
			"both"},
	} {
		backend := &pipeline.RemoteBackend{Latency: remoteLatency}
		bench, err := pipeline.Music(pipeline.Config{Seed: 11, N: 2400, Backend: backend})
		if err != nil {
			log.Fatal(err)
		}
		optimized, _, err := willump.Optimize(ctx, bench.Pipeline, bench.Train, bench.Valid, cfg.opts...)
		if err != nil {
			log.Fatal(err)
		}

		// Serve 300 single-song queries, like an interactive recommender.
		n := 300
		queries := make([]willump.Dataset, n)
		for i := 0; i < n; i++ {
			queries[i] = bench.Test.Row(i)
		}
		before := bench.TotalTableRequests()
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := optimized.PredictBatch(ctx, queries[i].Inputs); err != nil {
				log.Fatal(err)
			}
		}
		elapsed := time.Since(start)
		requests := bench.TotalTableRequests() - before
		if cfg.name == "unoptimized" {
			baseline = requests
		}
		results = append(results, result{cfg.name, requests, elapsed / time.Duration(n)})
		fmt.Printf("%-15s %s\n", cfg.name, cfg.notes)
		bench.Close()
	}

	fmt.Printf("\n%-15s %15s %12s %14s\n", "config", "remote reqs", "reduction", "mean latency")
	for _, r := range results {
		red := 100 * (1 - float64(r.requests)/float64(baseline))
		fmt.Printf("%-15s %15d %11.1f%% %14s\n",
			r.config, r.requests, red, r.latency.Round(10*time.Microsecond))
	}
}

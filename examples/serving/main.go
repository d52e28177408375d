// Serving: host a Willump-optimized pipeline behind the Clipper-like model
// serving frontend (paper section 6.3, Table 6).
//
// The example starts two HTTP serving frontends over the same Product
// pipeline — one hosting the unoptimized interpreted pipeline (what a
// black-box serving system sees), one hosting the Willump-optimized pipeline
// (compiled + cascades) — and compares end-to-end RPC latency at increasing
// client batch sizes. Improvement grows with batch size as the frontend's
// fixed RPC overheads amortize while Willump shrinks per-row compute.
//
// Run with: go run ./examples/serving
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

	bench, err := pipeline.Product(pipeline.Config{Seed: 17, N: 4000})
	if err != nil {
		log.Fatal(err)
	}
	defer bench.Close()

	optimized, report, err := willump.Optimize(ctx, bench.Pipeline, bench.Train, bench.Valid,
		willump.WithCascades(0.01))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline optimized: cascade=%v threshold=%.1f\n",
		report.CascadeBuilt, report.CascadeThreshold)

	// Frontend A: Clipper alone — the unoptimized pipeline as a black box.
	clipper, err := willump.NewPredictorServer(willump.PredictorFunc(optimized.PredictInterpreted), willump.ServeOptions{})
	if err != nil {
		log.Fatal(err)
	}
	clipperURL, err := clipper.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer clipper.Close()

	// Frontend B: the same frontend hosting the Willump-optimized pipeline.
	optimizedFrontend := willump.Serve(optimized, willump.ServeOptions{})
	willumpURL, err := optimizedFrontend.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer optimizedFrontend.Close()

	measure := func(url string, batch int) time.Duration {
		cli := willump.NewClient(url)
		const reps = 20
		// Warmup.
		if _, err := cli.Predict(ctx, bench.Test.Gather(rows(0, batch)).Inputs); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			off := (i * batch) % (bench.Test.Len() - batch)
			if _, err := cli.Predict(ctx, bench.Test.Gather(rows(off, batch)).Inputs); err != nil {
				log.Fatal(err)
			}
		}
		return time.Since(start) / reps
	}

	fmt.Printf("\n%8s %16s %18s %10s\n", "batch", "clipper", "clipper+willump", "speedup")
	for _, batch := range []int{1, 10, 100} {
		c := measure(clipperURL, batch)
		w := measure(willumpURL, batch)
		fmt.Printf("%8d %16s %18s %9.1fx\n", batch,
			c.Round(10*time.Microsecond), w.Round(10*time.Microsecond),
			float64(c)/float64(w))
	}

	// The statistically-aware knobs are per-request serving parameters: a
	// client can override the cascade confidence threshold on one call
	// (threshold 2.0 = route everything to the full model), and read the
	// frontend's per-model telemetry.
	cli := willump.NewClient(willumpURL)
	feed := bench.Test.Gather(rows(0, 100)).Inputs
	cascaded, err := cli.PredictModel(ctx, "default", feed)
	if err != nil {
		log.Fatal(err)
	}
	fullOnly, err := cli.PredictModel(ctx, "default", feed, willump.WithThreshold(2.0))
	if err != nil {
		log.Fatal(err)
	}
	changed := 0
	for i := range cascaded {
		if cascaded[i] != fullOnly[i] {
			changed++
		}
	}
	stats, err := cli.Stats(ctx, "default")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nper-request threshold override (t_c=2.0) changed %d/%d predictions\n", changed, len(cascaded))
	fmt.Printf("frontend stats: requests=%d p50=%s p99=%s cascade hit rate=%.2f\n",
		stats.Requests, stats.LatencyP50.Round(10*time.Microsecond),
		stats.LatencyP99.Round(10*time.Microsecond), stats.CascadeHitRate)
}

func rows(start, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = start + i
	}
	return out
}

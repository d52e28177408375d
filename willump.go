// Package willump is the public API of this repository: a statistically-aware
// end-to-end optimizer for machine learning inference pipelines, after
// "Willump: A Statistically-Aware End-to-end Optimizer for Machine Learning
// Inference" (MLSys 2020).
//
// A user describes an inference pipeline with the fluent PipelineBuilder —
// raw inputs, feature-transformation nodes, and a model — and hands it to
// Optimize together with training and validation data:
//
//	pipe, err := willump.NewPipeline().
//		Input("review").
//		Node("clean", willump.Clean(), "review").
//		Node("tfidf", willump.TFIDF(800, willump.NormL2), "clean").
//		Node("stats", willump.TextStats(keywords), "review").
//		Node("features", willump.Concat(), "tfidf", "stats").
//		Model(willump.NewLogistic(willump.LinearConfig{Epochs: 8})).
//		Build()
//	...
//	optimized, report, err := willump.Optimize(ctx, pipe, train, valid,
//		willump.WithCascades(0.001), willump.WithFeatureCache(1<<16))
//
// Optimize runs the paper's three stages — dataflow analysis (independent
// feature vectors, feature generators, preprocessing), statistically-aware
// optimization (end-to-end cascades, top-K filter models, feature caching,
// query-aware parallelization), and compilation (block sorting, operator
// fusion) — and returns an Optimized pipeline with query-modality entry
// points: PredictBatch, PredictPoint, and TopK. Every execution entry point
// takes a context.Context; cancellation and deadlines are observed between
// the compiled plan's graph blocks, so long batches abort promptly.
//
// # Train once, deploy many
//
// The pipeline lifecycle has two phases. The optimization phase — dataflow
// analysis, model training, cascade tuning, top-K filter construction —
// runs once, offline, wherever the training data lives. Its product is a
// versioned, self-contained Artifact:
//
//	if err := willump.SaveFile(optimized, "pipeline.willump"); err != nil { ... }
//
// The serving phase then loads the artifact in any number of fresh
// processes, with no access to training data: Load decodes every fitted
// operator and trained model, recompiles the weld program in-process, and
// reassembles the cascade and top-K filter, yielding predictions
// bit-identical to the pipeline Save captured:
//
//	optimized, err := willump.LoadFile("pipeline.willump")
//
// The willump-serve binary is the packaged form of the serving phase: it
// loads an artifact file and hosts it behind the HTTP serving frontend.
// Custom operators and models participate in artifacts through RegisterOp
// and RegisterModel; lookup tables in remote stores are rebound at load
// time with WithTableBinding.
//
// # Serving many models
//
// The serving frontend is organized around a model Registry: many named,
// versioned pipelines hosted behind one server, each with its own bounded
// request queue, adaptive batching, and telemetry:
//
//	reg := willump.NewRegistry()
//	reg.Deploy("toxic", "v1", optimized)
//	reg.Deploy("product", "v3", other)
//	srv := willump.ServeRegistry(reg)
//	url, err := srv.Start()
//
// Models are served on /v1/models/{name}/predict and /v1/models/{name}/topk,
// listed on /v1/models, and observed on /v1/models/{name}/stats (QPS,
// latency quantiles, cascade hit rate); the legacy /predict route serves the
// registry's default model unchanged. Deploying a new version of a live
// model hot-swaps it atomically: the old version finishes the work it
// admitted while new requests land on the new version, so a rollout
// loses no requests. Overload is handled by bounded-queue admission control:
// a full queue rejects with HTTP 429, which Client surfaces as the
// retryable ErrOverloaded.
//
// Per-request options carry Willump's statistically-aware knobs to the
// serving boundary: WithThreshold overrides the cascade confidence
// threshold, WithBudget the top-K filter's candidate budget, WithPointQuery
// selects the example-at-a-time path, and WithDeadline bounds server-side
// execution — per request, in process or over HTTP, with no-override calls
// bit-identical to the Optimize-time defaults.
//
// The single-model Serve / NewServer surface remains for hosting one
// pipeline (or any Predictor) as the default model.
//
// Everything under internal/ is implementation; this package is the one
// supported import path.
package willump

import (
	"context"
	"fmt"

	"willump/internal/core"
	"willump/internal/graph"
	"willump/internal/model"
	"willump/internal/value"
)

// Pipeline is an unoptimized ML inference pipeline: a transformation graph
// from raw inputs to a feature vector, plus the model that consumes it.
// Construct one with NewPipeline.
type Pipeline = core.Pipeline

// Dataset pairs pipeline inputs (named columns) with labels.
type Dataset = core.Dataset

// Report summarizes what Optimize did.
type Report = core.Report

// Optimized is an optimized pipeline: same logical signature as the input
// pipeline (raw inputs to predictions), with context-aware entry points per
// query modality (PredictBatch, PredictPoint, TopK).
type Optimized = core.Optimized

// Op is a feature transformation operator: one node of a pipeline's
// transformation graph. The constructors in this package (TFIDF, Lookup,
// Concat, ...) cover the paper's benchmark operators; custom operators
// implement the interface directly.
type Op = graph.Op

// Model is a trainable model executed on the pipeline's feature vector.
type Model = model.Model

// Value is one named input column of a pipeline: a batch of strings, floats,
// or ints. Construct with Strings, Floats, or Ints.
type Value = value.Value

// Inputs is a convenience alias for a named batch of input columns.
type Inputs = map[string]value.Value

// Optimize trains and optimizes a pipeline end-to-end, applying the
// optimizations selected by the functional options (none by default: the
// pipeline is still compiled, profiled, and trained). The context bounds the
// whole optimization; cancelling it aborts between graph blocks.
//
// Optimize validates both datasets' shapes (every column the same length,
// labels matching) before touching the pipeline, and never trains the
// caller's Model in place: the model stored in the returned Optimized is a
// fresh clone, so optimizing the same Pipeline repeatedly on the same data
// yields independent, identical results. Stateful operators, however, live
// in the Pipeline's graph and are fitted once on first use — to optimize
// the same topology on different training data, build a new Pipeline (its
// operator constructors are cheap), and do not call Optimize concurrently
// on one Pipeline value.
func Optimize(ctx context.Context, p *Pipeline, train, valid Dataset, opts ...Option) (*Optimized, *Report, error) {
	if err := train.Validate(); err != nil {
		return nil, nil, fmt.Errorf("willump: invalid training dataset: %w", err)
	}
	if err := valid.Validate(); err != nil {
		return nil, nil, fmt.Errorf("willump: invalid validation dataset: %w", err)
	}
	return core.Optimize(ctx, p, train, valid, resolveOptions(opts...))
}

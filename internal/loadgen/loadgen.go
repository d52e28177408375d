// Package loadgen is Willump's trace-driven load-generation subsystem: it
// drives the real HTTP serving tier with open-loop arrivals over realistic
// key-popularity distributions, and measures what closed-loop
// micro-benchmarks structurally cannot — queueing delay, tail latency, and
// error budgets under overload, flash crowds, store failures, and
// mid-flight redeploys.
//
// The pieces compose:
//
//   - Arrivals generate a request schedule independent of response latency
//     (Poisson, deterministic steady-rate, and piecewise-linear QPS curves
//     for flash crowds and diurnal replays).
//   - Keys generate the per-request lookup key (Zipfian, hotset, uniform).
//   - A Stream zips the two into scheduled events, and the on-disk trace
//     format records any stream for bit-identical replay.
//   - Run executes a Scenario: a dispatcher emits events at their scheduled
//     times into a queue sized to hold the entire schedule (so a slow
//     server can never throttle offered load), a fixed-concurrency worker
//     pool issues the requests, and latency is measured from each event's
//     scheduled start — the coordinated-omission-corrected, open-loop
//     measure that charges queueing delay to the server.
//   - Chaos hooks fire at scheduled offsets inside a run (store tail
//     injection, connection drops, zero-downtime hot swap, server drain),
//     and each scenario declares an error Budget the report is checked
//     against.
//   - Reports carry p50/p99/p999 (metrics.Hist, the histogram the serving
//     tier's own stats read) and shed/degraded/error counts.
package loadgen

package trace

import (
	"time"

	"willump/internal/metrics"
)

// histBounds are the fixed latency bucket upper bounds of the /metrics
// exposition, Prometheus-style (each bucket counts observations <= bound;
// an implicit +Inf bucket catches the rest). The range spans 10µs..2.5s:
// compiled point queries land in the first buckets, remote-feature batch
// queries in the last. The tracer records into metrics.Hist; these bounds
// only choose where its fine buckets are folded for exposition.
var histBounds = []time.Duration{
	10 * time.Microsecond, 25 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2500 * time.Millisecond,
}

// histBoundsSeconds mirrors histBounds in seconds, the exposition's unit.
var histBoundsSeconds = func() []float64 {
	s := make([]float64, len(histBounds))
	for i, b := range histBounds {
		s[i] = b.Seconds()
	}
	return s
}()

// HistSnapshot is a point-in-time copy of a histogram in Prometheus terms:
// Bounds in seconds, Counts per bucket (non-cumulative, with the final
// element the +Inf bucket), plus the observation sum and count.
type HistSnapshot struct {
	Bounds     []float64
	Counts     []int64
	SumSeconds float64
	Count      int64
}

// snapshot folds h under histBounds. Concurrent Observes may tear between
// buckets and sum; the skew is bounded by in-flight observations.
func snapshot(h *metrics.Hist) HistSnapshot {
	return HistSnapshot{
		Bounds:     histBoundsSeconds,
		Counts:     h.CountsLE(histBounds),
		SumSeconds: h.Sum().Seconds(),
		Count:      h.Count(),
	}
}

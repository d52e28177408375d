package metrics

import (
	"sync"
	"time"
)

// Meter counts events against a sliding wall-clock window, for request
// rates (QPS). Events are accumulated into one-second buckets, so memory is
// fixed by the window length and the reported rate never saturates no
// matter how high the event rate climbs.
type Meter struct {
	mu      sync.Mutex
	window  time.Duration
	buckets []int64     // events per second-of-window
	starts  []time.Time // each bucket's second, to expire stale ones
}

// NewMeter returns a meter over a sliding window (window <= 0 defaults to
// one minute; sub-second windows are raised to one second).
func NewMeter(window time.Duration) *Meter {
	if window <= 0 {
		window = time.Minute
	}
	n := int(window / time.Second)
	if n < 1 {
		n = 1
		window = time.Second
	}
	return &Meter{window: window, buckets: make([]int64, n), starts: make([]time.Time, n)}
}

// Mark records one event at time now.
func (m *Meter) Mark(now time.Time) {
	m.mu.Lock()
	sec := now.Truncate(time.Second)
	i := int(sec.Unix()%int64(len(m.buckets))+int64(len(m.buckets))) % len(m.buckets)
	if !m.starts[i].Equal(sec) {
		m.starts[i] = sec
		m.buckets[i] = 0
	}
	m.buckets[i]++
	m.mu.Unlock()
}

// Rate returns events per second over the window ending at now.
func (m *Meter) Rate(now time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	cutoff := now.Add(-m.window)
	var total int64
	for i := range m.buckets {
		if m.starts[i].After(cutoff) && !m.starts[i].After(now) {
			total += m.buckets[i]
		}
	}
	return float64(total) / m.window.Seconds()
}

package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestMeterRate(t *testing.T) {
	base := time.Unix(1000, 0)
	m := NewMeter(10 * time.Second)
	for i := 0; i < 50; i++ {
		m.Mark(base.Add(time.Duration(i) * 100 * time.Millisecond))
	}
	// All 50 events fall within the 10s window: 5 events/sec.
	if got := m.Rate(base.Add(5 * time.Second)); got != 5 {
		t.Errorf("Rate = %v, want 5", got)
	}
	// 20s later every event has aged out.
	if got := m.Rate(base.Add(25 * time.Second)); got != 0 {
		t.Errorf("Rate after window = %v, want 0", got)
	}
}

// TestMeterHighRateNoSaturation: the bucketed meter reports true rates at
// loads far beyond what a bounded event ring could remember.
func TestMeterHighRateNoSaturation(t *testing.T) {
	base := time.Unix(2000, 0)
	m := NewMeter(10 * time.Second)
	for s := 0; s < 10; s++ {
		for i := 0; i < 10000; i++ {
			m.Mark(base.Add(time.Duration(s) * time.Second))
		}
	}
	if got := m.Rate(base.Add(9 * time.Second)); got != 10000 {
		t.Errorf("Rate = %v, want 10000 (no saturation)", got)
	}
}

// TestMeterConcurrent marks from many goroutines while readers poll the
// rate: the count must be exact and the poll data-race-free.
func TestMeterConcurrent(t *testing.T) {
	base := time.Unix(4000, 0)
	m := NewMeter(10 * time.Second)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 1000; i++ {
				m.Mark(base.Add(time.Duration(i) * time.Millisecond))
			}
		}()
	}
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if r := m.Rate(base.Add(time.Second)); r < 0 {
						t.Errorf("negative rate %v", r)
						return
					}
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	// All 8000 marks land within one second of the 10s window.
	if got := m.Rate(base.Add(5 * time.Second)); got != 800 {
		t.Errorf("Rate = %v, want 800 (8000 events / 10s)", got)
	}
}

// TestMeterBucketReuse: a bucket whose second has lapsed a full window is
// reset, not double-counted, when its slot is reused.
func TestMeterBucketReuse(t *testing.T) {
	base := time.Unix(3000, 0)
	m := NewMeter(2 * time.Second)
	m.Mark(base)
	m.Mark(base.Add(2 * time.Second)) // same slot, new second
	if got := m.Rate(base.Add(2 * time.Second)); got != 0.5 {
		t.Errorf("Rate = %v, want 0.5 (1 event / 2s window)", got)
	}
}

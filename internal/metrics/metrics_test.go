package metrics

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestThroughputPositive(t *testing.T) {
	tp, err := Throughput(1000, 2, func() error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tp <= 0 || tp > 1.1e6 {
		t.Errorf("throughput = %v rows/s, want positive and <= ~1e6", tp)
	}
}

func TestThroughputPropagatesError(t *testing.T) {
	if _, err := Throughput(1, 1, func() error { return errors.New("x") }); err == nil {
		t.Error("want error")
	}
}

func TestLatency(t *testing.T) {
	lat, err := Latency(5, func(int) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lat < 2*time.Millisecond {
		t.Errorf("latency = %v, want >= 2ms", lat)
	}
}

func TestBinomialCI(t *testing.T) {
	ci := BinomialCI(0.9, 1000)
	want := 1.96 * math.Sqrt(0.9*0.1/1000)
	if math.Abs(ci-want) > 1e-12 {
		t.Errorf("CI = %v, want %v", ci, want)
	}
	if BinomialCI(0.5, 0) != 1 {
		t.Error("CI with n=0 should be 1")
	}
}

func TestSignificantLoss(t *testing.T) {
	// 0.1% loss on 1000 samples of 90% accuracy: CI ~ 1.86%, insignificant.
	if SignificantLoss(0.90, 0.899, 1000) {
		t.Error("0.1% loss should be insignificant at n=1000")
	}
	if !SignificantLoss(0.90, 0.80, 1000) {
		t.Error("10% loss should be significant at n=1000")
	}
}

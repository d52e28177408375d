package adapt

import (
	"math"
	"testing"
)

// Synthetic streams are fully deterministic: key sequences are modular
// arithmetic, score sequences are fixed oscillations. Detection bounds
// ("within N samples") and the zero-false-positive control all run at the
// package default sensitivities.

func TestReuseDriftDetectsAbruptHotsetShift(t *testing.T) {
	const window = 128
	r := NewReuseDrift(window, 2)
	// The plan estimated 90% reuse (a skewed hot set).
	r.SetExpected(0.9)

	// Phase 1: traffic matching the plan — 8 hot keys, observed reuse
	// 1 - 8/128 = 0.9375, inside tolerance. No detection over 20 windows.
	for i := 0; i < 20*window; i++ {
		if r.Add(uint64(i % 8)) {
			t.Fatalf("false positive at sample %d of the matching phase", i)
		}
	}

	// Phase 2: abrupt shift to unique keys — observed reuse 0. The
	// detector requires 2 consecutive out-of-band windows, so detection
	// must land within 3 windows of the shift.
	detectedAt := -1
	for i := 0; i < 4*window; i++ {
		if r.Add(uint64(1_000_000 + i)) {
			detectedAt = i
			break
		}
	}
	if detectedAt < 0 {
		t.Fatal("abrupt hotset shift never detected")
	}
	if detectedAt >= 3*window {
		t.Fatalf("detection took %d samples, want < %d", detectedAt, 3*window)
	}
	obs, ok := r.Observed()
	if !ok || obs > 0.05 {
		t.Fatalf("observed reuse %.3f (ok=%v), want ~0 after unique keys", obs, ok)
	}
}

func TestReuseDriftBootstrapsBaselineWithoutPlan(t *testing.T) {
	const window = 64
	r := NewReuseDrift(window, 2)
	// No SetExpected: the first full window freezes the baseline.
	for i := 0; i < window; i++ {
		r.Add(uint64(i % 4))
	}
	exp, ok := r.Expected()
	if !ok {
		t.Fatal("baseline not frozen after first window")
	}
	if want := 1 - 4.0/window; math.Abs(exp-want) > 1e-9 {
		t.Fatalf("baseline %.4f, want %.4f", exp, want)
	}
	// Shifted traffic against the bootstrapped baseline still detects.
	detected := false
	for i := 0; i < 3*window; i++ {
		if r.Add(uint64(1_000 + i)) {
			detected = true
			break
		}
	}
	if !detected {
		t.Fatal("drift against bootstrapped baseline not detected")
	}
}

// controlScore is the drift-free score stream: a fixed oscillation around
// 0.72 (a confident classifier's typical output), mean-stationary.
func controlScore(i int) float64 {
	return 0.72 + 0.05*math.Sin(float64(i)*0.7)
}

func TestPageHinkleyDetectsGradualScoreDrift(t *testing.T) {
	ph := new(PageHinkley)
	const warm = 2_000
	for i := 0; i < warm; i++ {
		if ph.Add(controlScore(i)) {
			t.Fatalf("false positive at warmup sample %d", i)
		}
	}
	// Gradual drift: the mean score slides down 0.0005 per sample (the
	// small model losing confidence as the input distribution moves).
	detectedAt := -1
	for i := 0; i < 2_000; i++ {
		x := controlScore(warm+i) - 0.0005*float64(i)
		if ph.Add(x) {
			detectedAt = i
			break
		}
	}
	if detectedAt < 0 {
		t.Fatal("gradual score drift never detected")
	}
	if detectedAt >= 1_500 {
		t.Fatalf("detection took %d drift samples, want < 1500", detectedAt)
	}
}

func TestPageHinkleyNoFalsePositiveOnControl(t *testing.T) {
	ph := new(PageHinkley)
	for i := 0; i < 100_000; i++ {
		if ph.Add(controlScore(i)) {
			t.Fatalf("false positive on drift-free control at sample %d (score %.4f)", i, ph.Score())
		}
	}
}

func TestKSWindowDetectsDistributionShift(t *testing.T) {
	k := NewKSWindow(256)
	// Bootstrap the frozen reference from the control stream.
	for i := 0; i < 256; i++ {
		k.Add(controlScore(i))
	}
	// Fill the sliding window with more control data: no drift.
	for i := 256; i < 2_048; i++ {
		if k.Add(controlScore(i)) {
			t.Fatalf("false positive on control at sample %d (stat %.4f)", i, k.Statistic())
		}
	}
	// Shift the distribution's center by +0.1: an abrupt score shift.
	detectedAt := -1
	for i := 0; i < 512; i++ {
		if k.Add(0.1 + controlScore(i)) {
			detectedAt = i
			break
		}
	}
	if detectedAt < 0 {
		t.Fatalf("distribution shift never detected (stat %.4f)", k.Statistic())
	}
	if detectedAt >= 400 {
		t.Fatalf("detection took %d shifted samples, want < 400", detectedAt)
	}
}

func TestKSWindowIdenticalTieHeavySamplesAreNotDrift(t *testing.T) {
	// Duplicate-heavy streams are the norm for scores under high key
	// reuse: identically distributed reference and window samples over a
	// tiny support must yield D = 0, not a mid-tie-group gap.
	tied := func(i int) float64 {
		if i%2 == 0 {
			return 0.3
		}
		return 0.7
	}
	k := NewKSWindow(256)
	for i := 0; i < 1_024; i++ {
		if k.Add(tied(i)) {
			t.Fatalf("false positive on identical tied samples at %d (stat %.4f)", i, k.Statistic())
		}
	}
	if d := k.Statistic(); d != 0 {
		t.Fatalf("KS distance %.4f on identical tied samples, want 0", d)
	}

	// Degenerate all-equal case: every observation the same value.
	k2 := NewKSWindow(128)
	for i := 0; i < 512; i++ {
		if k2.Add(0.5) {
			t.Fatalf("false positive on constant stream at %d (stat %.4f)", i, k2.Statistic())
		}
	}
	if d := k2.Statistic(); d != 0 {
		t.Fatalf("KS distance %.4f on constant streams, want 0", d)
	}
}

func TestKSWindowDetectsMassShiftOnTiedSupport(t *testing.T) {
	k := NewKSWindow(256)
	// Reference: 50/50 over {0.3, 0.7}.
	for i := 0; i < 256; i++ {
		if i%2 == 0 {
			k.Add(0.3)
		} else {
			k.Add(0.7)
		}
	}
	// Recent traffic: 90/10 over the same support. The tie-group merge
	// must still see the mass shift at the 0.3/0.7 boundary (D = 0.4).
	detected := false
	for i := 0; i < 512; i++ {
		x := 0.3
		if i%10 == 9 {
			x = 0.7
		}
		if k.Add(x) {
			detected = true
			break
		}
	}
	if !detected {
		t.Fatalf("mass shift on tied support never detected (stat %.4f)", k.Statistic())
	}
}

func TestKSWindowResetRebuildsReference(t *testing.T) {
	k := NewKSWindow(64)
	for i := 0; i < 512; i++ {
		k.Add(controlScore(i))
	}
	k.Reset()
	if k.Drifted() || k.Statistic() != 0 {
		t.Fatal("reset detector still reports state")
	}
	// After reset the shifted regime becomes the new reference: no drift.
	for i := 0; i < 512; i++ {
		if k.Add(0.1 + controlScore(i)) {
			t.Fatalf("drift reported against post-reset reference at %d", i)
		}
	}
}

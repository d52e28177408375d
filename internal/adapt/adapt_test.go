package adapt

import (
	"context"
	"testing"
	"time"

	"willump/internal/core"
	"willump/internal/fixture"
)

// TestCanaryP99JudgedAgainstSLO pins the p99 guard at the judgement: a canary
// slower than 1+GuardLatencyTol times the incumbent still passes while its
// p99 is inside the serving tier's SLO, and fails once it is above both.
func TestCanaryP99JudgedAgainstSLO(t *testing.T) {
	fx, err := fixture.NewClassification(5, 600, 200, 50, 0.7, 10)
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := core.Optimize(context.Background(),
		&core.Pipeline{Graph: fx.Prog.G, Model: fx.Model},
		core.Dataset{Inputs: fx.Train.Inputs, Y: fx.Train.Y},
		core.Dataset{Inputs: fx.Valid.Inputs, Y: fx.Valid.Y}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const slo = 50 * time.Millisecond
	for _, tc := range []struct {
		name      string
		slo       time.Duration
		canaryP99 time.Duration
		promote   bool
	}{
		{"within 1.5x the incumbent", slo, 14 * time.Millisecond, true},
		{"above 1.5x the incumbent, inside the SLO", slo, 40 * time.Millisecond, true},
		{"above both", slo, 60 * time.Millisecond, false},
		{"above 1.5x the incumbent, no SLO", 0, 40 * time.Millisecond, false},
	} {
		var promoted, rolledBack int
		c := New(opt, Config{CanaryMinRequests: 10, PassStreak: 1, FailStreak: 1}, Hooks{
			Promote:  func() error { promoted++; return nil },
			Rollback: func() error { rolledBack++; return nil },
			Guards: func() (Guard, Guard, bool) {
				return Guard{Requests: 100, P99: 10 * time.Millisecond}, Guard{Requests: 100, P99: tc.canaryP99}, true
			},
			SLO: tc.slo,
		})
		c.state = StateCanarying
		c.candidate = opt
		c.step(time.Now())
		if tc.promote && (promoted != 1 || rolledBack != 0) || !tc.promote && (promoted != 0 || rolledBack != 1) {
			t.Errorf("%s: promoted %d, rolled back %d; want promote = %v", tc.name, promoted, rolledBack, tc.promote)
		}
	}
}

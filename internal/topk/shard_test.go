package topk

import (
	"context"
	"slices"
	"testing"

	"willump/internal/weld"
)

// TestShardedTopKMatchesSequential: both passes of a top-K query — the
// filter over every candidate and the re-rank over the kept ones — give the
// same ranking at Workers 1, 0 (GOMAXPROCS), 3 and one shard per row, for
// the default subset, a small one and the whole batch.
func TestShardedTopKMatchesSequential(t *testing.T) {
	f, test := newFilter(t, Config{})
	prog := f.Approx.Prog
	weld.ForceFanOut(t, prog, 1)
	ctx := context.Background()
	n := test.Inputs["cheap_id"].Len()
	for _, subset := range []int{-1, 25, n} {
		prog.Workers = 1
		want, err := f.TopKSubset(ctx, test.Inputs, 20, subset)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 3, n + 16} {
			prog.Workers = workers
			got, err := f.TopKSubset(ctx, test.Inputs, 20, subset)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("subset %d, workers=%d: top-K %v, sequential %v", subset, workers, got, want)
			}
		}
	}
}

package parallel

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestAssignBalancesLoad(t *testing.T) {
	costs := []float64{8, 7, 6, 5, 4}
	groups := Assign(costs, 2)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	// LPT places 8->w0, 7->w1, 6->w1, 5->w0, 4->w0: loads 17 vs 13.
	// (Optimal is 15; LPT's guarantee for two workers is 7/6 of optimal.)
	if got := MaxLoad(costs, groups); got != 17 {
		t.Errorf("MaxLoad = %v, want LPT's deterministic 17", got)
	}
	// A case where LPT is optimal.
	groups2 := Assign([]float64{6, 6, 4, 4}, 2)
	if got := MaxLoad([]float64{6, 6, 4, 4}, groups2); got != 10 {
		t.Errorf("MaxLoad = %v, want optimal 10", got)
	}
}

func TestAssignEdgeCases(t *testing.T) {
	if g := Assign(nil, 4); g != nil {
		t.Errorf("Assign(nil) = %v, want nil", g)
	}
	g := Assign([]float64{1, 2}, 10)
	if len(g) != 2 {
		t.Errorf("groups = %d, want capped at item count", len(g))
	}
	g = Assign([]float64{1, 2, 3}, 0)
	if len(g) != 1 || len(g[0]) != 3 {
		t.Errorf("workers<1 should collapse to one group, got %v", g)
	}
}

func TestAssignCoversAllItemsOnceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = rng.Float64() * 10
		}
		groups := Assign(costs, 1+rng.Intn(6))
		seen := make(map[int]int)
		for _, g := range groups {
			for _, item := range g {
				seen[item]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: list scheduling guarantees makespan <= total/m + max item (the
// last job placed on the busiest machine started no later than total/m).
func TestAssignListSchedulingBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		w := 1 + rng.Intn(8)
		costs := make([]float64, n)
		var total, maxItem float64
		for i := range costs {
			costs[i] = rng.Float64() * 10
			total += costs[i]
			if costs[i] > maxItem {
				maxItem = costs[i]
			}
		}
		groups := Assign(costs, w)
		m := len(groups)
		if m == 0 {
			return n == 0
		}
		bound := total/float64(m) + maxItem
		return MaxLoad(costs, groups) <= bound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestShard(t *testing.T) {
	want := [][2]int{{0, 4}, {4, 7}, {7, 10}}
	for k := range want {
		if lo, hi := Shard(10, 3, k); [2]int{lo, hi} != want[k] {
			t.Errorf("shard %d = [%d, %d), want %v", k, lo, hi, want[k])
		}
	}
	// More parts than rows: the rows take one part each, the rest are empty.
	for k, want := range [][2]int{{0, 1}, {1, 2}, {2, 2}, {2, 2}, {2, 2}} {
		if lo, hi := Shard(2, 5, k); [2]int{lo, hi} != want {
			t.Errorf("Shard(2, 5, %d) = [%d, %d), want %v", k, lo, hi, want)
		}
	}
	if lo, hi := Shard(0, 3, 2); lo != 0 || hi != 0 {
		t.Errorf("Shard(0, 3, 2) = [%d, %d), want empty", lo, hi)
	}
}

func TestShardCoversRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100)
		w := 1 + rng.Intn(10)
		pos := 0
		for k := 0; k < w; k++ {
			lo, hi := Shard(n, w, k)
			if lo != pos || hi < lo || hi-lo > n/w+1 {
				return false
			}
			pos = hi
		}
		return pos == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// naiveAssign is the reference O(items*workers) least-loaded scan the
// min-heap implementation replaced; Assign must reproduce it exactly.
func naiveAssign(costs []float64, workers int) [][]int {
	if workers < 1 {
		workers = 1
	}
	if workers > len(costs) {
		workers = len(costs)
	}
	if workers == 0 {
		return nil
	}
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if costs[order[a]] != costs[order[b]] {
			return costs[order[a]] > costs[order[b]]
		}
		return order[a] < order[b]
	})
	groups := make([][]int, workers)
	load := make([]float64, workers)
	for _, item := range order {
		best := 0
		for w := 1; w < workers; w++ {
			if load[w] < load[best] {
				best = w
			}
		}
		groups[best] = append(groups[best], item)
		load[best] += costs[item]
	}
	for _, g := range groups {
		sort.Ints(g)
	}
	return groups
}

func TestAssignMatchesNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = float64(rng.Intn(8)) // ties on purpose
		}
		workers := 1 + rng.Intn(12)
		got := Assign(costs, workers)
		want := naiveAssign(costs, workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d, w=%d): heap %v != scan %v (costs %v)", trial, n, workers, got, want, costs)
		}
	}
}

// TestAssignerReusesBuffers: one Assigner, reused over assignments of
// varying shape, answers each like a fresh Assign and allocates nothing
// once warm.
func TestAssignerReusesBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var a Assigner
	for trial := 0; trial < 100; trial++ {
		costs := make([]float64, 1+rng.Intn(20))
		for i := range costs {
			costs[i] = float64(rng.Intn(5))
		}
		workers := 1 + rng.Intn(8)
		got, want := a.Assign(costs, workers), Assign(costs, workers)
		if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
			t.Fatalf("trial %d: reused %v, fresh %v", trial, got, want)
		}
	}
	costs := []float64{5, 3, 9, 1, 7, 2, 8, 4}
	if allocs := testing.AllocsPerRun(100, func() { a.Assign(costs, 3) }); allocs != 0 {
		t.Errorf("warm Assigner allocates %.1f objects per assignment, want 0", allocs)
	}
}

// TestAssignWorkerCounts covers the deployment-relevant worker counts: a
// single worker, the machine's CPU count, and more workers than items.
func TestAssignWorkerCounts(t *testing.T) {
	costs := []float64{5, 3, 9, 1, 7, 2, 8, 4}
	for _, workers := range []int{1, runtime.NumCPU(), len(costs) + 7} {
		groups := Assign(costs, workers)
		wantGroups := workers
		if wantGroups > len(costs) {
			wantGroups = len(costs)
		}
		if wantGroups < 1 {
			wantGroups = 1
		}
		if len(groups) != wantGroups {
			t.Fatalf("workers=%d: got %d groups, want %d", workers, len(groups), wantGroups)
		}
		seen := make(map[int]bool)
		for _, g := range groups {
			if len(g) == 0 && workers <= len(costs) {
				t.Errorf("workers=%d: empty group despite items >= workers", workers)
			}
			for _, item := range g {
				if seen[item] {
					t.Fatalf("workers=%d: item %d assigned twice", workers, item)
				}
				seen[item] = true
			}
		}
		if len(seen) != len(costs) {
			t.Fatalf("workers=%d: %d items assigned, want %d", workers, len(seen), len(costs))
		}
	}
}

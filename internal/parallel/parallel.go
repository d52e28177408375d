// Package parallel implements Willump's query-aware parallelization
// primitives (paper section 4.4): longest-processing-time static assignment
// of feature generators to worker threads for example-at-a-time queries, and
// row sharding for batch queries.
package parallel

import "slices"

// Assign statically distributes items with the given costs across at most
// workers groups, balancing total cost per group using the
// longest-processing-time (LPT) greedy rule. It returns the item indices per
// group; groups are non-empty unless there are fewer items than workers.
// This is how Willump "statically assigns feature generators to threads
// using the feature generators' computational costs" (section 5.2).
//
// The least-loaded worker is tracked with a binary min-heap, so an
// assignment costs O(n log n + n log w) instead of the O(n*w) linear scan a
// naive implementation pays — it matters for wide pipelines scheduled at
// request time. Ties break toward the lowest worker index, reproducing the
// linear scan's assignment exactly.
func Assign(costs []float64, workers int) [][]int {
	var a Assigner
	return a.Assign(costs, workers)
}

// Assigner is Assign over buffers kept from one call to the next, so a
// caller scheduling every query assigns without allocating once warm.
type Assigner struct {
	order  []int
	heap   loadHeap
	groups [][]int
}

// Assign is the package's Assign; the groups it returns are valid until the
// next call.
func (a *Assigner) Assign(costs []float64, workers int) [][]int {
	workers = min(max(workers, 1), len(costs))
	if workers == 0 {
		return nil
	}
	a.order = a.order[:0]
	for i := range costs {
		a.order = append(a.order, i)
	}
	slices.SortFunc(a.order, func(x, y int) int {
		switch {
		case costs[x] > costs[y]:
			return -1
		case costs[x] < costs[y]:
			return 1
		}
		return x - y
	})
	a.groups = slices.Grow(a.groups[:0], workers)[:workers]
	for w := range a.groups {
		a.groups[w] = a.groups[w][:0]
	}
	a.heap.reset(workers)
	for _, item := range a.order {
		w := a.heap.min()
		a.groups[w] = append(a.groups[w], item)
		a.heap.addLoad(costs[item])
	}
	// Keep items within each group in their original order.
	for _, g := range a.groups {
		slices.Sort(g)
	}
	return a.groups
}

// loadHeap is a binary min-heap of workers keyed by (load, worker index):
// the root is always the least-loaded worker, lowest index first on ties.
type loadHeap struct {
	load []float64 // load[i] is the heap slot's accumulated cost
	id   []int     // id[i] is the worker index in that slot
}

// reset empties the heap for workers workers.
func (h *loadHeap) reset(workers int) {
	h.load = slices.Grow(h.load[:0], workers)[:workers]
	clear(h.load)
	h.id = slices.Grow(h.id[:0], workers)[:workers]
	for i := range h.id {
		h.id[i] = i // all loads zero: already a valid heap, ids ascending
	}
}

// less orders slots by load, then worker index for determinism.
func (h *loadHeap) less(i, j int) bool {
	if h.load[i] != h.load[j] {
		return h.load[i] < h.load[j]
	}
	return h.id[i] < h.id[j]
}

// min returns the worker index at the root.
func (h *loadHeap) min() int { return h.id[0] }

// addLoad adds cost to the root worker and restores the heap by sifting it
// down.
func (h *loadHeap) addLoad(cost float64) {
	h.load[0] += cost
	i, n := 0, len(h.load)
	for {
		smallest := i
		if l := 2*i + 1; l < n && h.less(l, smallest) {
			smallest = l
		}
		if r := 2*i + 2; r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.load[i], h.load[smallest] = h.load[smallest], h.load[i]
		h.id[i], h.id[smallest] = h.id[smallest], h.id[i]
		i = smallest
	}
}

// Shard returns shard k of n rows split into parts contiguous [lo, hi)
// ranges of near-equal size — the first n%parts one row longer — for
// data-parallel batch execution. It computes one range without allocating,
// so every executor of a fan-out can find its own.
func Shard(n, parts, k int) (lo, hi int) {
	base, rem := n/parts, n%parts
	lo = k*base + min(k, rem)
	hi = lo + base
	if k < rem {
		hi++
	}
	return lo, hi
}

// MaxLoad returns the maximum per-group cost of an assignment, the quantity
// LPT minimizes (the makespan of the example-at-a-time query).
func MaxLoad(costs []float64, groups [][]int) float64 {
	var maxLoad float64
	for _, g := range groups {
		var load float64
		for _, item := range g {
			load += costs[item]
		}
		if load > maxLoad {
			maxLoad = load
		}
	}
	return maxLoad
}

package core

import (
	"math"
	"slices"
	"sort"

	"willump/internal/cache"
	"willump/internal/value"
	"willump/internal/weld"
)

// Statistically-aware cache planning (the optimizer half of the paper's
// section 4.5): Willump caches the feature computations that are worth
// caching, not every IFV uniformly. Two measurements drive the decision,
// both available at Optimize time:
//
//   - cost: the profiled per-row cost of the IFV's feature generator, from
//     the same Fit-time measurements the cascades cost model uses;
//   - key reuse: how often the generator's raw-input key tuple repeats in
//     the training set, an empirical estimate of the serving hit rate under
//     the skewed real-world query distributions the paper targets.
//
// Their product — expected seconds saved per served row — scores each IFV.
// Under a global entry budget (Options.FeatureCacheBudget) the planner caches
// only IFVs with a positive score and splits the budget proportional to the
// scores, so a cheap generator over near-unique keys gets no entries while
// an expensive generator over a skewed key space gets nearly all of them.
// No IFV gets more entries than its key space can use: the same scan
// estimates how many distinct keys the generator has (Chao1), each share is
// capped at the capacity that holds them all, and what a cap frees is split
// again over the uncapped IFVs.

const (
	// cachePlanSampleRows bounds the training rows scanned for key-reuse
	// estimation; planning must stay a negligible slice of Optimize time.
	cachePlanSampleRows = 4096
	// cachePlanMinEntries is the selection threshold under a budget: an IFV
	// whose proportional share falls below it is not cached at all (so few
	// entries would thrash without serving hits), keeping the planned total
	// within the user's budget instead of padding past it.
	cachePlanMinEntries = 8
)

// IFVCacheStat records one IFV's cache-planning measurements, reported on
// the optimization Report.
type IFVCacheStat struct {
	// IFV is the feature generator's index.
	IFV int
	// Cost is the profiled per-row generator cost in seconds.
	Cost float64
	// EstimatedHitRate is 1 - distinct/sampled over the training-set key
	// tuples: the hit rate an unbounded cache would have seen on training
	// traffic.
	EstimatedHitRate float64
	// KeySpace is the estimated number of distinct keys the generator sees:
	// the bias-corrected Chao1 estimate D + f1·(f1-1)/(2·(f2+1)) over the
	// same sample, where D keys were distinct and f1, f2 of them seen exactly
	// once and twice, rounded up (0 when the sample is empty). Under a budget
	// the IFV gets at most cache.CapacityFor(KeySpace) entries.
	KeySpace int
	// Score is Cost * EstimatedHitRate — expected seconds saved per row.
	Score float64
	// Capacity is the planned entry budget (0 = unbounded); absent from the
	// plan entirely when the IFV was not selected.
	Capacity int
	// Cached reports whether the planner selected this IFV.
	Cached bool
}

// planFeatureCaches decides which IFVs get a feature-level cache and how
// large each one is. With a positive FeatureCacheBudget the split is
// profile-driven as described above; otherwise every cacheable IFV gets the
// flat legacy capacity (FeatureCacheCapacity, <= 0 unbounded) and only the
// selection — skipping uncacheable generators — is statistical.
func planFeatureCaches(prog *weld.Program, train Dataset, opts Options) ([]weld.CacheSpec, []IFVCacheStat) {
	a, g := prog.A, prog.G
	stats := make([]IFVCacheStat, 0, len(a.IFVs))
	var cacheable []int
	for i := range a.IFVs {
		if !a.Cacheable(g, i) {
			continue
		}
		st := IFVCacheStat{IFV: i, Cost: prog.Prof.IFVCost(a, i)}
		st.EstimatedHitRate, st.KeySpace = estimateKeyReuse(prog, train, i)
		st.Score = st.Cost * st.EstimatedHitRate
		stats = append(stats, st)
		cacheable = append(cacheable, i)
	}
	if len(cacheable) == 0 {
		return nil, stats
	}

	if opts.FeatureCacheBudget <= 0 {
		// Legacy flat configuration: one capacity for every cacheable IFV.
		specs := make([]weld.CacheSpec, len(cacheable))
		for j, i := range cacheable {
			specs[j] = weld.CacheSpec{IFV: i, Capacity: opts.FeatureCacheCapacity}
			stats[j].Capacity = max(0, opts.FeatureCacheCapacity)
			stats[j].Cached = true
		}
		return specs, stats
	}

	// Budgeted split: select scored IFVs and divide proportionally.
	total := 0.0
	for _, st := range stats {
		total += st.Score
	}
	if total == 0 {
		// No measured reuse anywhere (e.g. fully unique training keys): fall
		// back to an even split rather than caching nothing, since serving
		// traffic is usually more skewed than training data. The split still
		// honors the budget: when an even split over every cacheable IFV
		// would fall below the selection threshold, only the most expensive
		// generators (where a serving-time hit saves the most) get a cache.
		k := len(cacheable)
		if maxK := opts.FeatureCacheBudget / cachePlanMinEntries; k > maxK {
			k = maxK
		}
		if k == 0 {
			k = 1 // tiny budget: one cache with whatever entries remain
		}
		order := make([]int, len(stats))
		for j := range order {
			order[j] = j
		}
		sort.SliceStable(order, func(a, b int) bool { return stats[order[a]].Cost > stats[order[b]].Cost })
		per := opts.FeatureCacheBudget / k
		specs := make([]weld.CacheSpec, 0, k)
		for _, j := range order[:k] {
			stats[j].Capacity = per
			stats[j].Cached = true
			specs = append(specs, weld.CacheSpec{IFV: stats[j].IFV, Capacity: per})
		}
		return specs, stats
	}
	// Select scored IFVs, then enforce the budget: an IFV whose share falls
	// below the floor is dropped outright (a handful of entries would thrash
	// without serving hits — that budget does more good on the high-score
	// generators) and shares are recomputed among the survivors. A share
	// capped at the IFV's whole key space is exempt from the floor: it holds
	// every key and cannot thrash. The planned capacities therefore never sum
	// past the budget; only the sharded cache's per-shard rounding (bounded
	// by its shard count, see Sharded.Capacity) can add a few entries on top.
	keyCap := make([]int, len(stats))
	selected := make([]int, 0, len(stats))
	for j := range stats {
		if stats[j].Score > 0 {
			selected = append(selected, j)
		}
		// A key space at least the budget cannot bind, and CapacityFor's cost
		// grows with it.
		if k := stats[j].KeySpace; k > 0 && k < opts.FeatureCacheBudget {
			keyCap[j] = cache.CapacityFor(k)
		}
	}
	kept := func(j int) bool {
		floor := cachePlanMinEntries
		if keyCap[j] > 0 {
			floor = min(floor, keyCap[j])
		}
		return stats[j].Capacity >= floor
	}
	for {
		splitBudget(stats, selected, keyCap, opts.FeatureCacheBudget)
		survivors := selected[:0]
		for _, j := range selected {
			if kept(j) {
				survivors = append(survivors, j)
			}
		}
		if len(survivors) == len(selected) || len(survivors) == 0 {
			selected = survivors
			break
		}
		selected = survivors
	}
	if len(selected) == 0 && opts.FeatureCacheBudget >= cachePlanMinEntries {
		// Every share rounded below the floor (tiny budget, many IFVs):
		// spend the whole budget on the single best generator.
		best := -1
		for j := range stats {
			if stats[j].Score > 0 && (best < 0 || stats[j].Score > stats[best].Score) {
				best = j
			}
		}
		if best >= 0 {
			selected = append(selected, best)
			splitBudget(stats, selected, keyCap, opts.FeatureCacheBudget)
		}
	}
	var specs []weld.CacheSpec
	for j := range stats {
		stats[j].Cached = slices.Contains(selected, j)
		if !stats[j].Cached {
			stats[j].Capacity = 0
			continue
		}
		specs = append(specs, weld.CacheSpec{IFV: stats[j].IFV, Capacity: stats[j].Capacity})
	}
	return specs, stats
}

// splitBudget sets the Capacity of every stats[j], j in sel, by water-filling
// budget over them in proportion to Score: an IFV whose share would exceed
// its cap (keyCap[j] > 0) gets the cap, and the entries that frees are split
// again over the rest, until no cap binds. The capacities sum to at most
// budget.
func splitBudget(stats []IFVCacheStat, sel, keyCap []int, budget int) {
	open := append([]int(nil), sel...)
	left := float64(budget)
	for {
		sum := 0.0
		for _, j := range open {
			sum += stats[j].Score
		}
		// The fraction first, so a lone IFV's share is exactly left.
		share := func(j int) float64 { return left * (stats[j].Score / sum) }
		uncapped := open[:0]
		freed := 0
		for _, j := range open {
			if c := keyCap[j]; c > 0 && float64(c) <= share(j) {
				stats[j].Capacity = c
				freed += c
			} else {
				uncapped = append(uncapped, j)
			}
		}
		if freed == 0 {
			for _, j := range open {
				stats[j].Capacity = int(share(j))
			}
			return
		}
		open, left = uncapped, left-float64(freed)
	}
}

// estimateKeyReuse returns, over IFV i's raw-source key tuples in up to
// cachePlanSampleRows training rows, 1 - distinct/sampled and the Chao1
// estimate of the key space rounded up (0, 0 when the sample is empty or a
// source column is absent).
func estimateKeyReuse(prog *weld.Program, train Dataset, i int) (reuse float64, keySpace int) {
	ifv := prog.A.IFVs[i]
	cols := make([]value.Value, 0, len(ifv.Sources))
	n := -1
	for _, sid := range ifv.Sources {
		label := prog.G.Node(sid).Label
		v, ok := train.Inputs[label]
		if !ok {
			return 0, 0 // source column absent; cannot estimate
		}
		cols = append(cols, v)
		if n == -1 || v.Len() < n {
			n = v.Len()
		}
	}
	if n <= 0 {
		return 0, 0
	}
	if n > cachePlanSampleRows {
		n = cachePlanSampleRows
	}
	seen := make(map[string]int, n)
	var buf []byte
	for row := 0; row < n; row++ {
		buf = cache.AppendRowKey(buf[:0], cols, row)
		seen[string(buf)]++
	}
	var f1, f2 float64
	for _, c := range seen {
		switch c {
		case 1:
			f1++
		case 2:
			f2++
		}
	}
	d := float64(len(seen))
	chao1 := d + f1*(f1-1)/(2*(f2+1))
	return 1 - d/float64(n), int(math.Ceil(chao1))
}

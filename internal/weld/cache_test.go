package weld

import (
	"context"
	"sync"
	"testing"

	"willump/internal/value"
)

// TestCachedMatchesUncached pins the cached execution paths bit-identically
// to the uncached ones, for batches (mixed hits/misses, then all hits) and
// point queries, across repeated runs on pooled states.
func TestCachedMatchesUncached(t *testing.T) {
	g, inputs, _, _ := lookupPipeline(t)
	p, full := fitProgram(t, g, inputs)
	p.EnableFeatureCachingSpecs([]CacheSpec{{IFV: 0}, {IFV: 1}})
	ctx := context.Background()
	for pass := 0; pass < 3; pass++ {
		got, err := p.RunBatch(ctx, inputs)
		if err != nil {
			t.Fatal(err)
		}
		matricesClose(t, got, full, 0) // bit-identical: lookups copy rows
	}
	for row := 0; row < 5; row++ {
		point := map[string]value.Value{
			"user": inputs["user"].Gather([]int{row}),
			"song": inputs["song"].Gather([]int{row}),
		}
		for pass := 0; pass < 2; pass++ { // miss then hit
			m, err := p.RunBatch(ctx, point)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < full.Cols(); c++ {
				if m.At(0, c) != full.At(row, c) {
					t.Fatalf("pass %d row %d col %d: cached %v, want %v", pass, row, c, m.At(0, c), full.At(row, c))
				}
			}
		}
	}
	if s := p.FeatureCacheStats(); s.Hits == 0 {
		t.Error("cached runs recorded no hits")
	}
}

// TestCachedEvictionCorrectness forces constant eviction with a tiny
// bounded cache and checks results never drift from the uncached baseline.
func TestCachedEvictionCorrectness(t *testing.T) {
	g, inputs, _, _ := lookupPipeline(t)
	p, full := fitProgram(t, g, inputs)
	p.EnableFeatureCachingSpecs([]CacheSpec{{IFV: 0, Capacity: 2}, {IFV: 1, Capacity: 2}})
	ctx := context.Background()
	for pass := 0; pass < 10; pass++ {
		got, err := p.RunBatch(ctx, inputs)
		if err != nil {
			t.Fatal(err)
		}
		matricesClose(t, got, full, 0)
	}
}

// TestCacheSpecsPartialCoverage caches only one IFV; the other computes
// directly every time, and the plan is reported back verbatim.
func TestCacheSpecsPartialCoverage(t *testing.T) {
	g, inputs, userTable, songTable := lookupPipeline(t)
	p, full := fitProgram(t, g, inputs)
	p.EnableFeatureCachingSpecs([]CacheSpec{{IFV: 0, Capacity: 64}})
	specs := p.CacheSpecs()
	if len(specs) != 1 || specs[0] != (CacheSpec{IFV: 0, Capacity: 64}) {
		t.Fatalf("CacheSpecs = %+v", specs)
	}
	ctx := context.Background()
	if _, err := p.RunBatch(ctx, inputs); err != nil {
		t.Fatal(err)
	}
	u1, s1 := userTable.Requests(), songTable.Requests()
	got, err := p.RunBatch(ctx, inputs)
	if err != nil {
		t.Fatal(err)
	}
	matricesClose(t, got, full, 0)
	if userTable.Requests() != u1 {
		t.Error("cached user IFV re-issued lookups on the second run")
	}
	if songTable.Requests() == s1 {
		t.Error("uncached song IFV issued no lookups on the second run")
	}
	if _, ok := p.IFVCacheStats(0); !ok {
		t.Error("IFV 0 should report cache stats")
	}
	if _, ok := p.IFVCacheStats(1); ok {
		t.Error("IFV 1 has no cache but reports stats")
	}
}

// TestCachedConcurrentPointRuns hammers the cached point path from many
// goroutines over a shared Program — the serving traffic shape the sharded
// cache exists for. Each run's result must match the baseline row exactly.
func TestCachedConcurrentPointRuns(t *testing.T) {
	g, inputs, _, _ := lookupPipeline(t)
	p, full := fitProgram(t, g, inputs)
	p.EnableFeatureCachingSpecs([]CacheSpec{{IFV: 0, Capacity: 4}, {IFV: 1, Capacity: 4}}) // small: hits, misses, and evictions mix
	ctx := context.Background()
	users := inputs["user"].Ints
	songs := inputs["song"].Ints
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				row := (w + i) % len(users)
				point := map[string]value.Value{
					"user": value.NewInts(users[row : row+1]),
					"song": value.NewInts(songs[row : row+1]),
				}
				run, err := p.NewRun(ctx, point)
				if err != nil {
					errs <- err
					return
				}
				m, err := run.PointMatrix(p.AllIFVs())
				if err != nil {
					errs <- err
					return
				}
				for c := 0; c < full.Cols(); c++ {
					if m.At(0, c) != full.At(row, c) {
						t.Errorf("worker %d row %d col %d: %v != %v", w, row, c, m.At(0, c), full.At(row, c))
						run.Close()
						return
					}
				}
				run.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

package serving

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"willump/internal/core"
	"willump/internal/graph"
	"willump/internal/kvstore"
	"willump/internal/model"
	"willump/internal/ops"
	"willump/internal/store"
	"willump/internal/value"
)

// TestRemoteStoreFaultsServedWithoutErrors serves a local ⋈ remote lookup
// pipeline whose remote table sits behind store.Dial while the store
// misbehaves, with the faults scripted rather than timed:
//
//   - tail: every 4th store request is held until the phase ends, so only a
//     hedge can answer the request it belongs to;
//   - drops: the store drops the next two connections while served requests
//     are held inside it, until one of them has to dial and is dropped;
//   - restored: no faults.
//
// No request fails or is answered from the store client's degraded fallback,
// every answer equals the in-process prediction bit for bit, and the model's
// FeatureStore stats show the hedges for the tail phase and the retries for
// the drop phase.
func TestRemoteStoreFaultsServedWithoutErrors(t *testing.T) {
	const (
		nKeys = 256
		// hedgeDelay is the client's fixed hedge trigger. It is far above a
		// loopback round trip, so a dropped connection fails its attempt
		// before the attempt could be hedged.
		hedgeDelay = 50 * time.Millisecond
	)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	remoteRows := make(map[int64][]float64, nKeys)
	localRows := make(map[int64][]float64, nKeys)
	for k := int64(0); k < nKeys; k++ {
		remoteRows[k] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		localRows[k] = []float64{rng.NormFloat64()}
	}
	kv := kvstore.NewServer(2, 0)
	if err := kv.Load(remoteRows); err != nil {
		t.Fatal(err)
	}
	addr, err := kv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kv.Close() })
	cli, err := store.Dial(ctx, store.Config{Addr: addr, ExpectDim: 2, Hedge: true, HedgeDelay: hedgeDelay})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	b := graph.NewBuilder()
	uid := b.Input("user_id")
	iid := b.Input("item_id")
	uf := b.Add("user_features", ops.NewLookup("local", ops.NewLocalTable(1, localRows)), uid)
	itf := b.Add("item_features", ops.NewLookup("remote", cli), iid)
	b.SetOutput(b.Add("concat", ops.NewConcat(), uf, itf))
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ids := func(n int) (users, items []int64) {
		for i := 0; i < n; i++ {
			users = append(users, int64(i)%nKeys)
			items = append(items, int64(i*7)%nKeys)
		}
		return users, items
	}
	users, items := ids(512)
	y := make([]float64, len(users))
	for i := range y {
		if localRows[users[i]][0]+remoteRows[items[i]][0]-remoteRows[items[i]][1] > 0 {
			y[i] = 1
		}
	}
	train := core.Dataset{Inputs: map[string]value.Value{"user_id": value.NewInts(users), "item_id": value.NewInts(items)}, Y: y}
	o, _, err := core.Optimize(ctx, &core.Pipeline{Graph: g, Model: model.NewLogistic(model.LinearConfig{})}, train, core.Dataset{}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const requests = 64
	users, items = ids(requests)
	want, err := o.PredictBatch(ctx, map[string]value.Value{"user_id": value.NewInts(users), "item_id": value.NewInts(items)})
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry(Options{})
	t.Cleanup(func() { reg.Close(ctx) }) //nolint:errcheck
	// Cleanups run last-in first-out: a store request still held when the
	// test ends is let go before the registry and the store close.
	var holds []chan struct{}
	t.Cleanup(func() {
		for _, c := range holds {
			select {
			case <-c:
			default:
				close(c)
			}
		}
	})
	hold := func() chan struct{} {
		c := make(chan struct{})
		holds = append(holds, c)
		return c
	}
	if err := reg.Deploy("m", "v1", o); err != nil {
		t.Fatal(err)
	}
	h, err := reg.lookup("m")
	if err != nil {
		t.Fatal(err)
	}
	storeStats := func() ops.StoreStats {
		t.Helper()
		ms, err := reg.Stats("m")
		if err != nil || ms.FeatureStore == nil {
			t.Fatalf("no feature-store stats: %v", err)
		}
		return *ms.FeatureStore
	}
	// serve answers request i, a mergeable predict, or — lone — one that
	// carries an option and so runs beside the others instead of queueing
	// behind them.
	serve := func(i int, lone bool) error {
		c := call{ctx: ctx, n: 1, inputs: map[string]value.Value{
			"user_id": value.NewInts([]int64{users[i]}),
			"item_id": value.NewInts([]int64{items[i]}),
		}}
		if lone {
			c.po = core.ResolvePredict(core.WithPredictDeadline(time.Minute))
		}
		a := h.serve(c)
		if a.err == nil && !sameBits(a.preds, want[i:i+1]) {
			return fmt.Errorf("request %d answered %v, in process %v", i, a.preds, want[i])
		}
		return a.err
	}
	next := 0

	// Tail: every 4th store request is held until the phase ends.
	before := storeStats()
	tail := hold()
	var ordinal atomic.Int64
	kv.SetLatencyFunc(func() time.Duration {
		if ordinal.Add(1)%4 == 0 {
			<-tail
		}
		return 0
	})
	for end := next + 8; next < end; next++ {
		if err := serve(next, false); err != nil {
			t.Fatalf("tail phase, request %d: %v", next, err)
		}
	}
	close(tail)
	if st := storeStats(); st.HedgesIssued == before.HedgesIssued {
		t.Errorf("tail phase: no hedge issued (store stats %+v)", st)
	}

	// Drops: every store request is held, so each served request keeps its
	// connection; once the idle pool is empty a request must dial, and its
	// dial is dropped and retried.
	before = storeStats()
	drop := hold()
	arrived := make(chan struct{}, 2*requests) // every request and its hedge
	kv.SetLatencyFunc(func() time.Duration {
		arrived <- struct{}{}
		<-drop
		return 0
	})
	kv.DropNextConns(2)
	replies := make(chan error, requests)
	held := 0
	for storeStats().Retries == before.Retries {
		if next == requests {
			t.Fatalf("drop phase: no retry after %d held requests (store stats %+v)", held, storeStats())
		}
		go func(i int) { replies <- serve(i, true) }(next)
		next++
		held++
		select {
		case <-arrived:
		case err := <-replies:
			t.Fatalf("drop phase: a request returned while the store held every request: %v", err)
		}
	}
	close(drop)
	for ; held > 0; held-- {
		if err := <-replies; err != nil {
			t.Fatalf("drop phase: %v", err)
		}
	}

	// Restored.
	kv.SetLatencyFunc(nil)
	kv.DropNextConns(0)
	for end := next + 8; next < end; next++ {
		if err := serve(next, false); err != nil {
			t.Fatalf("restored phase, request %d: %v", next, err)
		}
	}
	if st := storeStats(); st.Degraded != 0 || st.BreakerOpens != 0 {
		t.Errorf("store faults reached the fallback: %d degraded lookups, %d breaker opens", st.Degraded, st.BreakerOpens)
	}
}

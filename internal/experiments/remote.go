package experiments

// This file implements `willump-bench -exp remote-lookup`: a store-latency
// sweep over the remote feature-store predict path, comparing the store
// client behind the benchmark pipelines' synchronous view against the same
// client with async prefetch, and prefetch plus hedging under injected tail
// latency. The rows track latency only: the path is network-bound and
// spawns goroutines by design, so allocation counts would be noise.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"willump/internal/graph"
	"willump/internal/kvstore"
	"willump/internal/metrics"
	"willump/internal/ops"
	"willump/internal/pipeline"
	"willump/internal/store"
	"willump/internal/value"
	"willump/internal/weld"
)

// remoteSweep is the injected base store latency sweep of the satellite
// task: zero (LAN-free baseline), one, and five milliseconds.
var remoteSweep = []time.Duration{0, time.Millisecond, 5 * time.Millisecond}

// remoteTailEvery injects one slow request per this many MGETs, modeling
// the p99 tail the hedging layer exists for.
const remoteTailEvery = 8

// remoteBatch is the rows per predict batch.
const remoteBatch = 16

// sleepOp is a local lookup with a fixed per-batch compute delay, standing
// in for the local feature generators the prefetch overlaps with.
type sleepOp struct {
	inner *ops.Lookup
	d     time.Duration
}

func (s *sleepOp) Name() string      { return "sleep_" + s.inner.Name() }
func (s *sleepOp) Compilable() bool  { return true }
func (s *sleepOp) Commutative() bool { return false }

func (s *sleepOp) Apply(ins []value.Value) (value.Value, error) {
	time.Sleep(s.d)
	return s.inner.Apply(ins)
}

func (s *sleepOp) ApplyBoxed(ins []any) (any, error) {
	time.Sleep(s.d)
	return s.inner.ApplyBoxed(ins)
}

// remoteRow is one (store latency, mode) cell of the sweep: per-batch
// latency over the cell's timed batches.
type remoteRow struct {
	mean, p50, p99 time.Duration
}

// RemoteLookup runs the remote feature-store sweep and prints one row per
// (latency, mode) cell.
func RemoteLookup(w io.Writer, s Setup) error {
	header(w, "Remote lookup: store latency sweep, sync vs prefetch vs prefetch+hedge")
	iters := 40 * s.Reps
	if iters < 80 {
		iters = 80
	}
	fmt.Fprintf(w, "%d batches of %d rows per cell; one request in %d carries injected tail latency\n\n",
		iters, remoteBatch, remoteTailEvery)
	fmt.Fprintf(w, "%-10s %-16s %10s %10s %10s\n", "store lat", "mode", "p50 ms", "p99 ms", "mean ms")

	for _, lat := range remoteSweep {
		for _, mode := range []string{"sync", "prefetch", "prefetch+hedge"} {
			row, err := remoteCell(s, lat, mode, iters)
			if err != nil {
				return fmt.Errorf("remote-lookup %s @ %v: %w", mode, lat, err)
			}
			fmt.Fprintf(w, "%-10s %-16s %10.3f %10.3f %10.3f\n",
				lat.String(), mode, ms(row.p50), ms(row.p99), ms(row.mean))
		}
	}
	return nil
}

// remoteCell measures one (latency, mode) configuration: a fused pipeline
// joining a remote lookup with local compute of comparable cost, driven for
// iters batches against an in-process store with injected tail latency.
func remoteCell(s Setup, lat time.Duration, mode string, iters int) (remoteRow, error) {
	const nKeys = 4096
	srv := kvstore.NewServer(2, 0)
	storeRows := make(map[int64][]float64, nKeys)
	for k := int64(0); k < nKeys; k++ {
		storeRows[k] = []float64{float64(k), float64(2 * k)}
	}
	if err := srv.Load(storeRows); err != nil {
		return remoteRow{}, err
	}
	addr, err := srv.Start()
	if err != nil {
		return remoteRow{}, err
	}
	defer srv.Close()

	var table ops.Table
	switch mode {
	case "sync":
		var be pipeline.RemoteBackend
		defer be.Close()
		if table, err = be.Dial(addr, 2); err != nil {
			return remoteRow{}, err
		}
	case "prefetch", "prefetch+hedge":
		cli, err := store.Dial(context.Background(), store.Config{
			Addr:  addr,
			Hedge: mode == "prefetch+hedge",
		})
		if err != nil {
			return remoteRow{}, err
		}
		defer cli.Close()
		table = cli
	default:
		return remoteRow{}, fmt.Errorf("unknown mode %q", mode)
	}

	// Local compute sized to the store round trip, so overlap is visible;
	// at zero injected latency a small floor keeps the plan non-degenerate.
	localDelay := lat
	if localDelay < 200*time.Microsecond {
		localDelay = 200 * time.Microsecond
	}
	localRows := make(map[int64][]float64, nKeys)
	for k := int64(0); k < nKeys; k++ {
		localRows[k] = []float64{float64(k) / 2}
	}
	b := graph.NewBuilder()
	rid := b.Input("rid")
	lid := b.Input("lid")
	rf := b.Add("remote_features", ops.NewLookup("remote", table), rid)
	lf := b.Add("local_features", &sleepOp{inner: ops.NewLookup("local", ops.NewLocalTable(1, localRows)), d: localDelay}, lid)
	cat := b.Add("concat", ops.NewConcat(), rf, lf)
	b.SetOutput(cat)
	g, err := b.Build()
	if err != nil {
		return remoteRow{}, err
	}
	prog, err := weld.Compile(g)
	if err != nil {
		return remoteRow{}, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	batch := func() map[string]value.Value {
		rids := make([]int64, remoteBatch)
		lids := make([]int64, remoteBatch)
		for i := range rids {
			rids[i] = rng.Int63n(nKeys)
			lids[i] = rng.Int63n(nKeys)
		}
		return map[string]value.Value{"rid": value.NewInts(rids), "lid": value.NewInts(lids)}
	}
	if _, err := prog.Fit(context.Background(), batch()); err != nil {
		return remoteRow{}, err
	}

	// Tail injection starts after Fit so the fitted profile reflects the
	// base latency. Every remoteTailEvery-th MGET is slowed by the larger
	// of 4x the base latency and 2ms.
	tail := 4 * lat
	if tail < 2*time.Millisecond {
		tail = 2 * time.Millisecond
	}
	var ordinal atomic.Int64
	srv.SetLatencyFunc(func() time.Duration {
		if ordinal.Add(1)%remoteTailEvery == 0 {
			return lat + tail
		}
		return lat
	})

	run := func() error {
		r, err := prog.NewRun(context.Background(), batch())
		if err != nil {
			return err
		}
		defer r.Close()
		_, err = r.MatrixShared(prog.AllIFVs())
		return err
	}
	for i := 0; i < 3; i++ { // warm pools and connections
		if err := run(); err != nil {
			return remoteRow{}, err
		}
	}
	var lats metrics.Hist
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		if err := run(); err != nil {
			return remoteRow{}, err
		}
		lats.Observe(time.Since(t0))
	}
	return remoteRow{mean: lats.Mean(), p50: lats.Quantile(0.50), p99: lats.Quantile(0.99)}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

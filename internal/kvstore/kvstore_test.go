// The server is tested from outside the package, through the one wire client
// (store.Client, which imports kvstore) and the protocol.go frame helpers.
package kvstore_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"willump/internal/kvstore"
	"willump/internal/store"
)

// startServer starts a loaded server and dials it with retries off, so
// every client lookup is exactly one server request.
func startServer(t *testing.T, dim int, latency time.Duration, rows map[int64][]float64) (*kvstore.Server, *store.Client) {
	t.Helper()
	srv := kvstore.NewServer(dim, latency)
	if err := srv.Load(rows); err != nil {
		t.Fatalf("Load: %v", err)
	}
	addr, err := srv.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := store.Dial(context.Background(), store.Config{Addr: addr, ExpectDim: dim, Retries: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

func TestLookupRoundTrip(t *testing.T) {
	_, cli := startServer(t, 3, 0, map[int64][]float64{
		1: {1, 2, 3},
		2: {4, 5, 6},
	})
	got, err := cli.LookupBatch([]int64{2, 1, 7})
	if err != nil {
		t.Fatalf("LookupBatch: %v", err)
	}
	if got[0][1] != 5 || got[1][2] != 3 {
		t.Errorf("values wrong: %v", got)
	}
	if got[2] != nil {
		t.Errorf("missing key should be nil, got %v", got[2])
	}
}

func TestBatchCountsAsOneRequest(t *testing.T) {
	srv, cli := startServer(t, 1, 0, map[int64][]float64{1: {1}, 2: {2}, 3: {3}})
	if _, err := cli.LookupBatch([]int64{1, 2, 3}); err != nil {
		t.Fatalf("LookupBatch: %v", err)
	}
	if srv.Requests() != 1 {
		t.Errorf("server requests = %d, want 1 for a pipelined batch", srv.Requests())
	}
	if cli.Requests() != 1 {
		t.Errorf("client requests = %d, want 1", cli.Requests())
	}
	// Three separate point lookups are three requests: the pattern the
	// unoptimized interpreted pipeline produces.
	for k := int64(1); k <= 3; k++ {
		if _, err := cli.LookupBatch([]int64{k}); err != nil {
			t.Fatalf("LookupBatch: %v", err)
		}
	}
	if srv.Requests() != 4 {
		t.Errorf("server requests = %d, want 4", srv.Requests())
	}
}

func TestLoadValidatesDim(t *testing.T) {
	srv := kvstore.NewServer(2, 0)
	if err := srv.Load(map[int64][]float64{1: {1, 2, 3}}); err == nil {
		t.Error("want error for wrong-width row")
	}
}

func TestLatencyInjection(t *testing.T) {
	const lat = 20 * time.Millisecond
	_, cli := startServer(t, 1, lat, map[int64][]float64{1: {1}})
	start := time.Now()
	if _, err := cli.LookupBatch([]int64{1}); err != nil {
		t.Fatalf("LookupBatch: %v", err)
	}
	if el := time.Since(start); el < lat {
		t.Errorf("lookup returned in %v, want >= %v injected latency", el, lat)
	}
}

func TestConcurrentClients(t *testing.T) {
	rows := make(map[int64][]float64)
	for k := int64(0); k < 100; k++ {
		rows[k] = []float64{float64(k)}
	}
	_, cli := startServer(t, 1, 0, rows)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := int64((w*50 + i) % 100)
				got, err := cli.LookupBatch([]int64{k})
				if err != nil {
					errs[w] = err
					return
				}
				if got[0][0] != float64(k) {
					errs[w] = errWrongValue
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("concurrent lookup: %v", err)
		}
	}
}

var errWrongValue = &wrongValueError{}

type wrongValueError struct{}

func (*wrongValueError) Error() string { return "wrong value" }

func TestClientAfterClose(t *testing.T) {
	_, cli := startServer(t, 1, 0, map[int64][]float64{1: {1}})
	cli.Close()
	if _, err := cli.LookupBatch([]int64{1}); err == nil {
		t.Error("want error after Close")
	}
}

func TestResetRequests(t *testing.T) {
	_, cli := startServer(t, 1, 0, map[int64][]float64{1: {1}})
	if _, err := cli.LookupBatch([]int64{1}); err != nil {
		t.Fatal(err)
	}
	cli.ResetRequests()
	if cli.Requests() != 0 {
		t.Errorf("requests = %d after reset, want 0", cli.Requests())
	}
}

func TestEmptyBatch(t *testing.T) {
	_, cli := startServer(t, 1, 0, map[int64][]float64{1: {1}})
	got, err := cli.LookupBatch(nil)
	if err != nil {
		t.Fatalf("LookupBatch(nil): %v", err)
	}
	if got != nil {
		t.Errorf("empty batch should return nil, got %v", got)
	}
	if cli.Requests() != 0 {
		t.Error("empty batch should not count as a request")
	}
}

// TestLookupBatchCtxHonorsDeadline pins the fix for the historical hang:
// a lookup against a stalled server must return when its context expires
// instead of blocking on the read forever.
func TestLookupBatchCtxHonorsDeadline(t *testing.T) {
	srv, cli := startServer(t, 1, 0, map[int64][]float64{1: {1}})
	srv.SetLatencyFunc(func() time.Duration { return 500 * time.Millisecond })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cli.LookupBatchCtx(ctx, []int64{1})
	if err == nil {
		t.Fatal("lookup against a stalled server returned no error")
	}
	if el := time.Since(start); el > 300*time.Millisecond {
		t.Errorf("lookup blocked %v past a 20ms deadline", el)
	}
	// The poisoned connection is discarded; the next call dials fresh and
	// succeeds once the server answers promptly again.
	srv.SetLatencyFunc(nil)
	got, err := cli.LookupBatchCtx(context.Background(), []int64{1})
	if err != nil || got[0][0] != 1 {
		t.Errorf("post-timeout lookup = %v, %v; want [[1]]", got, err)
	}
}

// TestLookupBatchCtxCancellation: an already-canceled context fails fast
// without a network round trip.
func TestLookupBatchCtxCancellation(t *testing.T) {
	srv, cli := startServer(t, 1, 0, map[int64][]float64{1: {1}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cli.LookupBatchCtx(ctx, []int64{1}); err == nil {
		t.Error("canceled context accepted")
	}
	if srv.Requests() != 0 {
		t.Errorf("canceled lookup reached the server (%d requests)", srv.Requests())
	}
}

// TestDimProbe: the 'D' frame reports the server's table width, which is
// what lets clients reject a mis-bound table at dial or bind time rather
// than decode corrupt rows at predict time.
func TestDimProbe(t *testing.T) {
	srv := kvstore.NewServer(3, 0)
	addr, err := srv.Start()
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(kvstore.AppendDimProbe(nil)); err != nil {
		t.Fatalf("write probe: %v", err)
	}
	dim, err := kvstore.ReadDimResponse(conn)
	if err != nil || dim != 3 {
		t.Errorf("dim probe = %d, %v; want 3", dim, err)
	}
	if srv.Requests() != 0 {
		t.Errorf("dim probe counted as %d MGET requests, want 0", srv.Requests())
	}
	if _, err := store.Dial(context.Background(), store.Config{Addr: addr, ExpectDim: 4}); err == nil {
		t.Error("Dial expecting 4-wide rows accepted a 3-wide server")
	}
}

// appendMGetResponse frames rows as a server answers an MGET (nil rows
// missing).
func appendMGetResponse(dst []byte, rows [][]float64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rows)))
	for _, row := range rows {
		if row == nil {
			dst = binary.LittleEndian.AppendUint32(dst, kvstore.MissingDim)
			continue
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(row)))
		for _, v := range row {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// FuzzKVStoreFrames feeds arbitrary bytes to the client's frame readers: a
// dim-probe answer followed by an MGET response of the width it reported,
// and the same bytes as an MGET response of a fixed width. Nothing may panic
// or allocate by a width no check has bounded, and a nil error means one row
// per key, each missing (nil) or exactly the width.
func FuzzKVStoreFrames(f *testing.F) {
	dim2 := binary.LittleEndian.AppendUint32(nil, 2)
	f.Add(appendMGetResponse(dim2, [][]float64{{1, 2}, nil, {math.NaN(), -0.0}}), uint8(3))
	f.Add(appendMGetResponse(dim2, nil), uint8(0))
	f.Add(appendMGetResponse(binary.LittleEndian.AppendUint32(nil, 0), [][]float64{{}, nil}), uint8(2))
	f.Add(appendMGetResponse(binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFE), [][]float64{{1}}), uint8(1))
	f.Add(appendMGetResponse(dim2, [][]float64{{1, 2, 3}}), uint8(1))
	f.Add(append(appendMGetResponse(dim2, [][]float64{{1, 2}}), 0xFF, 0xFF, 0xFF, 0xFF), uint8(2))
	f.Fuzz(func(t *testing.T, frame []byte, nkeys uint8) {
		check := func(what string, r *bytes.Reader, dim int) {
			rows, err := kvstore.ReadMGetResponse(r, int(nkeys), dim)
			if err != nil {
				return
			}
			if len(rows) != int(nkeys) {
				t.Fatalf("%s: %d rows for %d keys", what, len(rows), nkeys)
			}
			for i, row := range rows {
				if row != nil && len(row) != dim {
					t.Fatalf("%s: row %d is %d wide, want %d", what, i, len(row), dim)
				}
			}
		}
		r := bytes.NewReader(frame)
		if dim, err := kvstore.ReadDimResponse(r); err == nil {
			check("after dim probe", r, dim)
		}
		check("fixed width", bytes.NewReader(frame), 2)
	})
}

package main

// The serving workload's per-layer run: the rate ladder, the server's own
// latency counters, the traced open-loop pass and closed-loop saturation.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"
)

// lagLimitUs is how late the generator may run at the top rate (p99) before
// the rate ladder is reported as invalid.
const lagLimitUs = 200.0

// httpLayers spends a fifth of total on each of: the three ladder rates
// untraced, the base rate traced, and closed-loop saturation.
func httpLayers(ctx context.Context, inst *instance, total float64, rec *recorder, l map[string]float64) (measured, tracedPass) {
	h := inst.http
	phase := total / 5
	stats0, _ := h.reg.Stats(httpModel)
	bytes0, reqs0 := h.rt.bytes.Load(), h.rt.reqs.Load()

	var rates []rateResult
	var serverP50, serverP99 time.Duration
	for k, qps := range rateLadder {
		r := openPhase(ctx, h, qps, phase, h.send)
		rates = append(rates, r)
		fmt.Printf("   open loop %5g QPS: %d sent, %d not ok, p50 %.1f us, p99 %.1f us, generator lag p99 %.1f us, last-window wait %.1f us, met=%v\n",
			qps, r.attempted, r.notOK, r.p50us, r.p99us, r.lagP99us, r.lastWaitMeanUs, r.met())
		if k == 0 {
			// The registry's latency window holds its most recent requests:
			// read it while those are the base rate's.
			st, _ := h.reg.Stats(httpModel)
			serverP50, serverP99 = st.LatencyP50, st.LatencyP99
			l["serving.wire_bytes_per_req"] = float64(h.rt.bytes.Load()-bytes0) / float64(max(h.rt.reqs.Load()-reqs0, 1))
		}
	}
	base, top := rates[0], rates[len(rates)-1]

	// Traced pass at the base rate. A sampled request is the root span; the
	// server's share of it is read from the registry's counter (its p50 at
	// this rate), and the same row is then answered in process.
	every := sampleEvery(inst)
	var mu sync.Mutex
	var inproc []int64
	var tp tracedPass
	tracedSend := func(ctx context.Context, i int) error {
		if i%every != 0 {
			return h.send(ctx, i)
		}
		mu.Lock()
		defer mu.Unlock()
		req := i/every + 1
		first := len(rec.spans)
		root := rec.begin(req, 0, "serving.client_rtt")
		err := h.send(ctx, i)
		rec.end(root)
		if err != nil {
			rec.spans = rec.spans[:first]
			return err
		}
		start := rec.spans[root-1].Start
		server := rec.add(req, root, "serving.server", start, start+int64(serverP50))
		in := h.inputs[h.stream[i%len(h.stream)]]
		call := rec.begin(req, server, "core.predict_batch")
		_, err = h.o.PredictBatch(ctx, in)
		rec.end(call)
		if err != nil {
			return err
		}
		inproc = append(inproc, rec.spans[call-1].End-rec.spans[call-1].Start)
		tp.roots++
		tp.rows++
		return predictBatchLayers(ctx, rec, req, call, h.o, in)
	}
	tr := openPhase(ctx, h, rateLadder[0], phase, tracedSend)
	tp.p50us, tp.attempted, tp.failed = tr.p50us, tr.attempted, tr.notOK

	sat := measureClosed(ctx, inst, phase)
	stats1, _ := h.reg.Stats(httpModel)

	slices.Sort(inproc)
	inprocP50 := float64(percentile(inproc, 50)) / 1e3
	l["serving.client_rtt_p50_us"] = base.p50us
	l["serving.server_p50_us"] = float64(serverP50) / 1e3
	l["serving.server_p99_us"] = float64(serverP99) / 1e3
	l["serving.transport_self_us"] = base.p50us - float64(serverP50)/1e3
	l["serving.tier_self_us"] = float64(serverP50)/1e3 - inprocP50
	l["serving.sat_qps"] = sat.rowsPerS
	l["serving.p99_us_r2000"] = rates[1].p99us
	l["serving.p99_us_r4000"] = top.p99us
	for _, r := range rates {
		if r.met() {
			l["serving.max_rate_qps"] = r.qps
		}
	}
	l["serving.rejected"] = float64(stats1.Rejected - stats0.Rejected)
	l["serving.errors"] = float64(stats1.Errors - stats0.Errors)
	l["bench.sched_lag_p99_us"] = top.lagP99us
	if top.lagP99us < lagLimitUs {
		l["bench.ladder_valid"] = 1
	} else {
		fmt.Printf("   rate ladder INVALID: generator lag p99 at %g QPS is %.1f us (limit %.0f us)\n", top.qps, top.lagP99us, lagLimitUs)
	}

	m := measured{p50us: base.p50us, p99us: base.p99us, rowsPerS: sat.rowsPerS, mem: sat.mem, memOps: sat.memOps, firstErr: sat.firstErr,
		attempted: sat.attempted, failed: sat.failed}
	for _, r := range rates {
		m.attempted += r.attempted
		m.failed += r.notOK
	}
	return m, tp
}

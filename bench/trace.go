package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// runTraced measures the per-layer metrics of one workload: an untraced
// repetition for reference, the same repetition again with a tap on every
// connection, then the stepper and the link probes. Nothing measured here
// feeds an end-to-end metric.
func runTraced(w *workload, rc runConfig) (workloadResult, error) {
	out := workloadResult{Name: w.name, Metrics: map[string]sample{}}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return out, err
	}
	p := makePlan(w, rc.seed, rc.repOps(w))
	plain, err := runRep(w, p, rc.rig(), "")
	if err != nil {
		return out, fmt.Errorf("%s untraced repetition: %w", w.name, err)
	}
	out.absorb(&plain)
	cfg := rc.rig()
	cfg.traced = true
	traced, err := runRep(w, p, cfg, filepath.Join(rc.outDir, "spans-"+w.name+".csv"))
	if err != nil {
		return out, fmt.Errorf("%s traced repetition: %w", w.name, err)
	}
	out.absorb(&traced)

	m := map[string]float64{}
	for name, xs := range traced.spans {
		m[name] = p50(xs)
	}
	c := traced.counts
	m["transport.ops_per_write"] = ratio(c.writeOps.Load(), c.writes.Load())
	m["transport.ops_per_recv"] = ratio(c.recvOps.Load(), c.recvs.Load())
	from, to := traced.marks[0], traced.marks[len(traced.marks)-1]
	ops := float64(max(1, to.done-from.done))
	m["wire.encodes_per_broadcast"] = float64(to.encodes-from.encodes) / ops
	m["transport.tcp_bytes_per_op"] = float64(to.tcpBytes-from.tcpBytes) / ops
	m["transport.flushes_per_op"] = float64(to.tcpFlushes-from.tcpFlushes) / ops
	m["transport.sender_flushes_per_op"] = float64(to.sndFlushes-from.sndFlushes) / ops
	m["netpoll.wakeups_per_op"] = float64(to.wakeups-from.wakeups) / ops
	m["runtime.allocs_per_op"] = float64(to.allocs-from.allocs) / ops
	m["runtime.gc_pause_us_per_op"] = (to.gcPauseS - from.gcPauseS) * 1e6 / float64(runtime.GOMAXPROCS(0)) / ops
	m["runtime.sched_latency_p99_us"] = histDeltaP99(from.sched, to.sched)
	m["runtime.goroutines"] = float64(to.goroutines)
	if base := plain.typical(sliceOpsPerS); base > 0 {
		m["trace.overhead_pct"] = 100 * (base - traced.typical(sliceOpsPerS)) / base
	}

	if err := step(w, p, m); err != nil {
		return out, fmt.Errorf("%s stepper: %w", w.name, err)
	}
	if err := probeLinks(rc.outDir, rc.linkRounds(), m); err != nil {
		return out, fmt.Errorf("%s link probes: %w", w.name, err)
	}

	// The budget: the hops one edit crosses from Editor.Insert to the
	// observer's integrate, each at its stand-alone p50, against the
	// untraced propagate p50. What is left over is scheduling, kernel and
	// queueing time that no layer's own work explains.
	attributed := (m["editor.local_ns"] + m["wire.clientop_encode_ns"] + 2*m["transport.tcp_oneway_ns"] +
		m["wire.clientop_decode_ns"] + m["server.session_receive_ns"] + m["wire.broadcast_encode_ns"] +
		m["wire.serverop_decode_ns"] + m["core.client_integrate_ns"]) / 1e3
	e2e := plain.typical(slicePropagate(0.5))
	m["budget.attributed_us"] = attributed
	m["budget.unattributed_us"] = e2e - attributed
	if e2e > 0 {
		m["budget.unattributed_share"] = 100 * (e2e - attributed) / e2e
	}
	out.Diagnostics = map[string]sample{"propagate_p50_us": summarize([]float64{e2e}, plain.measured)}

	for _, def := range perLayer {
		out.Metrics[def.Name] = summarize([]float64{m[def.Name]}, traced.measured)
	}
	return out, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeSpans dumps the traced repetition's span tables: one row per
// operation (the parent span, issued → integrated) with the boundaries of
// its child spans, in nanoseconds since the process started.
func (r *rig) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "session,site,seq,issued,local_done,send_enter,send_exit,arrived,integrated")
	for _, wr := range r.writers {
		for k := range wr.issued {
			fmt.Fprintf(bw, "%s,%d,%d,%d,%d,%d,%d,%d,%d\n", wr.sess.name, wr.site, k+1,
				wr.issued[k], wr.done[k], wr.sendEnter[k], wr.sendExit[k], wr.arrived[k], wr.integrated[k])
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

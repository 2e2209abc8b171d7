package repro

// E14 — stage-latency decomposition of one op's lifecycle over loopback TCP.
// Every editor and the server share one in-process span.Tracer, so a sampled
// op accumulates all thirteen stage stamps in a single record: the client
// stages from the originating editor (generate → write), the server stages
// from the poller/session actor (poll_wake → bcast_enqueue), and the
// finishing stamp from the first remote editor to integrate the broadcast.
// The test gates full stage coverage at N=128 clients; the benchmark reports
// the per-stage p50/p99 table EXPERIMENTS.md records.

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/transport/netpoll"
)

// e14Session is one traced loopback-TCP session behind the session server.
type e14Session struct {
	reg  *obs.Registry
	tr   *span.Tracer
	mgr  *server.Manager
	svc  *server.Service
	ln   transport.Listener
	pl   *netpoll.Poller // private poller (epoll path only)
	eds  []*Editor
	poll bool // server listener is the epoll path, so poll_wake fires
}

// startE14 brings up the lean session server on a loopback TCP listener
// (epoll-backed where the platform has it), attaches `sites` editors to one
// session, and wires every layer to a single SampleEvery=1 tracer. On the
// epoll path both the listener AND the client dials attach to one private
// poller: the in-process client readers then ride the poller's
// spin-then-park wakeups instead of each parking in the runtime netpoller
// (whose forced-poll quantization is exactly what E14 measures).
func startE14(tb testing.TB, sites int) *e14Session {
	tb.Helper()
	s := &e14Session{reg: obs.NewRegistry("e14")}
	s.tr = span.NewTracer(s.reg, span.Config{SampleEvery: 1})

	if netpoll.Available() {
		pl, err := netpoll.NewPoller()
		if err != nil {
			tb.Fatal(err)
		}
		if s.ln, err = netpoll.ListenTCP("127.0.0.1:0", netpoll.WithPoller(pl)); err != nil {
			_ = pl.Close()
			tb.Fatal(err)
		}
		s.pl, s.poll = pl, true
	}
	if s.ln == nil {
		var err error
		if s.ln, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
			tb.Fatal(err)
		}
	}
	s.mgr = server.NewManager(server.WithSpanTracer(s.tr))
	s.svc = server.Serve(s.ln, s.mgr, server.WithSharedWorkers(-1))

	s.eds = make([]*Editor, sites)
	for i := range s.eds {
		var conn transport.Conn
		var err error
		if s.poll {
			conn, err = netpoll.DialTCP(s.ln.Addr(), netpoll.WithPoller(s.pl))
		} else {
			conn, err = transport.DialTCP(s.ln.Addr())
		}
		if err != nil {
			tb.Fatalf("dial %d: %v", i, err)
		}
		ed, err := ConnectSession(conn, "e14", 0)
		if err != nil {
			tb.Fatalf("join %d: %v", i, err)
		}
		ed.TraceSpans(s.tr)
		s.eds[i] = ed
	}
	tb.Cleanup(s.close)
	return s
}

func (s *e14Session) close() {
	for _, ed := range s.eds {
		_ = ed.Close()
	}
	s.svc.Close()
	s.mgr.Close()
	if s.pl != nil {
		_ = s.pl.Close()
	}
}

// waitFinished spins until the tracer has completed `want` spans — i.e. every
// traced op reached remote_integrate on some peer. Spin first, then sleep:
// under GOMAXPROCS=1 the netpoll dispatcher needs the scheduler to yield.
func waitFinished(tb testing.TB, tr *span.Tracer, want uint64, timeout time.Duration) {
	tb.Helper()
	deadline := time.Now().Add(timeout)
	for spins := 0; tr.Completed() < want; spins++ {
		if time.Now().After(deadline) {
			tb.Fatalf("only %d/%d spans finished after %v (in flight %d)",
				tr.Completed(), want, timeout, tr.InFlight())
		}
		if spins < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(5 * time.Microsecond)
		}
	}
}

// e14StageTable renders the per-stage latency table from a registry snapshot,
// in pipeline order, the same decomposition cvcstat's stage view prints.
func e14StageTable(snap obs.Snapshot) string {
	us := func(ns uint64) string { return fmt.Sprintf("%.1f", float64(ns)/1e3) }
	var t stats.Table
	t.Header("stage", "count", "p50(us)", "p99(us)", "max(us)")
	row := func(name string, h obs.HistSnapshot, ok bool) {
		if !ok {
			t.Row(name, "-", "-", "-", "-")
			return
		}
		t.Row(name, h.Count, us(h.Quantile(0.5)), us(h.Quantile(0.99)), us(h.Max))
	}
	for i := 0; i < span.NumStages; i++ {
		name := span.Stage(i).Name()
		h, ok := snap.Hists[span.StageHistName(span.Stage(i))]
		row(name, h, ok && h.Count > 0)
	}
	h, ok := snap.Hists[span.HistTotal]
	row("total", h, ok)
	return t.String()
}

// TestE14StageBreakdown is the experiment gate: 128 TCP clients on one
// session, every op sampled, and after convergence every pipeline stage
// histogram holds exactly one delta per op — the full per-stage table the
// issue's acceptance asks for. generate anchors the span clock and records
// no delta; poll_wake appears only on the epoll path.
func TestE14StageBreakdown(t *testing.T) {
	sites := 128
	if testing.Short() {
		sites = 8
	}
	const nOps = 128
	raiseTestNoFile(uint64(2*sites) + 512)
	s := startE14(t, sites)

	// Spread generation across four origins so the client-side stamps are
	// not an artifact of one editor's sender.
	origins := s.eds[:4]
	for i := 0; i < nOps; i++ {
		ed := origins[i%len(origins)]
		if err := ed.Insert(ed.Len(), "x"); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if i%16 == 15 { // quiesce in bursts so queues stay bounded
			waitFinished(t, s.tr, uint64(i+1), 30*time.Second)
		}
	}
	waitFinished(t, s.tr, nOps, 30*time.Second)

	// Convergence: every replica holds all nOps runes.
	deadline := time.Now().Add(30 * time.Second)
	for _, ed := range s.eds {
		for ed.Len() != nOps {
			if time.Now().After(deadline) {
				t.Fatalf("editor stalled at %d/%d runes", ed.Len(), nOps)
			}
			time.Sleep(time.Millisecond)
		}
		if err := ed.Err(); err != nil {
			t.Fatal(err)
		}
	}

	snap := s.reg.Snapshot()
	if got := snap.Counters[span.CStarted]; got != nOps {
		t.Errorf("spans started = %d, want %d", got, nOps)
	}
	if got := snap.Counters[span.CEvicted]; got != 0 {
		t.Errorf("spans evicted = %d, want 0", got)
	}
	for i := 0; i < span.NumStages; i++ {
		st := span.Stage(i)
		h := snap.Hists[span.StageHistName(st)]
		var want uint64 = nOps
		switch {
		case st == span.StageGenerate:
			want = 0 // first stamp anchors the clock, no delta
		case st == span.StagePollWake && !s.poll:
			want = 0 // no readiness poller on this platform
		}
		if h.Count != want {
			t.Errorf("stage %s recorded %d deltas, want %d", st.Name(), h.Count, want)
		}
	}
	if h := snap.Hists[span.HistTotal]; h.Count != nOps {
		t.Errorf("span.total.ns count = %d, want %d", h.Count, nOps)
	}

	// The completed ring holds fully-stamped spans, newest first.
	for _, sp := range s.tr.Spans(8) {
		if !sp.Complete {
			t.Errorf("ring span site=%d seq=%d incomplete", sp.Site, sp.Seq)
		}
		for i := 0; i < span.NumStages; i++ {
			if span.Stage(i) == span.StagePollWake && !s.poll {
				continue
			}
			if sp.Stamps[i] == 0 {
				t.Errorf("span site=%d seq=%d missing stage %s", sp.Site, sp.Seq, span.Stage(i).Name())
			}
		}
	}

	t.Logf("E14 stage breakdown (%d clients, %d ops, poller=%v):\n%s",
		sites, nOps, s.poll, e14StageTable(snap))
}

// BenchmarkE14StageBreakdown drives b.N sampled ops through the full TCP
// pipeline (E14_CONNS clients, default 128) and reports the per-stage p99
// decomposition plus the end-to-end p50/p99 — the numbers EXPERIMENTS.md E14
// records. Pipelined with a bounded window so the benchmark measures the
// steady-state pipeline, not one op's round trip at a time.
func BenchmarkE14StageBreakdown(b *testing.B) {
	sites := 128
	if v := os.Getenv("E14_CONNS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 2 {
			b.Fatalf("bad E14_CONNS=%q", v)
		}
		sites = n
	}
	raiseTestNoFile(uint64(2*sites) + 512)
	s := startE14(b, sites)
	ed := s.eds[0]

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ed.Insert(ed.Len(), "x"); err != nil {
			b.Fatalf("op %d: %v", i, err)
		}
		// Keep a small in-flight window: enough to overlap the pipeline
		// stages, small enough that the table reads as stage cost rather
		// than queueing delay.
		if window := uint64(i+1) - s.tr.Completed(); window > 16 {
			waitFinished(b, s.tr, uint64(i+1)-8, time.Minute)
		}
	}
	waitFinished(b, s.tr, uint64(b.N), time.Minute)
	b.StopTimer()

	snap := s.reg.Snapshot()
	for i := 0; i < span.NumStages; i++ {
		st := span.Stage(i)
		if h, ok := snap.Hists[span.StageHistName(st)]; ok && h.Count > 0 {
			b.ReportMetric(float64(h.Quantile(0.99)), st.Name()+"_p99_ns")
		}
	}
	if h, ok := snap.Hists[span.HistTotal]; ok && h.Count > 0 {
		b.ReportMetric(float64(h.Quantile(0.5)), "total_p50_ns")
		b.ReportMetric(float64(h.Quantile(0.99)), "total_p99_ns")
	}
}

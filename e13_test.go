package repro

// E13 — connection capacity of the goroutine-lean layer. The classic layout
// spends two goroutines (reader + writer) and a resident session per
// connection; the lean layout (shared writer pool, event dispatcher, idle
// dehydration) spends zero goroutines on an idle in-memory connection and
// parks idle sessions into compact checkpoints. The smoke test pins the
// O(pool) goroutine claim at 1k connections; BenchmarkE13IdleConnections
// measures goroutines/conn, heap bytes/idle conn, and the active-path p99
// round-trip while the idle fleet is attached (EXPERIMENTS.md E13).

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/transport/netpoll"
	"repro/internal/wire"
)

// joinIdleSession dials a raw connection into the named session and consumes
// the join response. The connection then sits idle: no client-side goroutine
// (neither transport needs one until someone blocks in Recv), and with the
// lean server layer no server-side goroutine either — for mem always, for
// TCP when the readiness poller carries the conn.
func joinIdleSession(dial func() (transport.Conn, error), name string) (transport.Conn, error) {
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	if err := conn.Send(wire.SessionJoinReq{Session: name}); err != nil {
		_ = conn.Close()
		return nil, err
	}
	if _, err := conn.Recv(); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return conn, nil
}

// waitAllParked polls until every session has dehydrated.
func waitAllParked(tb testing.TB, mgr *server.Manager, timeout time.Duration) {
	tb.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resident := 0
		for _, st := range mgr.Stats() {
			if st.Resident {
				resident++
			}
		}
		if resident == 0 {
			return
		}
		if time.Now().After(deadline) {
			tb.Fatalf("%d sessions still resident after %v", resident, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestE13GoroutineLean is the capacity smoke: 1000 idle connections across 50
// sessions on the lean layer must cost O(pool) goroutines — not O(conns) —
// once the fleet parks, and the server must still serve live traffic with the
// idle fleet attached.
func TestE13GoroutineLean(t *testing.T) {
	const (
		conns    = 1000
		sessions = 50
	)
	ln := transport.NewMemListener()
	mgr := server.NewManager(server.WithIdleDehydrate(20 * time.Millisecond))
	svc := server.Serve(ln, mgr, server.WithWriterPool(-1), server.WithEventDispatch(-1))
	defer mgr.Close()
	defer svc.Close()

	g0 := runtime.NumGoroutine()
	held := make([]transport.Conn, 0, conns)
	defer func() {
		for _, c := range held {
			_ = c.Close()
		}
	}()
	for i := 0; i < conns; i++ {
		c, err := joinIdleSession(ln.Dial, fmt.Sprintf("cold%02d", i%sessions))
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		held = append(held, c)
	}
	waitAllParked(t, mgr, 30*time.Second)

	// Transient worker/GC goroutines allow some slack, but the bound must be
	// far below one-per-connection (the classic layout would add 2*conns).
	if grew := runtime.NumGoroutine() - g0; grew > 16 {
		t.Fatalf("goroutines grew by %d for %d idle connections; want O(pool) <= 16", grew, conns)
	}

	assertHotSessionConverges(t, ln.Dial)
}

// assertHotSessionConverges runs live two-editor traffic with whatever idle
// fleet the caller attached still in place.
func assertHotSessionConverges(t *testing.T, dial func() (transport.Conn, error)) {
	t.Helper()
	ca, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	a, err := ConnectSession(ca, "hot", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	cb, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	bEd, err := ConnectSession(cb, "hot", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bEd.Close()
	for i := 0; i < 20; i++ {
		if err := a.Insert(i, "h"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for bEd.Len() != 20 || a.Len() != 20 {
		if time.Now().After(deadline) {
			t.Fatalf("hot session stalled under idle fleet: %d/%d runes", a.Len(), bEd.Len())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestE13PollerTCP is the tentpole gate on real sockets: an idle TCP fleet
// carried by the epoll poller must cost zero goroutines per connection —
// the same O(pool) bound the mem transport gets — and live TCP traffic must
// still converge with the fleet attached. Skipped where no poller exists
// (TestPollerFallback covers those platforms).
func TestE13PollerTCP(t *testing.T) {
	if !netpoll.Available() {
		t.Skip("no readiness poller on this platform")
	}
	const (
		conns    = 512
		sessions = 16
	)
	p, err := netpoll.NewPoller()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ln, err := netpoll.ListenTCP("127.0.0.1:0", netpoll.WithPoller(p))
	if err != nil {
		t.Fatal(err)
	}
	mgr := server.NewManager(server.WithIdleDehydrate(20 * time.Millisecond))
	svc := server.Serve(ln, mgr, server.WithWriterPool(-1), server.WithEventDispatch(-1))
	defer mgr.Close()
	defer svc.Close()
	addr := ln.Addr()
	dial := func() (transport.Conn, error) { return transport.DialTCP(addr) }

	g0 := runtime.NumGoroutine()
	held := make([]transport.Conn, 0, conns)
	defer func() {
		for _, c := range held {
			_ = c.Close()
		}
	}()
	for i := 0; i < conns; i++ {
		c, err := joinIdleSession(dial, fmt.Sprintf("cold%02d", i%sessions))
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		held = append(held, c)
	}
	waitAllParked(t, mgr, 30*time.Second)

	if grew := runtime.NumGoroutine() - g0; grew > 16 {
		t.Fatalf("goroutines grew by %d for %d idle TCP connections; want O(pool) <= 16", grew, conns)
	}

	assertHotSessionConverges(t, dial)
}

// TestPollerFallback forces the -poller=off path: a plain dedicated-reader
// TCP listener under the same lean server options. The E13 gate assertions
// re-run with the fallback's own goroutine budget — exactly one reader per
// connection, since plain tcpConns are not EventConns — and live traffic
// must converge identically. This is the path every non-Linux platform runs,
// so the test runs everywhere.
func TestPollerFallback(t *testing.T) {
	const (
		conns    = 128
		sessions = 8
	)
	ln, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mgr := server.NewManager(server.WithIdleDehydrate(20 * time.Millisecond))
	svc := server.Serve(ln, mgr, server.WithWriterPool(-1), server.WithEventDispatch(-1))
	defer mgr.Close()
	defer svc.Close()
	addr := ln.Addr()
	dial := func() (transport.Conn, error) { return transport.DialTCP(addr) }

	// The lower bound below is exact, so the baseline must not count a
	// goroutine an earlier test left winding down: wait for the count to hold
	// still before taking it.
	g0 := runtime.NumGoroutine()
	for settle := time.Now().Add(time.Second); time.Now().Before(settle); {
		time.Sleep(10 * time.Millisecond)
		g := runtime.NumGoroutine()
		if g == g0 {
			break
		}
		g0 = g
	}
	held := make([]transport.Conn, 0, conns)
	defer func() {
		for _, c := range held {
			_ = c.Close()
		}
	}()
	for i := 0; i < conns; i++ {
		c, err := joinIdleSession(dial, fmt.Sprintf("cold%02d", i%sessions))
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		held = append(held, c)
	}
	waitAllParked(t, mgr, 30*time.Second)

	grew := runtime.NumGoroutine() - g0
	if grew < conns {
		t.Fatalf("fallback grew %d goroutines for %d conns; want a dedicated reader each", grew, conns)
	}
	if grew > conns+16 {
		t.Fatalf("fallback grew %d goroutines for %d conns; want ~1/conn + O(pool)", grew, conns)
	}

	assertHotSessionConverges(t, dial)
}

// BenchmarkE13IdleConnections holds an idle fleet (E13_CONNS, default 2048;
// EXPERIMENTS.md E13's mem row is E13_CONNS=100000) with a ~1% active set and
// reports capacity metrics: goroutines per idle connection, heap bytes per
// idle connection (after the sessions park), and the p99 editor→editor
// round-trip on the active set while the fleet is attached.
func BenchmarkE13IdleConnections(b *testing.B) {
	ln := transport.NewMemListener()
	runE13IdleBench(b, e13BenchConns(), ln, ln.Dial)
}

// BenchmarkE13IdleConnectionsTCP is the same capacity measurement over real
// loopback TCP. On poller-capable platforms the fleet rides the epoll poller
// (0 goroutines/conn); E13_TCP_POLLER=off — or a platform without a poller —
// measures the dedicated-reader baseline instead (1 goroutine/conn), which
// is the denominator of the "active p99 within 2× of dedicated" acceptance
// gate.
func BenchmarkE13IdleConnectionsTCP(b *testing.B) {
	conns := e13BenchConns()
	raiseTestNoFile(uint64(2*conns) + 512)
	var ln transport.Listener
	var err error
	if netpoll.Available() && os.Getenv("E13_TCP_POLLER") != "off" {
		ln, err = netpoll.ListenTCP("127.0.0.1:0")
	} else {
		ln, err = transport.ListenTCP("127.0.0.1:0")
	}
	if err != nil {
		b.Fatal(err)
	}
	addr := ln.Addr()
	runE13IdleBench(b, conns, ln, func() (transport.Conn, error) { return transport.DialTCP(addr) })
}

// e13BenchConns sizes the idle fleet (E13_CONNS, default 2048).
func e13BenchConns() int {
	conns := 2048
	if s := os.Getenv("E13_CONNS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			conns = v
		}
	}
	return conns
}

func runE13IdleBench(b *testing.B, conns int, ln transport.Listener, dial func() (transport.Conn, error)) {
	const perSession = 32
	sessions := (conns + perSession - 1) / perSession

	mgr := server.NewManager(server.WithIdleDehydrate(10 * time.Millisecond))
	svc := server.Serve(ln, mgr, server.WithWriterPool(-1), server.WithEventDispatch(-1))
	defer mgr.Close()
	defer svc.Close()

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	g0 := runtime.NumGoroutine()

	held := make([]transport.Conn, 0, conns)
	defer func() {
		for _, c := range held {
			_ = c.Close()
		}
	}()
	for i := 0; i < conns; i++ {
		c, err := joinIdleSession(dial, fmt.Sprintf("cold%04d", i%sessions))
		if err != nil {
			b.Fatalf("conn %d: %v", i, err)
		}
		held = append(held, c)
	}
	waitAllParked(b, mgr, time.Minute)

	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	bytesPer := float64(0)
	if m1.HeapAlloc > m0.HeapAlloc {
		bytesPer = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(conns)
	}
	// Reported after the timed loop: ResetTimer deletes user metrics.
	goroutinesPer := float64(runtime.NumGoroutine()-g0) / float64(conns)

	// The ~1% active set: editor pairs in hot sessions, round-robin ops.
	nPairs := conns / 200 // 2 editors per pair ≈ 1% of conns
	if nPairs < 1 {
		nPairs = 1
	}
	type pair struct {
		a, b *Editor
		seen int
	}
	hot := make([]*pair, nPairs)
	for i := range hot {
		name := fmt.Sprintf("hot%02d", i)
		ca, err := dial()
		if err != nil {
			b.Fatal(err)
		}
		a, err := ConnectSession(ca, name, 0)
		if err != nil {
			b.Fatal(err)
		}
		defer a.Close()
		cb, err := dial()
		if err != nil {
			b.Fatal(err)
		}
		e2, err := ConnectSession(cb, name, 0)
		if err != nil {
			b.Fatal(err)
		}
		defer e2.Close()
		hot[i] = &pair{a: a, b: e2}
	}

	b.ResetTimer()
	lat := make([]time.Duration, 0, b.N)
	for i := 0; i < b.N; i++ {
		p := hot[i%len(hot)]
		start := time.Now()
		if err := p.a.Insert(0, "x"); err != nil {
			b.Fatal(err)
		}
		p.seen++
		// Spin briefly, then block. The mem transport delivers through
		// channels within a few yields, but an unbounded Gosched spin keeps
		// the only P runnable on GOMAXPROCS=1, so TCP readiness sits in the
		// runtime netpoller until sysmon's forced ~10ms poll — the TCP legs
		// would measure scheduler starvation (two hops ≈ 20ms/op) instead
		// of transport latency. Sleeping parks the P in netpoll, which
		// delivers edges immediately.
		for spin := 0; p.b.Len() != p.seen; spin++ {
			if spin < 64 {
				runtime.Gosched()
			} else {
				time.Sleep(5 * time.Microsecond)
			}
		}
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	b.ReportMetric(goroutinesPer, "goroutines_conn")
	b.ReportMetric(bytesPer, "B_idleconn")
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		b.ReportMetric(float64(lat[len(lat)*99/100]), "p99_ns")
	}
}

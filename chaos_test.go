package repro

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/transport/netpoll"
	"repro/internal/wire"
)

// TestChaosDisconnectsAndRejoins subjects a live session to editor churn:
// editors write concurrently while some are abruptly closed and replaced.
// The survivors must converge with the notifier and never wedge.
func TestChaosDisconnectsAndRejoins(t *testing.T) {
	ln := transport.NewMemListener()
	nt, err := Serve(ln, "chaos base document")
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()
	runChaosChurn(t, ln.Dial, nt)
}

// TestChaosLeanNotifier runs the same churn against the goroutine-lean
// connection layer (shared writer pool + event dispatcher): pooled drains
// and dispatched reads must be behaviorally indistinguishable from the
// dedicated-goroutine layout under disconnects and races.
func TestChaosLeanNotifier(t *testing.T) {
	ln := transport.NewMemListener()
	sess, svc := serveLeanChaos(t, ln, -1)
	runChaosChurn(t, ln.Dial, sess)
	waitDispatcherEmpty(t, svc)
}

// serveLeanChaos serves the chaos document on the goroutine-lean layout —
// `workers` pooled writers and dispatch workers (-1 = GOMAXPROCS) — and
// returns the default session the plain-join editors land in.
func serveLeanChaos(t *testing.T, ln transport.Listener, workers int) (*server.Session, *server.Service) {
	t.Helper()
	mgr := server.NewManager(server.WithInitialText("chaos base document"))
	sess, err := mgr.GetOrCreate("")
	if err != nil {
		t.Fatal(err)
	}
	svc := server.Serve(ln, mgr, server.WithWriterPool(workers), server.WithEventDispatch(workers))
	t.Cleanup(func() {
		svc.Close()
		mgr.Close()
	})
	return sess, svc
}

// waitDispatcherEmpty asserts exactly-once retire after the churn hung every
// editor up: the dispatcher must drain to zero registered connections — a
// leaked dispatchConn or a double-retire would leave the count wrong forever.
func waitDispatcherEmpty(t *testing.T, svc *server.Service) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for svc.Dispatched() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("dispatcher leaked %d connections after churn", svc.Dispatched())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// chaosNotifier is what the churn needs of site 0: exact message counts for
// quiescence and the authoritative text. *Notifier and the *server.Session
// behind any Service both provide it.
type chaosNotifier interface {
	Counts() (received, sent map[int]uint64)
	Text() string
}

// runChaosChurn drives editor churn over any transport: dialConn is how a
// new editor reaches the notifier (mem pipe or real TCP).
func runChaosChurn(t *testing.T, dialConn func() (transport.Conn, error), nt chaosNotifier) {
	dial := func() *Editor {
		t.Helper()
		conn, err := dialConn()
		if err != nil {
			t.Fatal(err)
		}
		e, err := Connect(conn, 0)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	var mu sync.Mutex
	editors := map[int]*Editor{}
	for i := 0; i < 4; i++ {
		e := dial()
		editors[e.Site()] = e
	}

	r := rand.New(rand.NewSource(31337))
	for round := 0; round < 30; round++ {
		// Every live editor makes a burst of edits concurrently.
		var wg sync.WaitGroup
		mu.Lock()
		live := make([]*Editor, 0, len(editors))
		for _, e := range editors {
			live = append(live, e)
		}
		mu.Unlock()
		for _, e := range live {
			wg.Add(1)
			go func(e *Editor) {
				defer wg.Done()
				for k := 0; k < 3; k++ {
					n := e.Len()
					pos := 0
					if n > 0 {
						pos = rand.New(rand.NewSource(int64(k))).Intn(n + 1)
					}
					if err := e.Insert(pos, fmt.Sprintf("<%d>", e.Site())); err != nil && e.Err() == nil {
						// Local validation errors are fine; background
						// failures are not (checked at the end).
						return
					}
				}
			}(e)
		}
		wg.Wait()

		// Randomly kill one editor and bring a replacement in.
		if r.Intn(3) == 0 {
			mu.Lock()
			for site, e := range editors {
				_ = e.Close()
				delete(editors, site)
				break
			}
			mu.Unlock()
			e := dial()
			mu.Lock()
			editors[e.Site()] = e
			mu.Unlock()
		}
	}

	// Quiesce the survivors.
	deadline := time.Now().Add(15 * time.Second)
	for {
		received, sent := nt.Counts()
		quiet := true
		mu.Lock()
		for _, e := range editors {
			fromServer, local := e.SV()
			if received[e.Site()] != local || sent[e.Site()] != fromServer {
				quiet = false
				break
			}
		}
		mu.Unlock()
		if quiet {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("chaos session did not quiesce")
		}
		time.Sleep(2 * time.Millisecond)
	}

	want := nt.Text()
	mu.Lock()
	defer mu.Unlock()
	for site, e := range editors {
		if err := e.Err(); err != nil {
			t.Fatalf("editor %d failed: %v", site, err)
		}
		if e.Text() != want {
			t.Fatalf("survivor %d diverged: %q vs %q", site, e.Text(), want)
		}
	}
	// Hang up the survivors so callers can assert server-side teardown
	// (dispatcher retire, goroutine return) after the churn.
	for _, e := range editors {
		_ = e.Close()
	}
}

// TestChaosPollerTCP runs the churn schedule over real TCP through the epoll
// readiness poller, with 4 KiB socket buffers and a 7-byte read chunk so
// nearly every frame arrives split and the partial-frame reassembly path is
// exercised under kill/replace races. After the churn it asserts exactly-once
// retire (waitDispatcherEmpty).
func TestChaosPollerTCP(t *testing.T) {
	chaosPollerTCP(t, 0) // package defaults: single-instance layout on 1-CPU boxes
}

// TestChaosPollerTCPSharded reruns the poller churn with the sharded
// scheduling layout forced on (DESIGN.md §18): 4 epoll shards, 4 writers and
// dispatch workers over 4-way ready rings, and enough idle replicas attached
// that every broadcast reaches transport.DefaultFanoutThreshold destinations
// and fans out in parallel. Kill/replace races must survive work stealing and
// chunked fan-out with the same exactly-once retire guarantee.
func TestChaosPollerTCPSharded(t *testing.T) {
	chaosPollerTCP(t, 4)
}

func chaosPollerTCP(t *testing.T, shards int) {
	if !netpoll.Available() {
		t.Skip("epoll poller not available on this platform")
	}
	p, err := netpoll.NewPoller(netpoll.WithPollerShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ln, err := netpoll.ListenTCP("127.0.0.1:0",
		netpoll.WithPoller(p), netpoll.WithSockBuf(4096), netpoll.WithReadChunk(7))
	if err != nil {
		t.Fatal(err)
	}
	workers := -1
	if shards > 0 {
		workers = shards // one ready-ring shard per worker
	}
	sess, svc := serveLeanChaos(t, ln, workers)
	if shards > 0 && p.Shards() != shards {
		t.Fatalf("poller built %d shards, want %d", p.Shards(), shards)
	}
	addr := ln.Addr()
	dial := func() (transport.Conn, error) { return transport.DialTCP(addr) }
	var idle []*Editor
	if shards > 0 {
		for i := 0; i < transport.DefaultFanoutThreshold; i++ {
			conn, err := dial()
			if err != nil {
				t.Fatal(err)
			}
			e, err := Connect(conn, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			idle = append(idle, e)
		}
	}
	fanouts := transport.FanoutParallel()
	runChaosChurn(t, dial, sess)
	if shards > 0 && transport.FanoutParallel() == fanouts {
		t.Fatal("no broadcast took the parallel fan-out path")
	}
	// The idle replicas saw every edit only through the parallel fan-out.
	want := sess.Text()
	deadline := time.Now().Add(15 * time.Second)
	for i, e := range idle {
		for e.Text() != want {
			if err := e.Err(); err != nil || time.Now().After(deadline) {
				t.Fatalf("idle replica %d did not converge (err=%v)", i, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
		_ = e.Close()
	}
	waitDispatcherEmpty(t, svc)
}

// TestSlowConsumerDoesNotBlockOthers: one editor stops reading (its engine
// is never driven because we hold its connection hostage); everyone else
// must still make progress thanks to the unbounded per-peer send queues.
func TestSlowConsumerDoesNotBlockOthers(t *testing.T) {
	ln := transport.NewMemListener()
	nt, err := Serve(ln, "")
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()

	// A raw connection that joins but never reads its broadcasts.
	rawConn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer rawConn.Close()
	if err := rawConn.Send(mustJoinReq(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := rawConn.Recv(); err != nil { // consume only the snapshot
		t.Fatal(err)
	}

	// Two healthy editors exchange a large volume of edits.
	a := mustConnect(t, ln)
	defer a.Close()
	b := mustConnect(t, ln)
	defer b.Close()
	for i := 0; i < 500; i++ {
		e := a
		if i%2 == 1 {
			e = b
		}
		if err := e.Insert(e.Len(), "x"); err != nil {
			t.Fatal(err)
		}
	}
	waitQuiet(t, nt, a, b)
	if a.Text() != b.Text() || len(a.Text()) != 500 {
		t.Fatalf("healthy editors stalled: %d/%d runes", len(a.Text()), len(b.Text()))
	}
}

// TestChaosDehydrateMidBurst forces sessions to dehydrate between write
// bursts with an aggressively small idle period while the goroutine-lean
// layer (writer pool + event dispatch) carries the traffic. Every park must
// be either aborted cleanly or rehydrated transparently: both editors of
// every session converge byte-identically on the full edit volume.
func TestChaosDehydrateMidBurst(t *testing.T) {
	reg := obs.NewRegistry("srv")
	ln := transport.NewMemListener()
	mgr := server.NewManager(
		server.WithObservability(reg),
		server.WithIdleDehydrate(2*time.Millisecond),
	)
	svc := server.Serve(ln, mgr, server.WithWriterPool(-1), server.WithEventDispatch(-1))
	defer mgr.Close()
	defer svc.Close()

	const (
		sessions = 3
		rounds   = 20
		perRound = 3
	)
	type pair struct{ a, b *Editor }
	docs := make([]pair, sessions)
	for i := range docs {
		name := fmt.Sprintf("doc%d", i)
		for _, ed := range []**Editor{&docs[i].a, &docs[i].b} {
			conn, err := ln.Dial()
			if err != nil {
				t.Fatal(err)
			}
			e, err := ConnectSession(conn, name, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			*ed = e
		}
	}

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for _, d := range docs {
			for _, e := range []*Editor{d.a, d.b} {
				wg.Add(1)
				go func(e *Editor) {
					defer wg.Done()
					for k := 0; k < perRound; k++ {
						if err := e.Insert(0, "z"); err != nil {
							t.Errorf("site %d: %v", e.Site(), err)
							return
						}
					}
				}(e)
			}
		}
		wg.Wait()
		if round%4 == 3 {
			time.Sleep(8 * time.Millisecond) // a park-sized gap mid-burst
		}
	}

	want := 2 * rounds * perRound
	deadline := time.Now().Add(15 * time.Second)
	for i, d := range docs {
		for {
			ta, tb := d.a.Text(), d.b.Text()
			if len(ta) == want && ta == tb {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("doc%d never converged: %d/%d runes, identical=%v",
					i, len(ta), len(tb), ta == tb)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	// The gaps are park-sized, so at least one session must actually have
	// gone through a full dehydrate/rehydrate cycle mid-test.
	if got := reg.Snapshot().Counters[obs.CSessionRehydrations]; got == 0 {
		t.Fatal("no session ever rehydrated; idle period never triggered")
	}
}

func mustJoinReq(site int) wire.Msg { return wire.JoinReq{Site: site} }

func mustConnect(t *testing.T, ln *transport.MemListener) *Editor {
	t.Helper()
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	e, err := Connect(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

package server_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/transport"
)

// waitQuiet polls until every editor has settled on the same text as fn
// keeps returning, or the deadline passes. Editors converge asynchronously;
// tests must not race the read loops.
func waitConverged(t *testing.T, eds []*repro.Editor, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := true
		for _, e := range eds {
			if e.Text() != want {
				done = false
				break
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			for i, e := range eds {
				t.Logf("editor %d: %q (err=%v)", i, e.Text(), e.Err())
			}
			t.Fatalf("editors did not converge on %q", want)
		}
		time.Sleep(time.Millisecond)
	}
}

// eventually polls cond until it holds, failing with what() after 10 s.
func eventually(t *testing.T, cond func() bool, what func() string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(what())
		}
	}
}

// TestManagerConcurrentGetOrCreate hammers the copy-on-write registry from
// many goroutines and checks every name resolves to exactly one session.
func TestManagerConcurrentGetOrCreate(t *testing.T) {
	mgr := server.NewManager()
	defer mgr.Close()

	const names, workers = 8, 16
	got := make([][]*server.Session, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < names; n++ {
				s, err := mgr.GetOrCreate(fmt.Sprintf("doc-%d", n))
				if err != nil {
					t.Errorf("GetOrCreate: %v", err)
					return
				}
				got[w] = append(got[w], s)
			}
		}(w)
	}
	wg.Wait()
	if mgr.Len() != names {
		t.Fatalf("registry has %d sessions, want %d", mgr.Len(), names)
	}
	for w := 1; w < workers; w++ {
		for n := 0; n < names; n++ {
			if got[w][n] != got[0][n] {
				t.Fatalf("worker %d got a different instance for doc-%d", w, n)
			}
		}
	}
	if s, ok := mgr.Get("doc-3"); !ok || s != got[0][3] {
		t.Fatalf("Get(doc-3) = %v, %v", s, ok)
	}
	if _, ok := mgr.Get("absent"); ok {
		t.Fatal("Get of an absent name succeeded")
	}
}

// TestSessionIsolation runs two named documents over one listener and checks
// that edits in one never leak into the other while each converges on its
// own content.
func TestSessionIsolation(t *testing.T) {
	ln := transport.NewMemListener()
	mgr := server.NewManager(server.WithInitialText("base"))
	svc := server.Serve(ln, mgr)
	defer mgr.Close()
	defer svc.Close()

	join := func(session string) *repro.Editor {
		t.Helper()
		conn, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		ed, err := repro.ConnectSession(conn, session, 0)
		if err != nil {
			t.Fatal(err)
		}
		return ed
	}
	a1, a2 := join("alpha"), join("alpha")
	b1, b2 := join("beta"), join("beta")
	defer a1.Close()
	defer a2.Close()
	defer b1.Close()
	defer b2.Close()

	if err := a1.Insert(4, " alpha"); err != nil {
		t.Fatal(err)
	}
	if err := b1.Insert(4, " beta"); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, []*repro.Editor{a1, a2}, "base alpha")
	waitConverged(t, []*repro.Editor{b1, b2}, "base beta")

	sa, _ := mgr.Get("alpha")
	sb, _ := mgr.Get("beta")
	if got := sa.Text(); got != "base alpha" {
		t.Fatalf("alpha session text %q", got)
	}
	if got := sb.Text(); got != "base beta" {
		t.Fatalf("beta session text %q", got)
	}
	if names := mgr.Names(); len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("session names %v", names)
	}
}

// TestDefaultSessionCompatible checks the plain single-document client
// protocol (wire.JoinReq via repro.Connect) lands in the default session.
func TestDefaultSessionCompatible(t *testing.T) {
	ln := transport.NewMemListener()
	mgr := server.NewManager(server.WithInitialText("shared"))
	svc := server.Serve(ln, mgr)
	defer mgr.Close()
	defer svc.Close()

	conn1, _ := ln.Dial()
	e1, err := repro.Connect(conn1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()
	conn2, _ := ln.Dial()
	e2, err := repro.ConnectSession(conn2, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()

	if e1.Site() == e2.Site() {
		t.Fatalf("both editors got site %d", e1.Site())
	}
	if err := e1.Insert(0, ">"); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, []*repro.Editor{e1, e2}, ">shared")
}

// TestConcurrentEditorsAcrossSessions drives several editors per session in
// several sessions at once — the workload the sharded manager exists for —
// and checks per-session convergence. Run with -race.
func TestConcurrentEditorsAcrossSessions(t *testing.T) {
	ln := transport.NewMemListener()
	mgr := server.NewManager()
	svc := server.Serve(ln, mgr)
	defer mgr.Close()
	defer svc.Close()

	const sessions, editorsPer, opsEach = 3, 3, 20
	eds := make([][]*repro.Editor, sessions)
	for si := 0; si < sessions; si++ {
		for ei := 0; ei < editorsPer; ei++ {
			conn, err := ln.Dial()
			if err != nil {
				t.Fatal(err)
			}
			ed, err := repro.ConnectSession(conn, fmt.Sprintf("s%d", si), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer ed.Close()
			eds[si] = append(eds[si], ed)
		}
	}

	var wg sync.WaitGroup
	for si := range eds {
		for _, ed := range eds[si] {
			wg.Add(1)
			go func(ed *repro.Editor) {
				defer wg.Done()
				for k := 0; k < opsEach; k++ {
					if err := ed.Insert(0, "x"); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
				}
			}(ed)
		}
	}
	wg.Wait()

	want := ""
	for i := 0; i < editorsPer*opsEach; i++ {
		want += "x"
	}
	for si := range eds {
		waitConverged(t, eds[si], want)
	}
}

// TestSessionRejectsViewerOps joins a viewer and checks the service drops
// the connection if it ever sends an operation.
func TestSessionRejectsViewerOps(t *testing.T) {
	ln := transport.NewMemListener()
	mgr := server.NewManager(server.WithInitialText("doc"))
	svc := server.Serve(ln, mgr)
	defer mgr.Close()
	defer svc.Close()

	conn, _ := ln.Dial()
	viewer, err := repro.ConnectViewer(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer viewer.Close()
	if err := viewer.Insert(0, "!"); err == nil {
		t.Fatal("viewer insert succeeded")
	}

	// Engine-level check of the same policy.
	sess, _ := mgr.GetOrCreate("ro")
	snap, err := sess.Join(0, server.Subscriber{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	cl := core.NewClient(snap.Site, snap.Text)
	m, err := cl.Insert(0, "!")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Receive(m); err == nil {
		t.Fatal("session accepted an op from a viewer")
	}
}

// TestSessionCloseAndDrop checks lifecycle: Drop stops one session without
// touching the rest, and calls after Close fail with ErrClosed.
func TestSessionCloseAndDrop(t *testing.T) {
	mgr := server.NewManager()
	a, err := mgr.GetOrCreate("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := mgr.GetOrCreate("b")
	if err != nil {
		t.Fatal(err)
	}

	mgr.Drop("a")
	if _, ok := mgr.Get("a"); ok {
		t.Fatal("dropped session still registered")
	}
	if _, err := a.Join(0, server.Subscriber{}); err != server.ErrClosed {
		t.Fatalf("Join on dropped session: %v", err)
	}
	if _, err := b.Join(0, server.Subscriber{}); err != nil {
		t.Fatalf("sibling session broken by Drop: %v", err)
	}

	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Receive(core.ClientMsg{From: 1}); err != server.ErrClosed {
		t.Fatalf("Receive after Close: %v", err)
	}
	if _, err := mgr.GetOrCreate("c"); err != server.ErrClosed {
		t.Fatalf("GetOrCreate after Close: %v", err)
	}
}

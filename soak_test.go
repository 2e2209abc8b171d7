package repro

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/transport"
)

// TestSoak runs a prolonged mixed-workload session through the full runtime:
// concurrent editors, viewers, presence traffic, batches, SetText reloads,
// undo, and editor churn — then demands convergence and clean shutdown.
// Skipped with -short.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	ln := transport.NewMemListener()
	reg := obs.NewRegistry("soak")
	nt, err := serve(ln, server.WithInitialText("soak document\n"), server.WithObservability(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer nt.Close()

	dial := func(viewer bool) *Editor {
		t.Helper()
		conn, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		var e *Editor
		if viewer {
			e, err = ConnectViewer(conn, 0)
		} else {
			e, err = Connect(conn, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	var mu sync.Mutex
	editors := map[int]*Editor{}
	// Sites churned out: what they typed before leaving may still be on its
	// way to the notifier when the rounds end.
	var departed []int
	for i := 0; i < 5; i++ {
		e := dial(false)
		editors[e.Site()] = e
	}
	viewer := dial(true)
	defer viewer.Close()

	rounds := 60
	churn := rand.New(rand.NewSource(99))
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		mu.Lock()
		live := make([]*Editor, 0, len(editors))
		for _, e := range editors {
			live = append(live, e)
		}
		mu.Unlock()
		for i, e := range live {
			wg.Add(1)
			go func(i int, e *Editor) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(round*100 + i)))
				for k := 0; k < 4; k++ {
					n := e.Len()
					switch r.Intn(6) {
					case 0, 1, 2:
						pos := 0
						if n > 0 {
							pos = r.Intn(n + 1)
						}
						_ = e.Insert(pos, fmt.Sprintf("[%d]", e.Site()))
					case 3:
						if n > 2 {
							_ = e.Delete(r.Intn(n-1), 1)
						}
					case 4:
						_ = e.Edit(func(b *Batch) {
							b.Insert(0, "{").Insert(1, "}")
						})
					case 5:
						e.SetSelection(r.Intn(n+1), r.Intn(n+1))
						_ = e.ShareSelection()
					}
				}
			}(i, e)
		}
		wg.Wait()

		if churn.Intn(5) == 0 {
			mu.Lock()
			for site, e := range editors {
				_ = e.Close()
				delete(editors, site)
				departed = append(departed, site)
				break
			}
			mu.Unlock()
			e := dial(false)
			mu.Lock()
			editors[e.Site()] = e
			mu.Unlock()
		}
	}

	// Quiesce: all counts line up for live editors, and the notifier has seen
	// every departed one leave — until it has, an operation of theirs it has
	// yet to read would be broadcast after the texts were compared.
	quiesce := func() {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
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
			for _, site := range departed {
				if _, joined := received[site]; joined {
					quiet = false
				}
			}
			if quiet {
				fromServer, _ := viewer.SV()
				if sent[viewer.Site()] != fromServer {
					quiet = false
				}
			}
			mu.Unlock()
			if quiet {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("soak session did not quiesce")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	quiesce()

	// The rounds ran open-loop, so the history buffer still holds whatever was
	// in flight at its last compaction. Two more compaction rounds typed with
	// at most window operations outstanding bring it down to hbBound: the
	// viewer and the editors that only listen now have acknowledged what they
	// read, where before bare acknowledgements they pinned the thousand-odd
	// operations of the whole run.
	const window = 16
	mu.Lock()
	var typist *Editor
	for _, e := range editors {
		typist = e
		break
	}
	mu.Unlock()
	for i := 0; i < 2*64; i++ {
		if err := typist.Insert(typist.Len(), "."); err != nil {
			t.Fatal(err)
		}
		if i%window == window-1 {
			quiesce()
		}
	}
	session, _ := reg.Snapshot().Child("(default)")
	if hb := session.Gauges[obs.GHBLen]; hb > hbBound(window) || session.Counters[core.CAcksReceived] == 0 {
		t.Fatalf("hb.len %d after %d operations and %d acknowledgements, want at most %d",
			hb, session.Gauges[obs.GOpsRecv], session.Counters[core.CAcksReceived], hbBound(window))
	}

	want := nt.Text()
	mu.Lock()
	defer mu.Unlock()
	for site, e := range editors {
		if err := e.Err(); err != nil {
			t.Fatalf("editor %d: %v", site, err)
		}
		if e.Text() != want {
			t.Fatalf("editor %d diverged", site)
		}
	}
	if viewer.Text() != want {
		t.Fatal("viewer diverged")
	}
	if err := viewer.Err(); err != nil {
		t.Fatalf("viewer: %v", err)
	}
	t.Logf("soak: %d rounds, final document %d runes", rounds, len([]rune(want)))
}

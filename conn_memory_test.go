package repro

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/doc"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/transport/netpoll"
)

// TestConnRetainsNoScratch: a connection with nothing in flight holds no
// transport scratch. 64 editors join eight sessions on a 64 KiB document
// over loopback TCP, so every connection carries a 64 KiB snapshot frame;
// each editor sends a few operations, and once everything is quiet the heap
// per (client + server) connection, net of the editor's document replica,
// must stay under 48 KiB. What remains is the client's bufio.Reader, which
// a reader parked in a blocking Read must own, and the protocol state.
func TestConnRetainsNoScratch(t *testing.T) {
	const (
		sessions = 8
		editors  = 64
		// Each editor integrates (editors/sessions-1)*ops remote operations,
		// fewer than the 64 that make it send an acknowledgement: once every
		// replica holds every operation, no message is left in flight.
		ops = 2
	)
	budget := int64(48 << 10)
	if !netpoll.Available() {
		// No poller: the server side reads through a tcpConn as well.
		budget += transport.DefaultBufferSize
	}
	text := strings.Repeat("abcdefgh", 8<<10)

	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second cycle empties the sync.Pool victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	// Every editor holds its replica whatever the transport does.
	h0 := heap()
	replicas := make([]*doc.Rope, editors)
	for i := range replicas {
		replicas[i] = doc.NewRope(text)
	}
	replica := (heap() - h0) / editors
	runtime.KeepAlive(replicas)
	replicas = nil

	ln, err := transport.ListenEventTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mgr := server.NewManager(server.WithInitialText(text))
	svc := server.Serve(ln, mgr)
	t.Cleanup(func() {
		svc.Close()
		mgr.Close()
	})
	eds := make([]*Editor, 0, editors)
	t.Cleanup(func() {
		for _, ed := range eds {
			_ = ed.Close()
		}
	})

	name := func(i int) string { return fmt.Sprintf("doc%d", i%sessions) }
	for i := 0; i < sessions; i++ {
		if _, err := mgr.GetOrCreate(name(i)); err != nil {
			t.Fatal(err)
		}
	}

	h0 = heap()
	for i := 0; i < editors; i++ {
		conn, err := transport.DialTCP(ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		ed, err := ConnectSession(conn, name(i), 0)
		if err != nil {
			_ = conn.Close()
			t.Fatal(err)
		}
		eds = append(eds, ed)
	}
	for k := 0; k < ops; k++ {
		for _, ed := range eds {
			if err := ed.Insert(k, "x"); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := len(text) + editors/sessions*ops
	deadline := time.Now().Add(30 * time.Second)
	for _, ed := range eds {
		for ed.Len() != want {
			if time.Now().After(deadline) {
				t.Fatalf("editor %d holds %d runes, want %d", ed.Site(), ed.Len(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	per := (heap() - h0 - editors*replica) / editors
	t.Logf("%d B per connection beyond a %d B replica (budget %d B)", per, replica, budget)
	if per >= budget {
		t.Fatalf("an idle connection keeps %d B beyond its replica, want < %d B", per, budget)
	}
}

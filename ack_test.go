package repro

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/transport"
)

// hbBound is what a session's history buffer may hold when every site
// acknowledges: one compaction round, one acknowledgement interval, and the
// operations and acknowledgements in flight while the writers run at most
// window operations ahead of the slowest replica.
func hbBound(window int) int64 { return int64(64 + core.AckEvery + 2*window) }

// TestAckedAudienceOverTCP is the end-to-end gate on bare acknowledgements: one
// writer, three editors that never type and a viewer, over loopback TCP on
// server.Serve with no options. The audience says nothing the protocol before
// acknowledgements would have carried, so the notifier's history buffer used
// to hold every one of the 5 000 edits; now the hb.len gauge stays under the
// bound from the first edit to the last, and everyone converges.
func TestAckedAudienceOverTCP(t *testing.T) {
	const edits, window = 5000, 16
	reg := obs.NewRegistry("acked")
	ln, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mgr := server.NewManager(server.WithObservability(reg))
	svc := server.Serve(ln, mgr)
	defer mgr.Close()
	defer svc.Close()

	dial := func(connect func(transport.Conn, int, ...core.ClientOption) (*Editor, error)) *Editor {
		t.Helper()
		conn, err := transport.DialTCP(ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		ed, err := connect(conn, 0)
		if err != nil {
			t.Fatal(err)
		}
		return ed
	}
	writer := dial(Connect)
	defer writer.Close()
	audience := []*Editor{dial(Connect), dial(Connect), dial(Connect), dial(ConnectViewer)}
	for _, ed := range audience {
		defer ed.Close()
	}
	// behind blocks until no replica is more than lag operations behind the
	// writer, which is what bounds the in-flight term of hbBound.
	behind := func(sent, lag int) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for _, ed := range audience {
			for {
				if err := ed.Err(); err != nil {
					t.Fatalf("site %d: %v", ed.Site(), err)
				}
				if fromServer, _ := ed.SV(); int(fromServer)+lag >= sent {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("site %d stuck %d operations behind", ed.Site(), lag)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	session := func() obs.Snapshot {
		child, ok := reg.Snapshot().Child("(default)")
		if !ok {
			t.Fatal("the default session has no registry child")
		}
		return child
	}

	// acked blocks until the notifier has counted want acknowledgements.
	// hbBound's acknowledgement term assumes each one arrives within 2·window
	// edits of falling due; on a loaded machine the scheduler can hold one
	// longer, and the peak would then measure the scheduler, not the
	// protocol.
	acked := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for session().Counters[core.CAcksReceived] < want {
			if time.Now().After(deadline) {
				t.Fatalf("acks.received stuck below %d", want)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}

	var peak int64
	for i := 1; i <= edits; i++ {
		if err := writer.Insert(writer.Len(), "x"); err != nil {
			t.Fatal(err)
		}
		behind(i, window)
		if due := i - window; due > 0 && due%core.AckEvery == 0 {
			// Every replica has integrated at least due and at most i <
			// due+AckEvery operations, so each has sent exactly
			// due/AckEvery acknowledgements: wait for all of them.
			acked(int64(len(audience) * due / core.AckEvery))
		}
		if i%50 == 0 {
			if hb := session().Gauges[obs.GHBLen]; hb > peak {
				peak = hb
			}
		}
	}
	behind(edits, 0)
	if peak == 0 || peak > hbBound(window) {
		t.Fatalf("hb.len peaked at %d over %d edits beside a silent audience, want within (0, %d]", peak, edits, hbBound(window))
	}
	t.Logf("hb.len peaked at %d over %d edits (bound %d)", peak, edits, hbBound(window))
	want := writer.Text()
	for _, ed := range audience {
		if got := ed.Text(); got != want {
			t.Fatalf("site %d diverged: %d runes, writer has %d", ed.Site(), len(got), len(want))
		}
	}
	// Each of the four sends one acknowledgement per AckEvery integrations;
	// the last may still be on its link.
	if got, min := session().Counters[core.CAcksReceived], int64(len(audience)*(edits/core.AckEvery-1)); got < min {
		t.Fatalf("acks.received = %d, want at least %d", got, min)
	}
	if stale := session().Counters[core.CAcksStale]; stale != 0 {
		t.Fatalf("acks.stale = %d from editors that acknowledge in order", stale)
	}
}

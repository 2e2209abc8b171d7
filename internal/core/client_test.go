package core

import (
	"errors"
	"testing"

	"repro/internal/causal"
	"repro/internal/op"
)

func TestNewClientRejectsSiteZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("site 0 is the notifier; NewClient must panic")
		}
	}()
	NewClient(0, "")
}

func TestGenerateUpdatesStateVector(t *testing.T) {
	c := NewClient(1, "hello")
	m, err := c.Insert(5, "!")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.SV(); got != (ClientSV{FromServer: 0, Local: 1}) {
		t.Fatalf("SV after local op: %v", got)
	}
	if m.TS != (Timestamp{0, 1}) || m.From != 1 {
		t.Fatalf("message: %+v", m)
	}
	if m.Ref != (causal.OpRef{Site: 1, Seq: 1}) {
		t.Fatalf("ref: %v", m.Ref)
	}
	if c.History().Len() != 1 || c.PendingCount() != 1 {
		t.Fatalf("hb %d pending %d", c.History().Len(), c.PendingCount())
	}
}

func TestGenerateStaleOp(t *testing.T) {
	c := NewClient(1, "hello")
	stale := op.New().Retain(3) // wrong base length
	if _, err := c.Generate(stale); !errors.Is(err, ErrStaleOp) {
		t.Fatalf("want ErrStaleOp, got %v", err)
	}
	if c.SV().Local != 0 || c.History().Len() != 0 {
		t.Fatal("failed generation must not mutate state")
	}
}

func TestGenerateBadPositions(t *testing.T) {
	c := NewClient(1, "ab")
	if _, err := c.Insert(5, "x"); err == nil {
		t.Fatal("insert past end must fail")
	}
	if _, err := c.Delete(1, 5); err == nil {
		t.Fatal("delete past end must fail")
	}
}

func TestIntegrateWrongDestination(t *testing.T) {
	c := NewClient(1, "")
	m := ServerMsg{To: 2, Op: op.New(), TS: Timestamp{1, 0}}
	if _, err := c.Integrate(m); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("want ErrBadMessage, got %v", err)
	}
}

func TestIntegrateFIFOViolation(t *testing.T) {
	c := NewClient(1, "x")
	// T1 must be exactly FromServer+1; skipping one is a FIFO violation.
	m := ServerMsg{To: 1, Op: op.New().Retain(1), TS: Timestamp{2, 0}}
	if _, err := c.Integrate(m); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("want ErrBadMessage on gap, got %v", err)
	}
	// Replays (T1 too small) are rejected too.
	m.TS = Timestamp{0, 0}
	if _, err := c.Integrate(m); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("want ErrBadMessage on replay, got %v", err)
	}
}

func TestClientCompaction(t *testing.T) {
	srv := NewServer("", WithServerCompaction(0))
	var cs [2]*Client
	for i := 1; i <= 2; i++ {
		snap, err := srv.Join(i)
		if err != nil {
			t.Fatal(err)
		}
		// compactEvery=1: compact after every integration.
		cs[i-1] = NewClient(i, snap.Text, WithClientCompaction(1))
	}
	// Ping-pong edits; history must stay bounded.
	for round := 0; round < 50; round++ {
		for i := 0; i < 2; i++ {
			m, err := cs[i].Insert(cs[i].DocLen(), "a")
			if err != nil {
				t.Fatal(err)
			}
			bcast, _, err := srv.Receive(m)
			if err != nil {
				t.Fatal(err)
			}
			for _, bm := range bcast {
				if _, err := cs[bm.To-1].Integrate(bm); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i, c := range cs {
		if c.History().Len() > 4 {
			t.Fatalf("client %d history grew to %d despite compaction", i+1, c.History().Len())
		}
		if c.History().Dropped() == 0 {
			t.Fatalf("client %d never compacted", i+1)
		}
	}
	if cs[0].Text() != cs[1].Text() || cs[0].Text() != srv.Text() {
		t.Fatal("divergence under compaction")
	}
}

func TestClientManualCompact(t *testing.T) {
	srv := NewServer("", WithServerCompaction(0))
	snap1, _ := srv.Join(1)
	snap2, _ := srv.Join(2)
	c1 := NewClient(1, snap1.Text, WithClientCompaction(0))
	c2 := NewClient(2, snap2.Text, WithClientCompaction(0))
	m, _ := c1.Insert(0, "hi")
	bcast, _, err := srv.Receive(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Integrate(bcast[0]); err != nil {
		t.Fatal(err)
	}
	// c2 generates one op; it is unacked, so Compact keeps it but drops the
	// server entry.
	if _, err := c2.Insert(0, "yo"); err != nil {
		t.Fatal(err)
	}
	if n := c2.Compact(); n != 1 {
		t.Fatalf("compact removed %d entries, want 1 (the server entry)", n)
	}
	if c2.History().Len() != 1 {
		t.Fatalf("history after compact: %d", c2.History().Len())
	}
}

func TestClientAccessors(t *testing.T) {
	c := NewClient(7, "abc", WithClientMode(ModeRelay))
	if c.Site() != 7 || c.Mode() != ModeRelay || c.DocLen() != 3 {
		t.Fatalf("accessors: %d %v %d", c.Site(), c.Mode(), c.DocLen())
	}
}

// TestTakeAck pins when a site owes the notifier a bare acknowledgement:
// after AckEvery integrations with no T1 sent in between, once, carrying
// everything integrated so far — and an operation or a presence report, whose
// timestamps already carry it, starts the count again.
func TestTakeAck(t *testing.T) {
	srv := NewServer("")
	writer, reader := join(t, srv, 1), join(t, srv, 2)
	feed := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			m, err := writer.Insert(0, "x")
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := srv.Receive(m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := reader.Integrate(out[0]); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(AckEvery - 1)
	if _, due := reader.TakeAck(); due {
		t.Fatalf("acknowledgement due after %d integrations", AckEvery-1)
	}
	feed(1)
	if t1, due := reader.TakeAck(); !due || t1 != AckEvery {
		t.Fatalf("TakeAck after %d integrations = %d, %v; want %d, due", AckEvery, t1, due, AckEvery)
	}
	if _, due := reader.TakeAck(); due {
		t.Fatal("the same acknowledgement is due twice")
	}
	feed(AckEvery - 1)
	reader.Presence(0, 0, true)
	feed(AckEvery - 1)
	if _, err := reader.Insert(0, "y"); err != nil {
		t.Fatal(err)
	}
	feed(AckEvery - 1)
	if _, due := reader.TakeAck(); due {
		t.Fatal("acknowledgement due although a presence report and an operation each carried a T1 since")
	}
	feed(1)
	if t1, due := reader.TakeAck(); !due || t1 != reader.SV().FromServer {
		t.Fatalf("TakeAck = %d, %v; want %d, due", t1, due, reader.SV().FromServer)
	}
}

package transport

import (
	"errors"
	"testing"
	"time"

	"repro/internal/causal"
	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/wire"
)

func senderTestBroadcast(t testing.TB) *wire.Broadcast {
	t.Helper()
	o, err := op.NewInsert(4, 1, "ab")
	if err != nil {
		t.Fatal(err)
	}
	bc, err := wire.NewBroadcast(causal.OpRef{Site: 0, Seq: 1}, causal.OpRef{Site: 2, Seq: 1}, o)
	if err != nil {
		t.Fatal(err)
	}
	return bc
}

// TestSenderFIFOMixed drives ordinary messages and encode-once broadcasts
// through one Sender over the in-memory pipe and checks they arrive in
// enqueue order with the right per-destination fields.
func TestSenderFIFOMixed(t *testing.T) {
	a, b := Pipe(256)
	s := NewSender(a, nil)
	defer s.Close()

	bc := senderTestBroadcast(t)
	if err := s.Enqueue(wire.Leave{Site: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		bc.Retain()
		if err := s.EnqueueBroadcast(bc, 7, core.Timestamp{T1: uint64(i), T2: 5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Enqueue(wire.Leave{Site: 2}); err != nil {
		t.Fatal(err)
	}
	bc.Release()

	var got []wire.Msg
	want := 1 + 3 + 1 // ops may arrive as one batch or singles; count ops
	ops := 0
	for ops+len(got) < want {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		switch v := m.(type) {
		case wire.OpBatch:
			ops += len(v.Ops)
			for _, so := range v.Ops {
				if so.To != 7 {
					t.Fatalf("batch op to %d, want 7", so.To)
				}
			}
		case wire.ServerOp:
			ops++
			if v.To != 7 {
				t.Fatalf("op to %d, want 7", v.To)
			}
		default:
			got = append(got, m)
		}
	}
	if len(got) != 2 || ops != 3 {
		t.Fatalf("got %d plain msgs and %d ops, want 2 and 3", len(got), ops)
	}
	if l, ok := got[0].(wire.Leave); !ok || l.Site != 1 {
		t.Fatalf("first plain msg %#v, want Leave{1}", got[0])
	}
	if l, ok := got[1].(wire.Leave); !ok || l.Site != 2 {
		t.Fatalf("last plain msg %#v, want Leave{2}", got[1])
	}
}

// TestSenderCloseDrains: messages enqueued before Close still reach the
// peer — Close drains, then stops.
func TestSenderCloseDrains(t *testing.T) {
	a, b := Pipe(256)
	s := NewSender(a, nil)
	for i := 1; i <= 20; i++ {
		if err := s.Enqueue(wire.Leave{Site: i}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	for i := 1; i <= 20; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if l, ok := m.(wire.Leave); !ok || l.Site != i {
			t.Fatalf("message %d: got %#v", i, m)
		}
	}
	if err := s.Enqueue(wire.Leave{Site: 99}); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: %v, want ErrClosed", err)
	}
}

// TestSenderClosedErrSentinel: the package-specific sentinel is returned
// after Close, and EnqueueBroadcast still consumes its reference.
func TestSenderClosedErrSentinel(t *testing.T) {
	sentinel := errors.New("custom closed")
	a, _ := Pipe(4)
	s := NewSender(a, sentinel)
	s.Close()
	if err := s.Enqueue(wire.Leave{Site: 1}); !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
	bc := senderTestBroadcast(t)
	bc.Retain()
	if err := s.EnqueueBroadcast(bc, 1, core.Timestamp{}); !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
	bc.Release() // the enqueue released its own reference; this is the creator's
}

// TestSenderStickyError: a dead connection surfaces as a sticky error on
// later enqueues.
func TestSenderStickyError(t *testing.T) {
	a, b := Pipe(1)
	_ = b.Close()
	_ = a.Close()
	s := NewSender(a, nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := s.Enqueue(wire.Leave{Site: 1})
		if err != nil {
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("sticky error %v, want ErrClosed", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sender never recorded the write error")
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
}

// TestSenderHighWater: the depth metric records the deepest the queue got.
func TestSenderHighWater(t *testing.T) {
	a, b := Pipe(1024)
	s := NewSender(a, nil)
	defer s.Close()
	if hw := s.HighWater(); hw != 0 {
		t.Fatalf("initial high water %d", hw)
	}
	for i := 0; i < 50; i++ {
		if err := s.Enqueue(wire.Leave{Site: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if hw := s.HighWater(); hw < 1 || hw > 50 {
		t.Fatalf("high water %d, want within [1, 50]", hw)
	}
	for drained := 0; drained < 50; drained++ {
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSendFrameTCPRoundTrip: a blob of coalesced frames written through the
// TCP fast path decodes back into the same sequence of messages.
func TestSendFrameTCPRoundTrip(t *testing.T) {
	ln, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cl, err := DialTCP(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := <-accepted
	defer srv.Close()

	fc, ok := srv.(FrameConn)
	if !ok {
		t.Fatal("TCP conn does not implement FrameConn")
	}
	bc := senderTestBroadcast(t)
	defer bc.Release()
	var blob []byte
	items := make([]wire.FrameItem, 0, 5)
	for i := 1; i <= 5; i++ {
		items = append(items, wire.FrameItem{B: bc, To: i, TS: core.Timestamp{T1: uint64(i), T2: 9}})
	}
	blob = wire.AppendFrames(blob, items)
	blob, err = wire.AppendFrame(blob, wire.Leave{Site: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.SendFrame(blob); err != nil {
		t.Fatal(err)
	}

	m, err := cl.Recv()
	if err != nil {
		t.Fatal(err)
	}
	batch, ok := m.(wire.OpBatch)
	if !ok || len(batch.Ops) != 5 {
		t.Fatalf("got %#v, want 5-op batch", m)
	}
	for i, so := range batch.Ops {
		if so.To != i+1 || so.TS.T1 != uint64(i+1) {
			t.Fatalf("op %d: to=%d ts=%v", i, so.To, so.TS)
		}
	}
	m, err = cl.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if l, ok := m.(wire.Leave); !ok || l.Site != 3 {
		t.Fatalf("got %#v, want Leave{3}", m)
	}
}

// TestSendFrameMemCorrupt: the in-memory fast path rejects malformed blobs
// instead of delivering garbage.
func TestSendFrameMemCorrupt(t *testing.T) {
	a, _ := Pipe(4)
	fc := a.(FrameConn)
	if err := fc.SendFrame([]byte{0xFF}); err == nil {
		t.Fatal("bad length accepted")
	}
	if err := fc.SendFrame([]byte{5, 1, 2}); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// TestSenderBatchesUnderBackpressure: with the reader stalled, a burst ends
// up coalesced — far fewer flushes than operations.
func TestSenderBatchesUnderBackpressure(t *testing.T) {
	ln, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cl, err := DialTCP(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := <-accepted
	defer srv.Close()

	s := NewSender(srv, nil)
	defer s.Close()
	bc := senderTestBroadcast(t)
	const burst = 500
	startFlushes := TCPFlushes()
	for i := 0; i < burst; i++ {
		bc.Retain()
		if err := s.EnqueueBroadcast(bc, 1, core.Timestamp{T1: uint64(i), T2: 1}); err != nil {
			t.Fatal(err)
		}
	}
	bc.Release()
	ops := 0
	for ops < burst {
		m, err := cl.Recv()
		if err != nil {
			t.Fatal(err)
		}
		switch v := m.(type) {
		case wire.OpBatch:
			ops += len(v.Ops)
		case wire.ServerOp:
			ops++
		default:
			t.Fatalf("unexpected %T", m)
		}
	}
	flushes := TCPFlushes() - startFlushes
	if flushes >= burst/2 {
		t.Fatalf("%d ops took %d flushes; want substantial coalescing", burst, flushes)
	}
	if hw := s.HighWater(); hw < 2 {
		t.Fatalf("high water %d, want >= 2 under backpressure", hw)
	}
}

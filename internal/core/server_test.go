package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/causal"
	"repro/internal/obs"
	"repro/internal/op"
)

func join(t *testing.T, srv *Server, site int, opts ...ClientOption) *Client {
	t.Helper()
	snap, err := srv.Join(site)
	if err != nil {
		t.Fatal(err)
	}
	return NewClient(site, snap.Text, opts...)
}

// pump delivers a client message to the server and all broadcasts to their
// destinations.
func pump(t *testing.T, srv *Server, clients map[int]*Client, m ClientMsg) {
	t.Helper()
	bcast, _, err := srv.Receive(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, bm := range bcast {
		if _, err := clients[bm.To].Integrate(bm); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJoinErrors(t *testing.T) {
	srv := NewServer("")
	if _, err := srv.Join(0); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("site 0 join: %v", err)
	}
	if _, err := srv.Join(1); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Join(1); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("double join: %v", err)
	}
}

func TestReceiveFromUnknownSite(t *testing.T) {
	srv := NewServer("")
	m := ClientMsg{From: 9, Op: op.New(), TS: Timestamp{0, 1}}
	if _, _, err := srv.Receive(m); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("want ErrBadMessage, got %v", err)
	}
}

func TestReceiveFIFOViolations(t *testing.T) {
	srv := NewServer("x")
	_ = join(t, srv, 1)
	// T2 gap (second op before first).
	m := ClientMsg{From: 1, Op: op.New().Retain(1), TS: Timestamp{0, 2}}
	if _, _, err := srv.Receive(m); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("T2 gap: %v", err)
	}
	// T1 claims more broadcasts than sent.
	m = ClientMsg{From: 1, Op: op.New().Retain(1), TS: Timestamp{5, 1}}
	if _, _, err := srv.Receive(m); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("T1 overrun: %v", err)
	}
}

func TestLeaveAndCountersPersist(t *testing.T) {
	srv := NewServer("", WithServerCompaction(0))
	clients := map[int]*Client{
		1: join(t, srv, 1),
		2: join(t, srv, 2),
		3: join(t, srv, 3),
	}
	m, _ := clients[1].Insert(0, "a")
	pump(t, srv, clients, m)

	if err := srv.Leave(3); err != nil {
		t.Fatal(err)
	}
	if err := srv.Leave(3); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("double leave: %v", err)
	}
	delete(clients, 3)

	// Departed site's count must remain in the sums: the next broadcast to
	// site 2 counts site 1's op done before the leave.
	m2, _ := clients[2].Insert(1, "b")
	bcast, _, err := srv.Receive(m2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bcast) != 1 || bcast[0].To != 1 {
		t.Fatalf("broadcast set after leave: %+v", bcast)
	}
	if srv.SV().Of(1) != 1 {
		t.Fatal("counters must persist after leave")
	}
	if got := len(srv.Sites()); got != 2 {
		t.Fatalf("joined sites after leave: %d", got)
	}
}

func TestRejoinGetsFreshSnapshot(t *testing.T) {
	srv := NewServer("", WithServerCompaction(0))
	clients := map[int]*Client{1: join(t, srv, 1), 2: join(t, srv, 2)}
	m, _ := clients[1].Insert(0, "hello")
	pump(t, srv, clients, m)
	if err := srv.Leave(2); err != nil {
		t.Fatal(err)
	}
	m2, _ := clients[1].Insert(5, " world")
	pump(t, srv, map[int]*Client{1: clients[1]}, m2)

	snap, err := srv.Join(2)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Text != "hello world" {
		t.Fatalf("rejoin snapshot %q", snap.Text)
	}
	c2 := NewClient(2, snap.Text)
	clients[2] = c2
	// The rejoined site edits; everyone converges.
	m3, _ := c2.Insert(0, ">> ")
	pump(t, srv, clients, m3)
	if clients[1].Text() != ">> hello world" || srv.Text() != ">> hello world" {
		t.Fatalf("after rejoin: %q / %q", clients[1].Text(), srv.Text())
	}
}

// TestRejoinAfterGeneratingOps is the regression for the rejoin baseline:
// a site that generated operations, left, and rejoined must see correct
// (since-rejoin) T1 values on subsequent broadcasts, and its resumed local
// counter must satisfy the server's FIFO check.
func TestRejoinAfterGeneratingOps(t *testing.T) {
	srv := NewServer("", WithServerCompaction(0))
	clients := map[int]*Client{1: join(t, srv, 1), 2: join(t, srv, 2)}

	// Both sites generate before site 2 leaves.
	m1, _ := clients[1].Insert(0, "a")
	pump(t, srv, clients, m1)
	m2, _ := clients[2].Insert(1, "b")
	pump(t, srv, clients, m2)

	if err := srv.Leave(2); err != nil {
		t.Fatal(err)
	}
	delete(clients, 2)

	snap, err := srv.Join(2)
	if err != nil {
		t.Fatal(err)
	}
	if snap.LocalOps != 1 {
		t.Fatalf("resumed local counter %d, want 1", snap.LocalOps)
	}
	c2 := NewClient(2, snap.Text, WithClientResume(snap.LocalOps))
	clients[2] = c2

	// The rejoined site's first op must pass the FIFO precheck (T2=2).
	mr, err := c2.Insert(0, "c")
	if err != nil {
		t.Fatal(err)
	}
	pump(t, srv, clients, mr)

	// A broadcast toward the rejoined site must carry T1=1 (first since
	// rejoin), not a count polluted by its own pre-leave operations.
	m3, _ := clients[1].Insert(0, "d")
	bcast, _, err := srv.Receive(m3)
	if err != nil {
		t.Fatal(err)
	}
	for _, bm := range bcast {
		if bm.To == 2 && bm.TS.T1 != 1 {
			t.Fatalf("rejoined site T1 = %d, want 1", bm.TS.T1)
		}
		if _, err := clients[bm.To].Integrate(bm); err != nil {
			t.Fatal(err)
		}
	}
	if clients[1].Text() != c2.Text() || srv.Text() != c2.Text() {
		t.Fatalf("divergence after rejoin: %q / %q / %q",
			clients[1].Text(), c2.Text(), srv.Text())
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRejoinCompactionAndDestinationCache drives the full lifecycle the
// sorted-destination cache, the delta-encoded history buffer, and (since
// PR 5) the composed-suffix transform cache must agree on: traffic with
// automatic compaction, a leave, more traffic (the cache must drop the
// departed site at once), a rejoin (the cache must readmit it; no broadcast
// generated before its snapshot may reach it), edits by the rejoiner, and a
// lagged catch-up burst. Engine invariants are re-checked after every step.
// Depth 1 forces the composed cache onto every bridge walk; depth 0 is the
// pairwise reference path.
func TestRejoinCompactionAndDestinationCache(t *testing.T) {
	for _, depth := range []int{defaultComposeDepth, 1, 0} {
		t.Run(fmt.Sprintf("composeDepth=%d", depth), func(t *testing.T) {
			testRejoinLifecycle(t, depth)
		})
	}
}

func testRejoinLifecycle(t *testing.T, composeDepth int) {
	srv := NewServer("", WithServerCompaction(2), WithServerComposeDepth(composeDepth))
	clients := map[int]*Client{
		1: join(t, srv, 1, WithClientCompaction(2), WithClientComposeDepth(composeDepth)),
		2: join(t, srv, 2, WithClientCompaction(2), WithClientComposeDepth(composeDepth)),
		3: join(t, srv, 3, WithClientCompaction(2), WithClientComposeDepth(composeDepth)),
	}
	// step sends one insert from a site and checks the broadcast fan-out is
	// exactly wantTo, in ascending order — the contract the cached
	// destination list must keep through joins and leaves.
	step := func(from, pos int, s string, wantTo ...int) []ServerMsg {
		t.Helper()
		m, err := clients[from].Insert(pos, s)
		if err != nil {
			t.Fatal(err)
		}
		bcast, _, err := srv.Receive(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(bcast) != len(wantTo) {
			t.Fatalf("op from %d broadcast to %d sites, want %v", from, len(bcast), wantTo)
		}
		for i, bm := range bcast {
			if bm.To != wantTo[i] {
				t.Fatalf("op from %d: destination[%d] = %d, want %v", from, i, bm.To, wantTo)
			}
			if _, err := clients[bm.To].Integrate(bm); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.CheckInvariants(); err != nil {
			t.Fatalf("after op from %d: %v", from, err)
		}
		return bcast
	}

	// Warm the destination cache and run enough traffic for compaction.
	step(1, 0, "a", 2, 3)
	step(2, 0, "b", 1, 3)
	step(3, 0, "c", 1, 2)
	step(1, 0, "d", 2, 3)

	// Site 2 leaves: the cache must stop fanning out to it immediately.
	if err := srv.Leave(2); err != nil {
		t.Fatal(err)
	}
	delete(clients, 2)
	step(1, 0, "e", 3)
	step(3, 0, "f", 1)
	if err := srv.CheckInvariants(); err != nil {
		t.Fatalf("after leave: %v", err)
	}

	// Rejoin: the snapshot carries everything, so nothing generated before
	// it may be re-delivered (the step checks above already proved no
	// broadcast targeted site 2 while it was away).
	snap, err := srv.Join(2)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Text != srv.Text() {
		t.Fatalf("rejoin snapshot %q, server %q", snap.Text, srv.Text())
	}
	clients[2] = NewClient(2, snap.Text,
		WithClientResume(snap.LocalOps), WithClientCompaction(2),
		WithClientComposeDepth(composeDepth))
	if err := srv.CheckInvariants(); err != nil {
		t.Fatalf("after rejoin: %v", err)
	}

	// First broadcast toward the rejoiner counts from its snapshot: T1=1.
	for _, bm := range step(1, 0, "g", 2, 3) {
		if bm.To == 2 && bm.TS.T1 != 1 {
			t.Fatalf("first post-rejoin broadcast T1 = %d, want 1", bm.TS.T1)
		}
	}
	// The rejoiner edits; the cache fans its op out to the others.
	step(2, 0, "h", 1, 3)
	step(3, 0, "i", 1, 2)

	// Lagged catch-up: site 3 goes quiet while the others keep editing,
	// building a deep bridge toward it; its stale-context edits must then
	// integrate through the composed-suffix cache (depth permitting)
	// exactly as the pairwise walk would, and the deferred folds must
	// settle when the backlog finally acknowledges.
	var backlog []ServerMsg
	send := func(from, pos int, s string) {
		t.Helper()
		m, err := clients[from].Insert(pos, s)
		if err != nil {
			t.Fatal(err)
		}
		bcast, _, err := srv.Receive(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, bm := range bcast {
			if bm.To == 3 {
				backlog = append(backlog, bm)
				continue
			}
			if _, err := clients[bm.To].Integrate(bm); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.CheckInvariants(); err != nil {
			t.Fatalf("lagged phase, op from %d: %v", from, err)
		}
	}
	for i := 0; i < 4; i++ {
		send(1, 0, "x")
		send(2, 0, "y")
	}
	// Two stale-context edits from the laggard: the second rides the warm
	// cache when composition is enabled.
	send(3, clients[3].DocLen(), "z")
	send(3, clients[3].DocLen(), "w")
	for _, bm := range backlog {
		if _, err := clients[3].Integrate(bm); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatalf("after catch-up: %v", err)
	}

	for site, c := range clients {
		if c.Text() != srv.Text() {
			t.Fatalf("site %d diverged: %q vs server %q", site, c.Text(), srv.Text())
		}
	}
	if srv.History().Dropped() == 0 {
		t.Fatal("automatic compaction never removed an entry")
	}
}

func TestLateJoinerConvergesAndTimestampsRebase(t *testing.T) {
	srv := NewServer("", WithServerCompaction(0))
	clients := map[int]*Client{1: join(t, srv, 1), 2: join(t, srv, 2)}
	for i := 0; i < 5; i++ {
		m, err := clients[1].Insert(clients[1].DocLen(), "a")
		if err != nil {
			t.Fatal(err)
		}
		pump(t, srv, clients, m)
	}
	// Site 3 joins after 5 operations.
	c3 := join(t, srv, 3)
	clients[3] = c3
	if c3.Text() != "aaaaa" {
		t.Fatalf("join snapshot: %q", c3.Text())
	}
	// Next broadcast to site 3 must carry T1=1 (first op since join), not 6.
	m, _ := clients[2].Insert(0, "b")
	bcast, _, err := srv.Receive(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, bm := range bcast {
		if bm.To == 3 && bm.TS.T1 != 1 {
			t.Fatalf("late joiner T1 = %d, want 1", bm.TS.T1)
		}
		if _, err := clients[bm.To].Integrate(bm); err != nil {
			t.Fatal(err)
		}
	}
	// The late joiner edits concurrently with others and all converge.
	m3, _ := c3.Insert(0, "c")
	m1, _ := clients[1].Insert(0, "d")
	pump(t, srv, clients, m3)
	pump(t, srv, clients, m1)
	want := srv.Text()
	for site, c := range clients {
		if c.Text() != want {
			t.Fatalf("site %d: %q != %q", site, c.Text(), want)
		}
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestServerCompaction(t *testing.T) {
	srv := NewServer("", WithServerCompaction(1))
	clients := map[int]*Client{1: join(t, srv, 1), 2: join(t, srv, 2)}
	for i := 0; i < 40; i++ {
		site := 1 + i%2
		m, err := clients[site].Insert(0, fmt.Sprintf("%d", i%10))
		if err != nil {
			t.Fatal(err)
		}
		pump(t, srv, clients, m)
	}
	// With prompt round trips every op is acknowledged quickly; HB must be
	// small, not 40.
	if srv.History().Len() > 6 {
		t.Fatalf("server HB grew to %d despite compaction", srv.History().Len())
	}
	if srv.History().Dropped() == 0 {
		t.Fatal("server never compacted")
	}
	if clients[1].Text() != clients[2].Text() || srv.Text() != clients[1].Text() {
		t.Fatal("divergence under server compaction")
	}
}

func TestServerCompactionRespectsLaggard(t *testing.T) {
	srv := NewServer("", WithServerCompaction(0))
	c1 := join(t, srv, 1)
	_ = join(t, srv, 2) // site 2 never acknowledges anything
	for i := 0; i < 10; i++ {
		m, err := c1.Insert(0, "x")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := srv.Receive(m); err != nil {
			t.Fatal(err)
		}
	}
	if n := srv.Compact(); n != 0 {
		t.Fatalf("compacted %d entries while site 2 has acked nothing", n)
	}
	if srv.History().Len() != 10 {
		t.Fatalf("HB len %d", srv.History().Len())
	}
}

// TestBareAckFreesLaggardsHistory continues the laggard case: site 2 still
// writes nothing, but once it reports what it has read the same compaction
// drops exactly that much. What cannot be true is refused — more than was
// sent, a site that never joined, one that left — and what is merely late is
// ignored and counted.
func TestBareAckFreesLaggardsHistory(t *testing.T) {
	met := obs.NewRegistry("")
	srv := NewServer("", WithServerCompaction(0), WithServerMetrics(met))
	c1 := join(t, srv, 1)
	c2 := join(t, srv, 2)
	var inbox []ServerMsg
	for i := 0; i < 10; i++ {
		m, err := c1.Insert(0, "x")
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := srv.Receive(m)
		if err != nil {
			t.Fatal(err)
		}
		inbox = append(inbox, out...)
	}
	for _, sm := range inbox[:7] {
		if _, err := c2.Integrate(sm); err != nil {
			t.Fatal(err)
		}
	}
	if _, due := c2.TakeAck(); due {
		t.Fatalf("an acknowledgement is due after 7 integrations, want after %d", AckEvery)
	}
	for _, bad := range []struct {
		site int
		t1   uint64
	}{{2, 11}, {3, 0}, {0, 0}} {
		if err := srv.Ack(bad.site, bad.t1); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("Ack(%d, %d) = %v, want ErrBadMessage", bad.site, bad.t1, err)
		}
	}
	if err := srv.Ack(2, c2.SV().FromServer); err != nil {
		t.Fatal(err)
	}
	if err := srv.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Compact(); n != 7 || srv.History().Len() != 3 || srv.BridgeLen(2) != 3 {
		t.Fatalf("compacted %d entries after site 2 acknowledged 7, leaving %d (bridge %d); want 7, 3, 3",
			n, srv.History().Len(), srv.BridgeLen(2))
	}
	for _, t1 := range []uint64{7, 4} { // a duplicate, and one from before it
		if err := srv.Ack(2, t1); err != nil || srv.BridgeLen(2) != 3 {
			t.Fatalf("stale Ack(2, %d) = %v, bridge %d; want ignored", t1, err, srv.BridgeLen(2))
		}
	}
	if got, stale := met.Counter(CAcksReceived).Load(), met.Counter(CAcksStale).Load(); got != 1 || stale != 2 {
		t.Fatalf("acks.received = %d, acks.stale = %d; want 1 and 2", got, stale)
	}
	if err := srv.Leave(2); err != nil {
		t.Fatal(err)
	}
	if err := srv.Ack(2, 8); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("ack from a site that left: %v, want ErrBadMessage", err)
	}
	// The operation that follows an acknowledgement carries a T1 at or past
	// it and integrates as if the acknowledgement had never been sent.
	c3 := join(t, srv, 3)
	m, err := c1.Insert(0, "y")
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := srv.Receive(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Integrate(out[0]); err != nil {
		t.Fatal(err)
	}
	if err := srv.Ack(3, 1); err != nil {
		t.Fatal(err)
	}
	m3, err := c3.Insert(0, "z")
	if err != nil {
		t.Fatal(err)
	}
	if _, res, err := srv.Receive(m3); err != nil || res.ConcurrentCount != 0 || srv.Text() != c3.Text() {
		t.Fatalf("operation after an acknowledgement: %v, %d concurrent, notifier %q, site %q", err, res.ConcurrentCount, srv.Text(), c3.Text())
	}
}

func TestServerAccessorsAndOptions(t *testing.T) {
	srv := NewServer("doc", WithServerMode(ModeRelay))
	if srv.Mode() != ModeRelay || srv.Text() != "doc" {
		t.Fatalf("options: %v %q", srv.Mode(), srv.Text())
	}
	if srv.BridgeLen(1) != 0 {
		t.Fatal("bridge of unknown site must be 0")
	}
}

func TestReceiveRefsIdentifyTransformedOps(t *testing.T) {
	srv := NewServer("", WithServerCompaction(0))
	clients := map[int]*Client{1: join(t, srv, 1), 2: join(t, srv, 2)}
	m, _ := clients[1].Insert(0, "a")
	bcast, _, err := srv.Receive(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(bcast) != 1 {
		t.Fatal("one broadcast expected")
	}
	if bcast[0].Ref != (causal.OpRef{Site: 0, Seq: 1}) {
		t.Fatalf("transformed op ref: %v", bcast[0].Ref)
	}
	if bcast[0].OrigRef != (causal.OpRef{Site: 1, Seq: 1}) {
		t.Fatalf("orig ref: %v", bcast[0].OrigRef)
	}
}

func TestRelayModeKeepsOriginalRefs(t *testing.T) {
	srv := NewServer("", WithServerMode(ModeRelay), WithServerCompaction(0))
	clients := map[int]*Client{
		1: join(t, srv, 1, WithClientMode(ModeRelay)),
		2: join(t, srv, 2, WithClientMode(ModeRelay)),
	}
	m, _ := clients[1].Insert(0, "a")
	bcast, _, err := srv.Receive(m)
	if err != nil {
		t.Fatal(err)
	}
	if bcast[0].Ref != m.Ref {
		t.Fatalf("relay mode must keep the original ref, got %v", bcast[0].Ref)
	}
}

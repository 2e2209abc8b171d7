package server_test

import (
	"fmt"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/transport/netpoll"
	"repro/internal/wire"
)

// readerKind is one way a Service can read a connection. The connection
// state machine (connState) is the same object behind all of them; these
// tests hold every protocol rule to every kind.
type readerKind struct {
	name   string
	listen func(t *testing.T) (ln transport.Listener, dial func() (transport.Conn, error))
	opts   []server.ServeOption
}

func readerKinds() []readerKind {
	lean := []server.ServeOption{server.WithSharedWorkers(-1)}
	tcp := func(listen func(string) (transport.Listener, error)) func(t *testing.T) (transport.Listener, func() (transport.Conn, error)) {
		return func(t *testing.T) (transport.Listener, func() (transport.Conn, error)) {
			ln, err := listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			return ln, func() (transport.Conn, error) { return transport.DialTCP(ln.Addr()) }
		}
	}
	kinds := []readerKind{
		{name: "dedicated-reader", listen: tcp(func(a string) (transport.Listener, error) { return transport.ListenTCP(a) })},
		{name: "mem-dispatcher", opts: lean, listen: func(t *testing.T) (transport.Listener, func() (transport.Conn, error)) {
			ln := transport.NewMemListener()
			return ln, ln.Dial
		}},
	}
	if netpoll.Available() {
		kinds = append(kinds, readerKind{name: "epoll-dispatcher", opts: lean, listen: tcp(transport.ListenEventTCP)})
	}
	return kinds
}

// startKind serves a fresh manager on the kind's listener.
func startKind(t *testing.T, k readerKind, mopts ...server.ManagerOption) (*server.Manager, func() (transport.Conn, error)) {
	t.Helper()
	ln, dial := k.listen(t)
	mgr := server.NewManager(mopts...)
	svc := server.Serve(ln, mgr, k.opts...)
	t.Cleanup(func() {
		svc.Close()
		mgr.Close()
	})
	return mgr, dial
}

// rawJoin dials, sends the join request and returns the connection with its
// snapshot.
func rawJoin(t *testing.T, dial func() (transport.Conn, error), req wire.Msg) (transport.Conn, wire.JoinResp) {
	t.Helper()
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(req); err != nil {
		t.Fatal(err)
	}
	m, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := m.(wire.JoinResp)
	if !ok {
		t.Fatalf("first message from the notifier is %T, want the join snapshot", m)
	}
	return conn, snap
}

// expectRetired reads conn until the notifier hangs up.
func expectRetired(t *testing.T, conn transport.Conn) {
	t.Helper()
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		for {
			if _, err := conn.Recv(); err != nil {
				return
			}
		}
	}()
	select {
	case <-gone:
	case <-time.After(5 * time.Second):
		t.Fatal("the notifier kept a connection that broke the protocol")
	}
}

// firstOp builds the first operation a freshly joined site would send.
func firstOp(site int, snap wire.JoinResp) wire.ClientOp {
	m, err := core.NewClient(site, snap.Text).Insert(0, "!")
	if err != nil {
		panic(err)
	}
	return wire.ClientOp{From: m.From, TS: m.TS, Ref: m.Ref, Op: m.Op}
}

// TestProtocolConformance runs one table of protocol violations (and the
// orderly Leave) over every reader kind. Each case must retire the offending
// connection, take exactly its own site out of the session — never a
// bystander's, never twice — and leave the other sites' traffic flowing.
func TestProtocolConformance(t *testing.T) {
	const doc = "conf"
	cases := []struct {
		name string
		// join is the offender's opening message; a nil join means the
		// offence is the opening message itself.
		join wire.Msg
		// offend returns what the offender sends after admission as `site`;
		// `other` is a bystander's site id.
		offend func(site, other int, snap wire.JoinResp) wire.Msg
	}{
		{name: "first message not a join", offend: func(int, int, wire.JoinResp) wire.Msg {
			return wire.Leave{Site: 1}
		}},
		{name: "op from another site", join: wire.SessionJoinReq{Session: doc}, offend: func(site, other int, snap wire.JoinResp) wire.Msg {
			return firstOp(other, snap)
		}},
		{name: "op from a viewer", join: wire.SessionJoinReq{Session: doc, ReadOnly: true}, offend: func(site, other int, snap wire.JoinResp) wire.Msg {
			return firstOp(site, snap)
		}},
		{name: "presence from another site", join: wire.SessionJoinReq{Session: doc}, offend: func(site, other int, snap wire.JoinResp) wire.Msg {
			return wire.Presence{From: other, Active: true}
		}},
		{name: "leave", join: wire.SessionJoinReq{Session: doc}, offend: func(site, other int, snap wire.JoinResp) wire.Msg {
			return wire.Leave{Site: site}
		}},
		{name: "unknown message", join: wire.SessionJoinReq{Session: doc}, offend: func(site, other int, snap wire.JoinResp) wire.Msg {
			return wire.JoinResp{Site: site}
		}},
		{name: "ack before join", offend: func(int, int, wire.JoinResp) wire.Msg {
			return wire.Ack{From: 1}
		}},
		{name: "ack with another site's id", join: wire.SessionJoinReq{Session: doc}, offend: func(site, other int, snap wire.JoinResp) wire.Msg {
			return wire.Ack{From: other}
		}},
		{name: "ack of more than was sent", join: wire.SessionJoinReq{Session: doc}, offend: func(site, other int, snap wire.JoinResp) wire.Msg {
			return wire.Ack{From: site, T1: 1} // nothing has been broadcast to a site that just joined
		}},
	}
	for _, k := range readerKinds() {
		t.Run(k.name, func(t *testing.T) {
			reg := obs.NewRegistry("conformance")
			mgr, dial := startKind(t, k, server.WithObservability(reg))
			var eds []*repro.Editor
			for i := 0; i < 2; i++ {
				conn, err := dial()
				if err != nil {
					t.Fatal(err)
				}
				ed, err := repro.ConnectSession(conn, doc, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer ed.Close()
				eds = append(eds, ed)
			}
			sess, _ := mgr.Get(doc)
			want := ""
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					var conn transport.Conn
					if c.join == nil {
						var err error
						if conn, err = dial(); err != nil {
							t.Fatal(err)
						}
						if err := conn.Send(c.offend(0, 0, wire.JoinResp{})); err != nil {
							t.Fatal(err)
						}
					} else {
						var snap wire.JoinResp
						conn, snap = rawJoin(t, dial, c.join)
						if got := len(sess.Sites()); got != len(eds)+1 {
							t.Fatalf("%d sites after the offender joined, want %d", got, len(eds)+1)
						}
						if err := conn.Send(c.offend(snap.Site, eds[0].Site(), snap)); err != nil {
							t.Fatal(err)
						}
					}
					defer conn.Close()
					expectRetired(t, conn)

					// Exactly the offender left.
					deadline := time.Now().Add(5 * time.Second)
					for len(sess.Sites()) != len(eds) {
						if time.Now().After(deadline) {
							t.Fatalf("sites %v after retiring the offender, want the %d bystanders",
								sess.Sites(), len(eds))
						}
						time.Sleep(time.Millisecond)
					}
					// The bystanders are still joined and their traffic flows.
					if err := eds[0].Insert(0, "a"); err != nil {
						t.Fatal(err)
					}
					waitConverged(t, eds, "a"+want)
					if err := eds[1].Insert(eds[1].Len(), "z"); err != nil {
						t.Fatal(err)
					}
					want = "a" + want + "z"
					waitConverged(t, eds, want)
					if got := sess.Text(); got != want {
						t.Fatalf("notifier holds %q, want %q", got, want)
					}
					if got := len(sess.Sites()); got != len(eds) {
						t.Fatalf("%d sites after bystander traffic, want %d", got, len(eds))
					}
				})
			}

			// What is not a violation: a viewer — refused only operations —
			// acknowledges the one broadcast it was sent, and a duplicate of
			// that acknowledgement is ignored. Both are counted on the
			// session's registry child and the connection stays up; a third
			// claiming a broadcast that was never sent ends it.
			t.Run("acks from a viewer", func(t *testing.T) {
				acks := func() (received, stale int64) {
					child, _ := reg.Snapshot().Child(doc)
					return child.Counters[core.CAcksReceived], child.Counters[core.CAcksStale]
				}
				wasReceived, wasStale := acks()
				conn, snap := rawJoin(t, dial, wire.SessionJoinReq{Session: doc, ReadOnly: true})
				defer conn.Close()
				if err := eds[0].Insert(0, "v"); err != nil {
					t.Fatal(err)
				}
				m, err := conn.Recv()
				if so, ok := m.(wire.ServerOp); err != nil || !ok || so.TS.T1 != 1 {
					t.Fatalf("viewer received %+v (%v), want the first broadcast toward it", m, err)
				}
				for i, want := range [][2]int64{{1, 0}, {1, 1}} {
					if err := conn.Send(wire.Ack{From: snap.Site, T1: 1}); err != nil {
						t.Fatal(err)
					}
					eventually(t, func() bool {
						received, stale := acks()
						return received-wasReceived == want[0] && stale-wasStale == want[1]
					}, func() string {
						received, stale := acks()
						return fmt.Sprintf("after ack %d: acks.received +%d, acks.stale +%d; want +%d, +%d",
							i+1, received-wasReceived, stale-wasStale, want[0], want[1])
					})
				}
				if got := len(sess.Sites()); got != len(eds)+1 {
					t.Fatalf("%d sites after the viewer acknowledged, want %d: acknowledging retired it", got, len(eds)+1)
				}
				if err := conn.Send(wire.Ack{From: snap.Site, T1: 2}); err != nil {
					t.Fatal(err)
				}
				expectRetired(t, conn)
				waitConverged(t, eds, "v"+want)
			})
		})
	}
}

// TestLinkOrdering pins the two ordering guarantees of a notifier link on
// every reader kind, under load: the join snapshot is the first thing a new
// site receives, and the broadcasts that follow are exactly the operations
// the snapshot does not contain, in generation order with no gap (FIFO).
func TestLinkOrdering(t *testing.T) {
	const ops = 300
	for _, k := range readerKinds() {
		t.Run(k.name, func(t *testing.T) {
			_, dial := startKind(t, k)
			conn, err := dial()
			if err != nil {
				t.Fatal(err)
			}
			writer, err := repro.Connect(conn, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer writer.Close()

			burst := make(chan error, 1)
			go func() {
				for i := 0; i < ops; i++ {
					if err := writer.Insert(writer.Len(), "x"); err != nil {
						burst <- err
						return
					}
				}
				burst <- nil
			}()
			for writer.Len() < ops/10 { // join mid-burst
				time.Sleep(50 * time.Microsecond)
			}
			obs, snap := rawJoin(t, dial, wire.JoinReq{})
			defer obs.Close()

			// Every insert adds one rune, so the snapshot's length is the
			// number of the writer's operations it already contains.
			next := uint64(len(snap.Text)) + 1
			for next <= ops {
				m, err := obs.Recv()
				if err != nil {
					t.Fatalf("observer link broke waiting for op %d: %v", next, err)
				}
				var batch []wire.ServerOp
				switch v := m.(type) {
				case wire.ServerOp:
					batch = []wire.ServerOp{v}
				case wire.OpBatch:
					batch = v.Ops
				default:
					t.Fatalf("unexpected %T on the observer link", m)
				}
				for _, so := range batch {
					if so.OrigRef.Site != writer.Site() || so.OrigRef.Seq != next {
						t.Fatalf("observer got op %d.%d, want %d.%d (snapshot held %d ops)",
							so.OrigRef.Site, so.OrigRef.Seq, writer.Site(), next, len(snap.Text))
					}
					next++
				}
			}
			if err := <-burst; err != nil {
				t.Fatal(err)
			}
		})
	}
}

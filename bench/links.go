package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/causal"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/op"
	"repro/internal/transport"
	"repro/internal/wire"
)

// linkRounds is how many messages each link probe times: 1500 in a full-length
// run, fewer when the run itself is scaled down.
func (rc runConfig) linkRounds() int { return int(min(1500, max(50, 75*rc.seconds))) }

// stamper reads a connection on its own goroutine and reports when each Recv
// returned. The prober sends only after the previous stamp has come back, so
// the reader is parked in Recv whenever a message is on its way.
type stamper struct {
	at  chan int64
	err chan error
}

func stampRecvs(c transport.Conn) *stamper {
	s := &stamper{at: make(chan int64, 1), err: make(chan error, 1)}
	go func() {
		for {
			_, err := c.Recv()
			at := now()
			if err != nil {
				s.err <- err
				return
			}
			s.at <- at
		}
	}()
	return s
}

func (s *stamper) next() (int64, error) {
	select {
	case at := <-s.at:
		return at, nil
	case err := <-s.err:
		return 0, err
	case <-time.After(10 * time.Second):
		return 0, fmt.Errorf("link probe: no message within 10s")
	}
}

// timed runs send and reports how long the message took to come out of the
// peer's Recv.
func timed(send func() error, peer *stamper) (int64, error) {
	start := now()
	if err := send(); err != nil {
		return 0, err
	}
	at, err := peer.next()
	return at - start, err
}

// probeLinks times the pieces between the layers that the stepper cannot
// reach single-threaded: a message crossing a connection, the Sender's
// queue hand-off, the poller's wake-up, a journal append, and how late this
// machine's timers fire.
func probeLinks(outDir string, rounds int, m map[string]float64) error {
	ins, err := op.NewInsert(1024, 512, "x")
	if err != nil {
		return err
	}
	up := wire.ClientOp{From: 1, TS: core.Timestamp{T1: 7, T2: 9}, Ref: causal.OpRef{Site: 1, Seq: 9}, Op: ins}
	down := wire.ServerOp{To: 2, TS: core.Timestamp{T1: 8, T2: 3}, Ref: causal.OpRef{Site: 0, Seq: 12}, OrigRef: up.Ref, Op: ins}

	// Loopback TCP, accepted the way the notifier accepts.
	ln, err := transport.ListenEventTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() { _ = ln.Close() }()
	dial := func() (client, accepted transport.Conn, err error) {
		if client, err = transport.DialTCP(ln.Addr()); err != nil {
			return nil, nil, err
		}
		if accepted, err = ln.Accept(); err != nil {
			_ = client.Close()
			return nil, nil, err
		}
		return client, accepted, nil
	}
	client, accepted, err := dial()
	if err != nil {
		return err
	}
	// Four trips per round, interleaved so that drift in the machine's state
	// hits them alike: up, down, up again through a Sender's queue and writer
	// goroutine — what that adds to the bare upward trip is the hand-off —
	// and one across the in-memory pipe.
	atServer, atClient := stampRecvs(accepted), stampRecvs(client)
	snd := transport.NewSender(client, nil)
	a, b := transport.Pipe(16)
	legs := []struct {
		send func() error
		peer *stamper
		ns   []int64
	}{
		{send: func() error { return client.Send(up) }, peer: atServer},
		{send: func() error { return accepted.Send(down) }, peer: atClient},
		{send: func() error { return snd.Enqueue(up) }, peer: atServer},
		{send: func() error { return a.Send(up) }, peer: stampRecvs(b)},
	}
	for i := 0; i < rounds && err == nil; i++ {
		for l := range legs {
			var ns int64
			if ns, err = timed(legs[l].send, legs[l].peer); err != nil {
				break
			}
			legs[l].ns = append(legs[l].ns, ns)
		}
	}
	snd.Close()
	for _, c := range []transport.Conn{client, accepted, a, b} {
		_ = c.Close()
	}
	if err != nil {
		return err
	}
	upP50 := p50(legs[0].ns)
	m["transport.tcp_oneway_ns"] = (upP50 + p50(legs[1].ns)) / 2
	m["transport.sender_handoff_ns"] = p50(legs[2].ns) - upP50
	m["transport.mem_oneway_ns"] = p50(legs[3].ns)

	if transport.PollerCapable() { // linux; elsewhere the metric reads 0
		if m["netpoll.wake_ns"], err = probeWake(dial, rounds); err != nil {
			return err
		}
	}

	path := filepath.Join(outDir, "probe.journal")
	jw, err := journal.Create(path)
	if err != nil {
		return err
	}
	defer func() { _ = os.Remove(path) }()
	appendNs := make([]int64, 0, rounds)
	for i := 0; i < rounds; i++ {
		start := now()
		err := jw.Append(journal.Record{Kind: journal.KClientOp, Op: up})
		appendNs = append(appendNs, now()-start)
		if err != nil {
			_ = jw.Close()
			return err
		}
	}
	if err := jw.Close(); err != nil {
		return err
	}
	m["journal.append_ns"] = p50(appendNs)

	m["env.sleep_overshoot_p50_us"] = sleepOvershoot()
	return nil
}

// probeWake times write → the poller's readable callback on a connection
// nobody is parked in Recv on: the wake-up alone, without a goroutine switch
// into a reader.
func probeWake(dial func() (client, accepted transport.Conn, err error), rounds int) (float64, error) {
	client, accepted, err := dial()
	if err != nil {
		return 0, err
	}
	defer func() { _ = client.Close(); _ = accepted.Close() }()
	ec, ok := accepted.(transport.EventConn)
	if !ok {
		return 0, nil
	}
	woke := make(chan int64, 1)
	ec.SetReadable(func() {
		select {
		case woke <- now():
		default:
		}
	})
	defer ec.SetReadable(nil)
	<-woke // SetReadable fires once on registration
	msg := wire.Leave{Site: 1}
	xs := make([]int64, 0, rounds)
	for i := 0; i < rounds; i++ {
		select {
		case <-woke: // an edge raised while draining the previous message
		default:
		}
		start := now()
		if err := client.Send(msg); err != nil {
			return 0, err
		}
		select {
		case at := <-woke:
			xs = append(xs, at-start)
		case <-time.After(10 * time.Second):
			return 0, fmt.Errorf("netpoll probe: no wake-up within 10s")
		}
		// Drain to EAGAIN so the next byte raises a fresh edge.
		for {
			_, ok, err := ec.TryRecv()
			if err != nil {
				return 0, err
			}
			if !ok {
				break
			}
		}
	}
	return p50(xs), nil
}

// sleepOvershoot is the p50, in µs, of how much longer time.Sleep(50µs)
// takes than asked — the reason the workloads are not timer-paced.
func sleepOvershoot() float64 {
	const ask = 50 * time.Microsecond
	xs := make([]int64, 0, 200)
	for i := 0; i < cap(xs); i++ {
		start := now()
		time.Sleep(ask)
		xs = append(xs, now()-start-int64(ask))
	}
	return p50(xs) / 1e3
}

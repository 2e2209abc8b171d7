package transport

import (
	"sync"

	"repro/internal/wire"
)

// EventConn is a Conn whose inbound side can be drained without parking a
// goroutine in Recv. SetReadable registers a wake callback; TryRecv pulls
// the next message without blocking. The in-memory transport implements it
// (its inbound queue is a channel, so readiness is known at delivery time),
// and so does the platform poller's TCP connection (netpoll, Linux: epoll
// edges drive the callback — DESIGN.md §16). The plain TCP transport does
// not — kernel readiness without a blocked read needs that poller — so its
// connections keep a dedicated reader and lean out on the writer side only
// (DESIGN.md §15).
type EventConn interface {
	Conn
	// SetReadable registers fn to be invoked whenever a message is
	// delivered into this end's inbound queue and when either end closes;
	// it also fires once immediately, covering messages queued before
	// registration. fn runs on the delivering goroutine and must not
	// block. A nil fn deregisters.
	SetReadable(fn func())
	// TryRecv returns the next inbound message without blocking. ok
	// reports whether a message was returned; after the connection closes
	// and drains, err is non-nil. (false, nil) means the queue is empty.
	TryRecv() (m wire.Msg, ok bool, err error)
}

// Dispatcher drains many EventConns with a fixed set of worker goroutines —
// the reader half of the goroutine-lean connection layer (WriterPool is the
// writer half). An idle connection costs one dispatchConn record and zero
// goroutines; when a message is delivered the conn's readable callback
// places it on the ready ring (workRing), a worker pops it and steps the
// connection's per-message handler until the inbound queue is empty or a
// fairness burst is used up. The sched bit guarantees at most one worker
// drains a given conn at a time, preserving the Conn contract that Recv
// (here TryRecv) has a single caller, and therefore per-connection FIFO
// handling — independent of which worker the turn lands on.
type Dispatcher struct {
	ring *workRing[*dispatchConn]

	mu     sync.Mutex // guards conns + closed (registration table only)
	closed bool
	conns  map[*dispatchConn]struct{}

	wg    sync.WaitGroup
	burst int // max messages handled per conn per worker turn
}

// dispatchConn is one registered connection's dispatch state.
type dispatchConn struct {
	d      *Dispatcher
	ec     EventConn
	handle func(wire.Msg) bool // false = connection is finished
	finish func()              // invoked exactly once when the conn retires

	mu      sync.Mutex
	sched   bool // on the ready ring or being drained by a worker
	pending bool // readable fired since the current drain began
	dead    bool
}

// NewDispatcher starts workers dispatch goroutines (GOMAXPROCS when
// workers <= 0). burst caps the messages drained from one connection per
// worker turn before it rotates to the back of the ring (default 32 when
// <= 0).
func NewDispatcher(workers, burst int) *Dispatcher {
	if burst <= 0 {
		burst = 32
	}
	if workers <= 0 {
		workers = defaultWorkers()
	}
	d := &Dispatcher{
		burst: burst,
		conns: make(map[*dispatchConn]struct{}),
		ring:  newWorkRing[*dispatchConn](),
	}
	d.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go d.worker()
	}
	return d
}

// Add registers ec: handle is stepped once per inbound message on a worker
// goroutine (never concurrently for the same conn, in delivery order);
// returning false retires the connection. finish runs exactly once when the
// conn retires — on handler refusal, inbound close, or Dispatcher.Close —
// and is where the caller leaves the session and closes the sender. Add
// returns false if the dispatcher is already closed (the caller should fall
// back to a dedicated reader or close the conn).
func (d *Dispatcher) Add(ec EventConn, handle func(wire.Msg) bool, finish func()) bool {
	dc := &dispatchConn{d: d, ec: ec, handle: handle, finish: finish}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return false
	}
	d.conns[dc] = struct{}{}
	d.mu.Unlock()
	// Registration fires the callback once, so anything already queued —
	// including the join request that raced ahead of Add — gets dispatched.
	ec.SetReadable(dc.notify)
	return true
}

// notify is the readable callback: mark pending and schedule the conn if no
// worker has it. Runs on the delivering goroutine (a pool writer, a session
// actor, the poller, or a closer) and must stay non-blocking: ring push +
// signal.
func (dc *dispatchConn) notify() {
	dc.mu.Lock()
	if dc.dead {
		dc.mu.Unlock()
		return
	}
	dc.pending = true
	wake := !dc.sched
	dc.sched = true
	dc.mu.Unlock()
	if wake {
		dc.d.ready(dc)
	}
}

// ready places dc at the back of the ready ring. On a closed dispatcher
// the conn is retired instead — its finish hook still runs, so teardown
// never strands a session registration.
func (d *Dispatcher) ready(dc *dispatchConn) {
	depth, ok := d.ring.push(dc)
	if !ok {
		dc.retire()
		return
	}
	recordRingDepth(depth)
}

func (d *Dispatcher) worker() {
	defer d.wg.Done()
	for {
		dc, ok := d.ring.next()
		if !ok {
			return // closed and drained
		}
		dc.drain()
	}
}

// drain is one worker turn on a scheduled conn: clear pending, step the
// handler for up to burst messages, then decide — retire (handler refused
// or the conn closed), rotate (burst used or pending raced in), or go idle
// (clear sched; the pending flag closes the lost-wakeup window, because a
// delivery is visible either to the drain loop or to a notify that runs
// after sched clears).
func (dc *dispatchConn) drain() {
	dc.mu.Lock()
	if dc.dead {
		dc.mu.Unlock()
		return
	}
	dc.pending = false
	dc.mu.Unlock()

	for i := 0; i < dc.d.burst; i++ {
		m, ok, err := dc.ec.TryRecv()
		if err != nil {
			dc.retire()
			return
		}
		if !ok {
			dc.mu.Lock()
			if dc.pending {
				// A delivery raced the empty read: keep sched and take
				// another turn from the back of the ring.
				dc.mu.Unlock()
				dc.d.ready(dc)
				return
			}
			dc.sched = false
			dc.mu.Unlock()
			return
		}
		if !dc.handle(m) {
			dc.retire()
			return
		}
	}
	// Burst exhausted with the queue possibly non-empty: rotate.
	dc.d.ready(dc)
}

// retire finishes a connection exactly once: deregister the callback, drop
// it from the dispatcher's table, and run the finish hook.
func (dc *dispatchConn) retire() {
	dc.mu.Lock()
	if dc.dead {
		dc.mu.Unlock()
		return
	}
	dc.dead = true
	dc.mu.Unlock()
	dc.ec.SetReadable(nil)
	dc.d.mu.Lock()
	delete(dc.d.conns, dc)
	dc.d.mu.Unlock()
	if dc.finish != nil {
		dc.finish()
	}
}

// Len returns the number of connections currently registered. Tests use it
// to assert that churn retires every dispatchConn exactly once (no leaks,
// no double retire).
func (d *Dispatcher) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.conns)
}

// QueueLen returns the number of scheduled conns waiting on the ready ring.
func (d *Dispatcher) QueueLen() int { return d.ring.queued() }

// Close stops the workers and retires every registered connection (running
// their finish hooks). Messages already queued on a conn are dropped —
// Close is teardown, not drain.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	remaining := make([]*dispatchConn, 0, len(d.conns))
	for dc := range d.conns {
		remaining = append(remaining, dc)
	}
	d.mu.Unlock()
	d.ring.close()
	d.wg.Wait()
	for _, dc := range remaining {
		dc.retire()
	}
}

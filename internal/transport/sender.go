package transport

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/wire"
)

// Sender serializes outbound messages onto a connection through an
// unbounded FIFO queue drained by one writer goroutine. Enqueueing never
// blocks, so engine mutexes are never held across a potentially blocking
// network write — the classic recipe for distributed deadlock under
// backpressure. Both the editor client and the notifier servers use it;
// it is the single owner of its connection's write side.
//
// The writer drains by swapping the entire pending queue out under one
// lock acquisition, then — on a FrameConn — assembles every drained
// message into one blob of frames and hands it over in a single
// SendFrame call: one socket write, however deep the queue got.
// Consecutive encode-once broadcasts in the drain coalesce into TOpBatch
// frames, so a keystroke burst toward a slow reader amortizes framing and
// syscalls instead of multiplying them.
type Sender struct {
	conn Conn
	fc   FrameConn // non-nil when conn supports the pre-encoded fast path

	// closedErr is what Enqueue returns after a clean Close; packages keep
	// their own sentinel (repro.ErrClosed, server.ErrClosed).
	closedErr error

	// pool, when non-nil, selects pooled mode: no dedicated writer
	// goroutine exists, and the queue is drained by the pool's shared
	// workers (see WriterPool). nil is dedicated mode — the reference
	// semantics the differential tests compare pooled mode against.
	pool *WriterPool

	mu        sync.Mutex
	cond      *sync.Cond
	q         []outItem
	closed    bool
	err       error
	highWater int
	// sched (pooled mode only) is true while the sender sits on the pool's
	// ready ring or a worker is servicing it — the exclusivity bit that
	// keeps drains FIFO with at most one servicer at a time. Invariant
	// under mu: len(q) > 0 ⇒ sched.
	sched bool
	// finished (pooled mode only) records that done has been closed, since
	// both Close (idle sender) and a worker's final drain may get there.
	finished bool
	// spare is the recycled queue storage handed back after a pooled drain
	// (the dedicated writer keeps its batch local to run instead).
	spare []outItem
	// queueHist, when non-nil, observes the queue depth at every enqueue.
	// Histogram.Record is lock-free, so sampling under s.mu is safe.
	queueHist *obs.Histogram

	done chan struct{}

	// tracer, when set, receives span stamps (enqueue, drain, encode,
	// write) for sampled items passing through this sender. Atomic so
	// SetTracer is race-free against live traffic; a nil tracer costs one
	// atomic load per push and per drain.
	tracer atomic.Pointer[span.Tracer]
}

// outItem is one queued message: either an ordinary Msg or one destination
// of an encode-once broadcast (bc non-nil), never both.
type outItem struct {
	m  wire.Msg
	bc *wire.Broadcast
	to int
	ts core.Timestamp
}

// NewSender starts the writer goroutine for conn. closedErr, when non-nil,
// is returned by enqueues after Close (ErrClosed otherwise).
func NewSender(conn Conn, closedErr error) *Sender {
	if closedErr == nil {
		closedErr = ErrClosed
	}
	fc, _ := conn.(FrameConn)
	s := &Sender{conn: conn, fc: fc, closedErr: closedErr, done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.run()
	return s
}

// NewPooledSender creates a Sender in pooled mode: the queue is drained by
// pool's shared workers and the connection costs no goroutine while idle.
// Enqueue/Close/error semantics are identical to NewSender's dedicated
// writer (the differential tests in sender_pool_test.go hold the two modes
// to the same observable behavior). A nil pool falls back to NewSender.
func NewPooledSender(conn Conn, closedErr error, pool *WriterPool) *Sender {
	if pool == nil {
		return NewSender(conn, closedErr)
	}
	if closedErr == nil {
		closedErr = ErrClosed
	}
	fc, _ := conn.(FrameConn)
	s := &Sender{conn: conn, fc: fc, closedErr: closedErr, done: make(chan struct{}), pool: pool}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Enqueue appends m to the outbound queue; messages leave in enqueue order.
// After a write error it returns that sticky error instead.
func (s *Sender) Enqueue(m wire.Msg) error {
	return s.push(outItem{m: m})
}

// EnqueueBroadcast queues one destination of an encode-once broadcast. It
// always consumes one reference to bc: the caller Retains before calling,
// and the sender Releases after the bytes are written — or right here when
// the enqueue is refused.
func (s *Sender) EnqueueBroadcast(bc *wire.Broadcast, to int, ts core.Timestamp) error {
	if err := s.push(outItem{bc: bc, to: to, ts: ts}); err != nil {
		bc.Release()
		return err
	}
	return nil
}

// SetTracer attaches the op-lifecycle tracer (nil detaches).
func (s *Sender) SetTracer(tr *span.Tracer) { s.tracer.Store(tr) }

// itemCtx extracts the span context an outbound item carries, if any.
func itemCtx(it outItem) span.Context {
	if it.bc != nil {
		return it.bc.Trace
	}
	switch m := it.m.(type) {
	case wire.ClientOp:
		return m.Trace
	case wire.ServerOp:
		return m.Trace
	}
	return span.Context{}
}

// traceEnqueue stamps the send-enqueue stage. Not inlined: it keeps the
// type switch and span call out of push's frame, so the guarded hot path
// pays only the tracer load when tracing is off.
//
//go:noinline
func (s *Sender) traceEnqueue(tr *span.Tracer, it outItem) {
	tr.Stamp(itemCtx(it), span.StageSendEnqueue)
}

// traceBatch stamps one stage for every sampled item in a drained batch,
// under a single clock reading.
//
//go:noinline
func (s *Sender) traceBatch(tr *span.Tracer, batch []outItem, stage span.Stage) {
	ns := span.Now()
	for i := range batch {
		if c := itemCtx(batch[i]); c.Sampled() {
			tr.StampAt(c, stage, ns)
		}
	}
}

// traceWrite stamps the write stage for every sampled item after the bytes
// left; in finish-on-write tracers this also completes the spans.
//
//go:noinline
func (s *Sender) traceWrite(tr *span.Tracer, batch []outItem) {
	for i := range batch {
		if c := itemCtx(batch[i]); c.Sampled() {
			tr.StampWrite(c)
		}
	}
}

func (s *Sender) push(it outItem) error {
	if tr := s.tracer.Load(); tr != nil {
		s.traceEnqueue(tr, it)
	}
	s.mu.Lock()
	if s.closed {
		err := s.err
		s.mu.Unlock()
		if err != nil {
			return err
		}
		return s.closedErr
	}
	s.q = append(s.q, it)
	if len(s.q) > s.highWater {
		s.highWater = len(s.q)
	}
	if s.queueHist != nil {
		s.queueHist.RecordInt(len(s.q))
	}
	if s.pool == nil {
		s.cond.Signal()
		s.mu.Unlock()
		return nil
	}
	// Pooled: schedule the sender on the first enqueue after a drain. The
	// sched bit makes repeat enqueues free and guarantees one servicer.
	wake := !s.sched
	s.sched = true
	s.mu.Unlock()
	if wake {
		s.pool.ready(s)
	}
	return nil
}

// SetQueueHistogram samples the pending-queue depth into h at every enqueue
// (nil stops sampling). The live depth distribution complements HighWater:
// the maximum says how bad backpressure ever got, the histogram says how
// often.
func (s *Sender) SetQueueHistogram(h *obs.Histogram) {
	s.mu.Lock()
	s.queueHist = h
	s.mu.Unlock()
}

// Err returns the sticky write error, if any.
func (s *Sender) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// HighWater reports the deepest the pending queue has ever been — the
// backpressure a slow reader exerted. It only grows.
func (s *Sender) HighWater() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.highWater
}

// Close drains what is already queued (best effort) and stops the writer.
func (s *Sender) Close() {
	s.mu.Lock()
	if s.pool != nil {
		// Pooled: len(q) > 0 implies sched, so an unscheduled sender is
		// already drained and nothing will come service it — release the
		// waiters here. A scheduled sender's worker closes done at its
		// final empty drain.
		if !s.closed {
			s.closed = true
		}
		fin := !s.sched && !s.finished
		if fin {
			s.finished = true
		}
		s.mu.Unlock()
		if fin {
			close(s.done)
		}
		<-s.done
		return
	}
	if !s.closed {
		s.closed = true
		s.cond.Signal()
	}
	s.mu.Unlock()
	<-s.done
}

func (s *Sender) run() {
	defer close(s.done)
	var batch []outItem
	for {
		s.mu.Lock()
		for len(s.q) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.q) == 0 {
			s.mu.Unlock()
			return // closed and drained
		}
		// Swap the whole pending queue out under this one acquisition;
		// the freshly cleared previous batch becomes the next queue.
		batch, s.q = s.q, batch[:0]
		s.mu.Unlock()

		err := s.write(batch)
		for i := range batch {
			if batch[i].bc != nil {
				batch[i].bc.Release()
			}
			batch[i] = outItem{}
		}
		if err != nil {
			s.fail(err)
			return
		}
	}
}

// serviceOnce is one turn of a pool worker on this sender: swap-drain one
// batch, write it (same coalesced single-SendFrame path as the dedicated
// writer), then either re-enqueue at the back of the ready ring (still hot —
// round-robin fairness) or clear the sched bit. The final check for new
// enqueues happens under the same mutex push appends under, so clearing
// sched cannot strand a message: any push after the clear sees sched ==
// false and re-schedules.
func (s *Sender) serviceOnce() {
	s.mu.Lock()
	if len(s.q) == 0 {
		s.finishLocked()
		return
	}
	batch := s.q
	s.q = s.spare[:0]
	s.spare = nil
	s.mu.Unlock()

	err := s.write(batch)
	for i := range batch {
		if batch[i].bc != nil {
			batch[i].bc.Release()
		}
		batch[i] = outItem{}
	}
	if err != nil {
		s.fail(err)
		s.mu.Lock()
		s.finishLocked()
		return
	}
	s.mu.Lock()
	s.spare = batch[:0]
	if len(s.q) == 0 {
		s.finishLocked()
		return
	}
	s.mu.Unlock()
	s.pool.ready(s)
}

// finishLocked ends a pooled service turn on an empty queue: clears the
// sched bit and, when the sender is closed and fully drained, closes done
// exactly once. Called with s.mu held; unlocks it.
func (s *Sender) finishLocked() {
	s.sched = false
	fin := s.closed && len(s.q) == 0 && !s.finished
	if fin {
		s.finished = true
	}
	s.mu.Unlock()
	if fin {
		close(s.done)
	}
}

// fail records the sticky error and releases anything queued behind the
// failed write; later enqueues see the error immediately.
func (s *Sender) fail(err error) {
	s.mu.Lock()
	s.err = err
	s.closed = true
	rest := s.q
	s.q = nil
	s.mu.Unlock()
	for i := range rest {
		if rest[i].bc != nil {
			rest[i].bc.Release()
		}
	}
}

// write sends one drained batch: a single coalesced SendFrame on the fast
// path, message-by-message Sends on the compatibility path. The frame blob
// and the broadcast-run scratch come from the Buf pool and go back as soon
// as the bytes are written, so a sender between drains holds neither; run
// and serviceOnce never overlap two writes on one sender, so the scratch has
// one owner while it is in use.
func (s *Sender) write(batch []outItem) error {
	tr := s.tracer.Load()
	if tr != nil {
		s.traceBatch(tr, batch, span.StageDrain)
	}
	if s.fc == nil {
		for _, it := range batch {
			m := it.m
			if it.bc != nil {
				m = it.bc.ServerOp(it.to, it.ts)
			}
			if err := s.conn.Send(m); err != nil {
				return err
			}
			senderMsgs.Add(1)
			senderFlushes.Add(1)
		}
		if tr != nil {
			s.traceWrite(tr, batch)
		}
		return nil
	}
	pb := GetBuf(0)
	err := s.writeFrames(pb, batch, tr)
	PutBuf(pb)
	return err
}

// writeFrames assembles batch into pb.B and hands the blob to SendFrame.
func (s *Sender) writeFrames(pb *Buf, batch []outItem, tr *span.Tracer) error {
	for i := 0; i < len(batch); {
		if batch[i].bc == nil {
			var err error
			if pb.B, err = wire.AppendFrame(pb.B, batch[i].m); err != nil {
				return err
			}
			i++
			continue
		}
		run := pb.items[:0]
		for ; i < len(batch) && batch[i].bc != nil; i++ {
			run = append(run, wire.FrameItem{B: batch[i].bc, To: batch[i].to, TS: batch[i].ts})
		}
		pb.B = wire.AppendFrames(pb.B, run)
		clear(run)
		pb.items = run[:0]
	}
	if tr != nil {
		s.traceBatch(tr, batch, span.StageEncode)
	}
	if err := s.fc.SendFrame(pb.B); err != nil {
		return err
	}
	// One drain, one flush round — however many messages it carried.
	senderMsgs.Add(uint64(len(batch)))
	senderFlushes.Add(1)
	if tr != nil {
		s.traceWrite(tr, batch)
	}
	return nil
}

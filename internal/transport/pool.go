package transport

import "sync"

// WriterPool drains many pooled Senders with a fixed set of worker
// goroutines. A dedicated-mode Sender pins one goroutine per connection for
// its whole lifetime, almost all of it parked in cond.Wait on an idle
// session; at 100k connections that is 100k goroutines (and their stacks)
// doing nothing. In pooled mode a Sender owns only its queue and a
// "scheduled" bit: the first enqueue after a drain places the sender on the
// pool's ready ring, one worker pops it, swap-drains the queue exactly like
// the dedicated writer, and the sender leaves the ring again. Idle cost is
// the queue header; write cost is unchanged (same coalesced single-SendFrame
// drain); the goroutine count is O(workers), not O(connections).
//
// Per-sender FIFO is preserved because the scheduled bit guarantees at most
// one worker services a given sender at a time, and a sender that is still
// hot after one drained batch goes to the back of the ring — round-robin
// fairness across hot connections instead of head-of-line capture of a
// worker. The known cost of sharing: a worker blocked in a slow peer's
// SendFrame is unavailable to other senders, so a deployment expecting
// pathologically slow consumers should size the pool above the expected
// number of simultaneously-stalled peers, or keep dedicated mode.
type WriterPool struct {
	ring *workRing[*Sender]

	wg      sync.WaitGroup
	workers int
}

// NewWriterPool starts a pool of workers writer goroutines (GOMAXPROCS when
// workers <= 0). Senders attach via NewPooledSender.
func NewWriterPool(workers int) *WriterPool {
	if workers <= 0 {
		workers = defaultWorkers()
	}
	p := &WriterPool{workers: workers, ring: newWorkRing[*Sender]()}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the pool size.
func (p *WriterPool) Workers() int { return p.workers }

// QueueLen returns the number of scheduled senders not yet picked up by a
// worker.
func (p *WriterPool) QueueLen() int { return p.ring.queued() }

// ready places s at the back of the ready ring. Called by a sender whose
// queue just became non-empty (push) or that is still hot after a drained
// batch (serviceOnce). On a closed pool the sender is serviced by a spawned
// goroutine instead, so Close semantics (drain, then release waiters)
// survive pool shutdown ordering mistakes.
func (p *WriterPool) ready(s *Sender) {
	depth, ok := p.ring.push(s)
	if !ok {
		go s.serviceOnce()
		return
	}
	recordRingDepth(depth)
}

func (p *WriterPool) worker() {
	defer p.wg.Done()
	for {
		s, ok := p.ring.next()
		if !ok {
			return // closed and drained
		}
		s.serviceOnce()
	}
}

// Close drains the ready ring and stops the workers. Senders attached to
// the pool remain usable: enqueues after Close fall back to per-drain
// spawned goroutines (see ready), so the pool can be torn down before or
// after its senders without stranding queued messages.
func (p *WriterPool) Close() {
	p.ring.close()
	p.wg.Wait()
}

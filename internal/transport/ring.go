package transport

import (
	"runtime"
	"sync"
)

// workRing is the ready ring behind both the Dispatcher and the WriterPool
// (DESIGN.md §15, §18): one mutex+cond FIFO that every producer pushes to and
// every worker pops from. Per-item FIFO does not depend on the ring — an
// item's sched bit guarantees one servicer at a time — so the ring only
// decides which worker takes the next turn, and in what order hot items
// rotate.
type workRing[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ring   []T // circular buffer: ring[head..head+n) are ready
	head   int
	n      int
	closed bool
}

func newWorkRing[T any]() *workRing[T] {
	r := &workRing[T]{}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// push appends v at the tail, doubling the buffer when full, and wakes at
// most one worker. It reports false — without queuing — when the ring is
// closed; the caller owns the fallback (retire the conn, spawn a drain
// goroutine). The returned depth is the queue length after the push, for the
// dispatch.ring.depth histogram the caller records.
func (r *workRing[T]) push(v T) (depth int, ok bool) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, false
	}
	if r.n == len(r.ring) {
		grown := make([]T, max(8, 2*len(r.ring)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.ring[(r.head+i)%len(r.ring)]
		}
		r.ring, r.head = grown, 0
	}
	r.ring[(r.head+r.n)%len(r.ring)] = v
	r.n++
	depth = r.n
	r.cond.Signal()
	r.mu.Unlock()
	return depth, true
}

// next removes and returns the oldest item, parking until one is pushed. ok
// is false only when the ring is closed AND drained — Close keeps the §15
// semantics of servicing leftover ready items before the workers exit. The
// vacated slot is zeroed so items that retire while off the ring are not
// pinned against the GC.
func (r *workRing[T]) next() (v T, ok bool) {
	r.mu.Lock()
	for r.n == 0 && !r.closed {
		r.cond.Wait()
	}
	if r.n > 0 {
		var zero T
		v, ok = r.ring[r.head], true
		r.ring[r.head] = zero
		r.head = (r.head + 1) % len(r.ring)
		r.n--
	}
	r.mu.Unlock()
	return v, ok
}

// queued returns the number of items waiting.
func (r *workRing[T]) queued() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// close releases all parked workers; pushes from here on report false.
// Queued items stay queued — the workers drain them before exiting.
func (r *workRing[T]) close() {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
}

// defaultWorkers sizes a dispatcher or pool at one worker per CPU.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

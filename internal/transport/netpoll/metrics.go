package netpoll

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Process-wide poller counters, shared by every Poller in the process (like
// the transport package's sender/TCP counters they are monotone; callers
// measure with deltas).
var (
	// wakeups counts epoll_wait returns — the syscall budget of the whole
	// read side. One wakeup servicing many connections is the point of the
	// poller; wakeups/events_per_wait together say how well that amortizes.
	wakeups atomic.Uint64
	// rearms counts EPOLLOUT arm operations: a short write filled the
	// socket buffer and the remainder was parked for the poller to flush.
	rearms atomic.Uint64
	// partialReads counts TryRecv rounds that read bytes to EAGAIN and
	// still ended with an incomplete frame buffered — the reassembly buffer
	// doing its job across a frame boundary.
	partialReads atomic.Uint64
	// eventsHist, once RegisterMetrics runs, records the batch size of each
	// epoll_wait return.
	eventsHist atomic.Pointer[obs.Histogram]
)

// Wakeups returns the process-wide count of epoll_wait returns.
func Wakeups() uint64 { return wakeups.Load() }

// Rearms returns the process-wide count of EPOLLOUT re-arms after short
// writes.
func Rearms() uint64 { return rearms.Load() }

// PartialReads returns the process-wide count of read rounds that ended on a
// partial frame.
func PartialReads() uint64 { return partialReads.Load() }

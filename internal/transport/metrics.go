package transport

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Process-wide sender drain counters. senderMsgs counts messages written by
// all Senders; senderFlushes counts the write rounds (Send or SendFrame
// calls) they took. Their ratio is the flush-coalescing factor the
// swap-drain design exists to maximize: a deep queue drained into one
// SendFrame moves the ratio far above 1.
var (
	senderMsgs    atomic.Uint64
	senderFlushes atomic.Uint64
)

// ringDepthHist, when set, observes the ready ring's queue depth at every
// push (Dispatcher and WriterPool combined) — an atomic pointer so
// registration is race-free against live traffic and the unregistered path
// costs one load.
var ringDepthHist atomic.Pointer[obs.Histogram]

// SenderMsgs returns the process-wide count of messages written by Senders.
func SenderMsgs() uint64 { return senderMsgs.Load() }

// SenderFlushes returns the process-wide count of Sender write rounds.
func SenderFlushes() uint64 { return senderFlushes.Load() }

// recordRingDepth samples the ring's post-push queue depth into the
// registered histogram, if any.
func recordRingDepth(n int) {
	if h := ringDepthHist.Load(); h != nil {
		h.RecordInt(n)
	}
}

// RegisterMetrics exposes the package's process-wide counters on r:
// sender.msgs, sender.flushes, tcp.bytes_sent, tcp.flushes, and the
// dispatch.ring.depth histogram.
func RegisterMetrics(r *obs.Registry) {
	r.CounterFunc(obs.CSenderMsgs, func() int64 { return int64(SenderMsgs()) })
	r.CounterFunc(obs.CSenderFlushes, func() int64 { return int64(SenderFlushes()) })
	r.CounterFunc(obs.CTCPBytes, func() int64 { return int64(TCPBytesSent()) })
	r.CounterFunc(obs.CTCPFlushes, func() int64 { return int64(TCPFlushes()) })
	ringDepthHist.Store(r.Histogram(obs.HDispatchRingDepth))
}

// Package netpoll is the platform readiness poller of the goroutine-lean
// connection layer (DESIGN.md §16): a raw-syscall epoll reader/writer that
// makes real TCP connections event-capable (transport.EventConn), so the
// shared Dispatcher drains them with zero goroutines per connection — the
// same capacity profile the in-memory transport already has (DESIGN.md §15).
//
// On Linux, ListenTCP returns a transport.Listener whose accepted
// connections are owned by an epoll instance: one poller goroutine calls
// epoll_wait and forwards readiness edges to the connections' readable
// callbacks (feeding the Dispatcher's ready ring) and to their pending-write
// flushers. Reads are non-blocking (TryRecv reassembles complete wire frames
// from short reads without ever parking a goroutine) and short writes re-arm
// EPOLLOUT instead of spinning or pinning a writer-pool worker.
//
// On every other platform the package compiles to a stub: Available reports
// false, ListenTCP returns ErrUnavailable, and callers fall back to the
// dedicated-reader TCP path (transport.ListenTCP) — the reference semantics
// this package is differentially tested against.
package netpoll

import (
	"errors"

	"repro/internal/obs"
)

// ErrUnavailable is returned by ListenTCP and NewPoller on platforms without
// a readiness poller. Callers fall back to transport.ListenTCP.
var ErrUnavailable = errors.New("netpoll: no readiness poller on this platform")

// DefaultReadChunk is the per-read buffer extension: each non-blocking read
// pulls up to this many bytes into the reassembly buffer. Large enough that
// a keystroke burst drains in one syscall, small enough that 50k idle
// connections do not pin read buffers (idle connections hold no buffer at
// all — the reassembly buffer is taken from the transport buffer pool on
// first data and returned when it drains).
const DefaultReadChunk = 32 << 10

// Option configures a poller-backed listener or connection.
type Option func(*config)

type config struct {
	readChunk int
	sockBuf   int
	poller    *Poller
	shards    int
}

// WithReadChunk sets how many bytes each non-blocking read may pull into the
// reassembly buffer (default DefaultReadChunk; values below 1 fall back to
// the default). Tests use tiny chunks to force partial-frame reassembly.
func WithReadChunk(n int) Option {
	return func(c *config) { c.readChunk = n }
}

// WithSockBuf sets SO_RCVBUF and SO_SNDBUF on accepted connections (0 keeps
// the kernel default). Chaos tests use tiny socket buffers to force short
// reads and short writes on real connections.
func WithSockBuf(n int) Option {
	return func(c *config) { c.sockBuf = n }
}

// WithPoller attaches accepted connections to p instead of the process-wide
// default poller. Tests use private pollers so Close tears them down.
func WithPoller(p *Poller) Option {
	return func(c *config) { c.poller = p }
}

// WithPollerShards sets how many epoll instances a NewPoller call creates,
// each with its own event loop; connections are assigned round-robin at
// registration (DESIGN.md §18). n <= 0 keeps the default
// (min(GOMAXPROCS, 4) on Linux); 1 is the single-instance §16 layout. Only
// NewPoller reads this option — listeners and dials inherit their poller's
// shard count.
func WithPollerShards(n int) Option {
	return func(c *config) { c.shards = n }
}

func buildConfig(opts []Option) config {
	cfg := config{readChunk: DefaultReadChunk}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.readChunk < 1 {
		cfg.readChunk = DefaultReadChunk
	}
	return cfg
}

// RegisterMetrics exposes the package's process-wide poller counters on r:
// poller.wakeups, poller.rearm, conn.partial_reads, the per-shard
// poller.shard.wakeups.0..3 counters (a fixed set so the catalogue does not
// depend on the box; shard indexes past 3 fold into the array's tail — see
// ShardWakeups), and the poller.events_per_wait histogram (recorded by every
// poller in the process from registration on).
func RegisterMetrics(r *obs.Registry) {
	r.CounterFunc(obs.CPollerWakeups, func() int64 { return int64(Wakeups()) })
	r.CounterFunc(obs.CPollerRearm, func() int64 { return int64(Rearms()) })
	r.CounterFunc(obs.CConnPartialReads, func() int64 { return int64(PartialReads()) })
	r.CounterFunc(obs.CPollerShard0Wakeups, func() int64 { return int64(ShardWakeups(0)) })
	r.CounterFunc(obs.CPollerShard1Wakeups, func() int64 { return int64(ShardWakeups(1)) })
	r.CounterFunc(obs.CPollerShard2Wakeups, func() int64 { return int64(ShardWakeups(2)) })
	r.CounterFunc(obs.CPollerShard3Wakeups, func() int64 { return int64(ShardWakeups(3)) })
	eventsHist.Store(r.Histogram(obs.HPollerEventsPerWait))
}

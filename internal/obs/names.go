package obs

// Canonical metric names. DESIGN.md §12 is the catalogue (units and
// semantics); TestMetricsCatalog in internal/server asserts that a fully
// wired notifier exposes exactly these names, so renames must touch both.
//
// Naming scheme: lowercase dotted paths, "component.metric[.detail]".
// Engine counters keep their historical names (ops.generated, checks.total,
// ...) declared in internal/core, the engine that bumps them.
const (
	// HReceiveNs is the per-session histogram of notifier engine latency in
	// nanoseconds: one Receive from arrival through formula-(7) checks,
	// transformation, execution, and broadcast fan-out enqueue.
	HReceiveNs = "receive.ns"

	// HQueueDepth is the histogram of outbound writer-queue depth observed
	// at every enqueue across all connections — the live distribution behind
	// the QueueHighWater maximum.
	HQueueDepth = "conn.queue.depth"

	// GQueueHighWater is the deepest any live connection's outbound queue
	// has ever been (Sender.HighWater maximum over connections).
	GQueueHighWater = "conn.queue.highwater"

	// Per-session engine gauges, evaluated on the session goroutine while
	// resident and from the frozen park-time view while dehydrated.
	GSites      = "sites"          // currently joined sites
	GOpsRecv    = "ops.received"   // operations received over the lifetime
	GDocRunes   = "doc.runes"      // document length in runes
	GHBLen      = "hb.len"         // history-buffer entries alive
	GClockWords = "hb.clock_words" // clock words kept to timestamp the HB (E4)

	// GGoroutines is the process goroutine count (runtime.NumGoroutine) —
	// the headline the goroutine-lean connection layer is judged by: it must
	// stay O(pool + resident sessions), not O(connections) (E13).
	GGoroutines = "runtime.goroutines"

	// Runtime memory gauges (runtime.ReadMemStats, sampled per snapshot):
	// live heap bytes, the most recent GC pause, and the GC cycle count.
	// Together with receive.ns they let cvcstat correlate latency spikes
	// with collection activity.
	GHeapBytes = "runtime.heap_bytes"
	GGCPauseNs = "runtime.gc_pause_ns"
	GNumGC     = "runtime.num_gc"

	// GResident is the per-session residency bit: 1 while the session holds
	// a live engine + goroutine, 0 while dehydrated (or closed). Per-session
	// dashboards (cvcstat) render it as the res column.
	GResident = "resident"

	// Fleet residency metrics (the manager's idle-dehydration state):
	// resident sessions hold a goroutine + live engine, dehydrated ones only
	// a compact checkpoint; rehydrations counts transparent restores.
	GSessionsResident    = "sessions.resident"
	GSessionsDehydrated  = "sessions.dehydrated"
	CSessionRehydrations = "sessions.rehydrations"

	// Process-wide sender counters (internal/transport): coalescing ratio is
	// sender.msgs / sender.flushes.
	CSenderMsgs    = "sender.msgs"    // messages drained from writer queues
	CSenderFlushes = "sender.flushes" // write+flush rounds those drains took

	// Process-wide TCP write-side counters (internal/transport).
	CTCPBytes   = "tcp.bytes_sent" // frame bytes written to TCP conns
	CTCPFlushes = "tcp.flushes"    // socket write rounds on TCP conns

	// Process-wide readiness-poller metrics (internal/transport/netpoll).
	// poller.wakeups counts epoll_wait returns, poller.events_per_wait is
	// the histogram of how many events each return carried (their product
	// is total events — the amortization the poller exists for),
	// poller.rearm counts EPOLLOUT re-arms after short writes, and
	// conn.partial_reads counts read rounds that ended on an incomplete
	// frame held in the reassembly buffer.
	CPollerWakeups       = "poller.wakeups"
	HPollerEventsPerWait = "poller.events_per_wait"
	CPollerRearm         = "poller.rearm"
	CConnPartialReads    = "conn.partial_reads"

	// Sharded-scheduling metrics (internal/transport, DESIGN.md §18).
	// dispatch.steals counts ready-ring pops a worker took from a sibling
	// shard (Dispatcher and WriterPool combined); dispatch.shard.depth is
	// the histogram of per-shard queue depth observed at every push;
	// fanout.parallel counts broadcasts scattered across pool workers
	// instead of enqueued serially.
	CDispatchSteals     = "dispatch.steals"
	CFanoutParallel     = "fanout.parallel"
	HDispatchShardDepth = "dispatch.shard.depth"

	// Per-shard epoll wakeup counters (internal/transport/netpoll). Fixed
	// names for shard indexes 0..3 — the default shard count is capped at 4,
	// and fixing the set keeps the metrics catalogue box-independent; shards
	// beyond 15 fold into the last slot of the backing array.
	CPollerShard0Wakeups = "poller.shard.wakeups.0"
	CPollerShard1Wakeups = "poller.shard.wakeups.1"
	CPollerShard2Wakeups = "poller.shard.wakeups.2"
	CPollerShard3Wakeups = "poller.shard.wakeups.3"

	// Process-wide wire encode counters (internal/wire). Per-type frame and
	// byte counters are named wire.frames.<type> / wire.bytes.<type> with
	// the type names in wire.TypeName.
	CWireEncodes = "wire.serverop_encodes" // ServerOp tail encodes (1 per broadcast)
	CWireOps     = "wire.ops_sent"         // server ops framed toward destinations (a K-op batch counts K)
)

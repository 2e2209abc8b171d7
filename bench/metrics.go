package main

// metricDef names one reported number. BENCHMARK.json repeats these tables;
// a test holds the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the numbers a user of the system sees, all measured with
// tracing off, each the median over the repetitions of a run.
//
// The bounds are what this shared 2-vCPU box can resolve, not what one would
// wish for: its speed steps by 10–40% and stays there for minutes, every
// timing steps with it, and ten back-to-back runs spread (IQR ÷ median) by up
// to 0.2 on every metric but live_heap_mb, which repeats to under 1%.
// README.md has the table.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"propagate_p50_us", "us", "lower", 0.25},
	{"propagate_p95_us", "us", "lower", 0.25},
	{"local_edit_p50_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"join_p50_us", "us", "lower", 0.25},
}

// perLayer are the numbers of single layers, named layer.metric after this
// repository's packages. Timings are p50 unless the name says otherwise;
// *_per_op, *_bytes, *_depth, *_len and *_allocs are counts.
var perLayer = []metricDef{
	// Live taps on every connection of a traced repetition.
	{"editor.local_ns", "ns", "lower", 0},
	{"editor.sendq_wait_ns", "ns", "lower", 0},
	{"transport.client_write_ns", "ns", "lower", 0},
	{"server.turnaround_ns", "ns", "lower", 0},
	{"editor.integrate_ns", "ns", "lower", 0},
	{"transport.ops_per_write", "count", "higher", 0},
	{"transport.ops_per_recv", "count", "higher", 0},
	// Program counters read through their public getters, as deltas per op.
	{"wire.encodes_per_broadcast", "count", "lower", 0},
	{"transport.tcp_bytes_per_op", "count", "lower", 0},
	{"transport.flushes_per_op", "count", "lower", 0},
	{"transport.sender_flushes_per_op", "count", "lower", 0},
	{"netpoll.wakeups_per_op", "count", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.gc_pause_us_per_op", "us", "lower", 0},
	{"runtime.sched_latency_p99_us", "us", "lower", 0},
	{"runtime.goroutines", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	// Stepper: the same edit stream replayed single-threaded through the
	// layers' public functions.
	{"op.build_ns", "ns", "lower", 0},
	{"op.transform_ns", "ns", "lower", 0},
	{"op.compose_ns", "ns", "lower", 0},
	{"doc.rope_apply_ns", "ns", "lower", 0},
	{"doc.rope_string_ns", "ns", "lower", 0},
	{"core.client_generate_ns", "ns", "lower", 0},
	{"core.client_integrate_ns", "ns", "lower", 0},
	{"core.client_transforms_per_op", "count", "lower", 0},
	{"core.client_pending_depth", "count", "lower", 0},
	{"core.client_integrate_allocs", "count", "lower", 0},
	{"core.server_receive_ns", "ns", "lower", 0},
	{"core.server_transforms_per_op", "count", "lower", 0},
	{"core.server_concurrent_per_op", "count", "lower", 0},
	{"core.server_bridge_depth", "count", "lower", 0},
	{"core.server_hb_len", "count", "lower", 0},
	{"core.server_receive_allocs", "count", "lower", 0},
	{"core.server_join_ns", "ns", "lower", 0},
	{"wire.clientop_encode_ns", "ns", "lower", 0},
	{"wire.clientop_decode_ns", "ns", "lower", 0},
	{"wire.clientop_bytes", "count", "lower", 0},
	{"wire.broadcast_encode_ns", "ns", "lower", 0},
	{"wire.serverop_decode_ns", "ns", "lower", 0},
	{"wire.serverop_bytes", "count", "lower", 0},
	{"wire.ts_bytes", "count", "lower", 0},
	{"server.session_receive_ns", "ns", "lower", 0},
	{"server.actor_hop_ns", "ns", "lower", 0},
	{"server.session_join_ns", "ns", "lower", 0},
	{"server.manager_lookup_ns", "ns", "lower", 0},
	{"transport.tcp_oneway_ns", "ns", "lower", 0},
	{"transport.mem_oneway_ns", "ns", "lower", 0},
	{"transport.sender_handoff_ns", "ns", "lower", 0},
	{"netpoll.wake_ns", "ns", "lower", 0},
	{"journal.append_ns", "ns", "lower", 0},
	{"env.sleep_overshoot_p50_us", "us", "lower", 0},
	// The layer budget: what the hops on the propagate path add up to, and
	// what no layer accounts for (scheduler, kernel, queueing).
	{"budget.attributed_us", "us", "lower", 0},
	{"budget.unattributed_us", "us", "lower", 0},
	{"budget.unattributed_share", "%", "lower", 0},
}

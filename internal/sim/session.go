package sim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/causal"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Config parameterizes one simulated editing session.
type Config struct {
	// Clients is the number of collaborating sites (≥ 1).
	Clients int
	// OpsPerClient is how many operations each client generates.
	OpsPerClient int
	// Seed drives all randomness; equal configs with equal seeds produce
	// byte-identical results.
	Seed int64
	// Mode selects the paper's scheme (ModeTransform) or the E8 ablation
	// (ModeRelay).
	Mode core.Mode
	// Latency models the client↔notifier links (default: Uniform 20–80ms).
	Latency LatencyModel
	// Workload parameterizes user behaviour.
	Workload Workload
	// Initial is the starting document.
	Initial string
	// Validate records every event in the causality oracle and replays
	// every concurrency verdict against it (slower; quadratic memory in
	// ops). Leave off for throughput benchmarks.
	Validate bool
	// Compaction is passed to the engines (0 disables HB GC).
	Compaction int
	// Joiners adds sites that join mid-session (spread over the first
	// half of the virtual timeline), each generating OpsPerClient ops
	// after joining — exercising snapshots and timestamp baselines under
	// load.
	Joiners int
	// LeaveEarly makes each of the first LeaveEarly founding sites leave
	// after generating half its operations. Departed sites stop receiving;
	// convergence is asserted over the survivors.
	LeaveEarly int
	// JournalPath, when set, records the notifier-side event stream
	// (joins, leaves, operations) to a journal file, enabling offline
	// causality analysis of the simulated session (journal.Analyze).
	JournalPath string
}

func (c Config) withDefaults() Config {
	if c.Latency == nil {
		c.Latency = Uniform{Lo: 20 * time.Millisecond, Hi: 80 * time.Millisecond}
	}
	c.Workload = c.Workload.withDefaults()
	return c
}

// Result summarizes a simulated session.
type Result struct {
	// Converged reports whether all replicas (and the notifier) ended
	// identical.
	Converged bool
	// FinalLen is the final document length in runes.
	FinalLen int
	// FinalText is the converged document (notifier's copy if diverged).
	FinalText string
	// Duration is the virtual time the session spanned.
	Duration time.Duration

	// TotalChecks and ConcurrentPairs count formula (5)/(7) evaluations
	// and positive verdicts.
	TotalChecks     int
	ConcurrentPairs int
	// VerdictMismatches counts verdicts that disagree with the
	// Definition-1 oracle (only when Validate is set; must be 0 in
	// ModeTransform).
	VerdictMismatches int

	// Byte accounting, measured by encoding every message with the real
	// wire codec.
	BytesUp        int64
	BytesDown      int64
	TimestampBytes int64
	// FullVCTimestampBytes is what the same messages would have spent on
	// timestamps under the classic full-vector scheme (one N-element
	// vector per message, N = current SV_0 size) — the baseline most
	// group editors used (paper §3.1).
	FullVCTimestampBytes int64

	// IntegrationLatency samples generation→remote-execution delays
	// (virtual time).
	IntegrationLatency stats.Sample
	// High-water marks of the bounded structures (history buffers, the
	// client pending lists, and the notifier's per-client bridges).
	MaxServerHB  int
	MaxClientHB  int
	MaxPending   int
	MaxBridgeLen int

	// Metrics carries the raw counters (core.COpsGenerated, ...).
	Metrics *obs.Registry
}

// Run simulates one session to quiescence.
func Run(cfg Config) (res *Result, err error) {
	cfg = cfg.withDefaults()
	if cfg.Clients < 1 {
		return nil, fmt.Errorf("sim: need at least one client, got %d", cfg.Clients)
	}
	s := New()
	res = &Result{Metrics: obs.NewRegistry("")}

	srvOpts := []core.ServerOption{
		core.WithServerMode(cfg.Mode), core.WithServerCompaction(cfg.Compaction)}
	if cfg.Validate {
		// Verdict replay against the oracle needs the per-check trace; it
		// is off otherwise so throughput runs exercise the lean hot path.
		srvOpts = append(srvOpts, core.WithServerCheckTrace())
	}
	srv := core.NewServer(cfg.Initial, srvOpts...)
	clients := make(map[int]*core.Client, cfg.Clients)
	states := make(map[int]*editorState, cfg.Clients)
	rngs := make(map[int]*rand.Rand, cfg.Clients)
	upLinks := make(map[int]*link, cfg.Clients)
	downLinks := make(map[int]*link, cfg.Clients)
	netRng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))

	var oracle *causal.Oracle
	if cfg.Validate {
		oracle = causal.NewOracle()
	}
	var jw *journal.Writer
	if cfg.JournalPath != "" {
		var err error
		if jw, err = journal.Create(cfg.JournalPath); err != nil {
			return nil, err
		}
		// The journal is the session's durable record: a failed flush on
		// close means records were lost, which must fail the run.
		defer func() {
			if cerr := jw.Close(); cerr != nil && err == nil {
				res, err = nil, fmt.Errorf("sim: close journal: %w", cerr)
			}
		}()
	}
	var checks []core.Check
	genTime := map[causal.OpRef]time.Duration{}

	left := make(map[int]bool)

	// lastServerRef is the causal identity of the most recent operation
	// executed at site 0 — a join snapshot carries its effects (and, by
	// the server's total order, those of everything before it).
	var lastServerRef causal.OpRef

	addSite := func(site int) error {
		snap, err := srv.Join(site)
		if err != nil {
			return err
		}
		if jw != nil {
			if err := jw.Append(journal.Record{Kind: journal.KJoin, Site: site}); err != nil {
				return err
			}
		}
		cliOpts := []core.ClientOption{
			core.WithClientMode(cfg.Mode), core.WithClientCompaction(cfg.Compaction),
			core.WithClientResume(snap.LocalOps)}
		if cfg.Validate {
			cliOpts = append(cliOpts, core.WithClientCheckTrace())
		}
		clients[site] = core.NewClient(site, snap.Text, cliOpts...)
		states[site] = &editorState{}
		rngs[site] = rand.New(rand.NewSource(cfg.Seed + int64(site)*7919))
		upLinks[site] = newLink(s, netRng, cfg.Latency)
		downLinks[site] = newLink(s, netRng, cfg.Latency)
		if cfg.Validate && lastServerRef != (causal.OpRef{}) {
			// The snapshot is an execution of everything at site 0 so far;
			// recording the latest server op suffices (it dominates).
			oracle.Execute(site, lastServerRef)
		}
		return nil
	}

	for site := 1; site <= cfg.Clients; site++ {
		if err := addSite(site); err != nil {
			return nil, err
		}
	}

	// Watermarks are updated incrementally for only the structures an event
	// touched — a full scan per delivery would make large-N sweeps O(N²).
	clientWatermarks := func(site int) {
		c := clients[site]
		if n := c.History().Len(); n > res.MaxClientHB {
			res.MaxClientHB = n
		}
		if n := c.PendingCount(); n > res.MaxPending {
			res.MaxPending = n
		}
		if n := srv.BridgeLen(site); n > res.MaxBridgeLen {
			res.MaxBridgeLen = n
		}
	}

	// serverReceive and clientReceive are the link delivery handlers.
	var fail error
	abort := func(err error) {
		if fail == nil {
			fail = err
		}
	}

	// clientReceive is declared before serverReceive because each schedules
	// deliveries handled by the other.
	var clientReceive func(site int, bm core.ServerMsg)

	serverReceive := func(m core.ClientMsg) {
		if fail != nil {
			return
		}
		if jw != nil {
			if err := jw.Append(journal.Record{Kind: journal.KClientOp, Op: wire.ClientOp{
				From: m.From, TS: m.TS, Ref: m.Ref, Op: m.Op}}); err != nil {
				abort(err)
				return
			}
		}
		bcast, ir, err := srv.Receive(m)
		if err != nil {
			abort(fmt.Errorf("sim: server receive: %w", err))
			return
		}
		res.TotalChecks += ir.CheckCount
		res.ConcurrentPairs += ir.ConcurrentCount
		res.Metrics.Counter(core.CConcurrencyChecks).Add(int64(ir.CheckCount))
		res.Metrics.Counter(core.CConcurrentPairs).Add(int64(ir.ConcurrentCount))
		// Modeled baseline cost: one full SV_0-sized vector per message
		// (computed once per op; the vector is identical for the up-leg
		// and all broadcasts of this op).
		fullVCLen := int64(len(wire.AppendVC(nil, srv.SV().Full())))
		res.FullVCTimestampBytes += fullVCLen
		if cfg.Validate {
			checks = append(checks, ir.Checks...)
			oracle.Execute(0, m.Ref)
			if cfg.Mode == core.ModeTransform {
				newRef := causal.OpRef{Site: 0, Seq: uint64(srv.History().Len() + srv.History().Dropped())}
				if len(bcast) > 0 {
					newRef = bcast[0].Ref
				}
				oracle.GenerateDerived(0, newRef, m.Ref)
				genTime[newRef] = genTime[m.Ref]
				lastServerRef = newRef
			} else {
				lastServerRef = m.Ref
			}
		}
		for _, bm := range bcast {
			bm := bm
			body, err := wire.Append(nil, wire.ServerOp{
				To: bm.To, TS: bm.TS, Ref: bm.Ref, OrigRef: bm.OrigRef, Op: bm.Op,
			})
			if err != nil {
				abort(err)
				return
			}
			res.BytesDown += int64(len(body))
			res.TimestampBytes += int64(wire.TimestampSize(bm.TS))
			res.FullVCTimestampBytes += fullVCLen
			dest := bm.To
			downLinks[dest].send(func() { clientReceive(dest, bm) })
		}
		if n := srv.History().Len(); n > res.MaxServerHB {
			res.MaxServerHB = n
		}
		clientWatermarks(m.From)
	}

	clientReceive = func(site int, bm core.ServerMsg) {
		if fail != nil {
			return
		}
		if left[site] {
			// In reality the broadcast dies with the closed connection.
			return
		}
		ir, err := clients[site].Integrate(bm)
		if err != nil {
			abort(fmt.Errorf("sim: client %d integrate: %w", site, err))
			return
		}
		res.TotalChecks += ir.CheckCount
		res.ConcurrentPairs += ir.ConcurrentCount
		res.Metrics.Counter(core.COpsIntegrated).Add(1)
		res.Metrics.Counter(core.CConcurrencyChecks).Add(int64(ir.CheckCount))
		res.Metrics.Counter(core.CConcurrentPairs).Add(int64(ir.ConcurrentCount))
		if cfg.Validate {
			checks = append(checks, ir.Checks...)
			oracle.Execute(site, bm.Ref)
		}
		if t0, ok := genTime[bm.OrigRef]; ok {
			res.IntegrationLatency.Add(float64(s.Now() - t0))
		}
		clientWatermarks(site)
	}

	// startGenerator schedules a site's editing activity: ops operations at
	// think-time intervals, then (optionally) an orderly leave that travels
	// the upstream link behind the site's last operation, like a TCP FIN.
	startGenerator := func(site, ops int, leaveAfter bool) {
		var generate func(remaining int)
		generate = func(remaining int) {
			if fail != nil {
				return
			}
			if remaining == 0 {
				if leaveAfter {
					upLinks[site].send(func() {
						if fail != nil {
							return
						}
						if jw != nil {
							if err := jw.Append(journal.Record{Kind: journal.KLeave, Site: site}); err != nil {
								abort(err)
								return
							}
						}
						if err := srv.Leave(site); err != nil {
							abort(fmt.Errorf("sim: leave %d: %w", site, err))
							return
						}
						left[site] = true
					})
				}
				return
			}
			c := clients[site]
			r := rngs[site]
			o, err := cfg.Workload.nextOp(r, states[site], c.DocLen())
			if err != nil {
				abort(fmt.Errorf("sim: workload at site %d: %w", site, err))
				return
			}
			m, err := c.Generate(o)
			if err != nil {
				abort(fmt.Errorf("sim: generate at site %d: %w", site, err))
				return
			}
			res.Metrics.Counter(core.COpsGenerated).Add(1)
			genTime[m.Ref] = s.Now()
			if cfg.Validate {
				oracle.Generate(site, m.Ref)
			}
			body, err := wire.Append(nil, wire.ClientOp{From: m.From, TS: m.TS, Ref: m.Ref, Op: m.Op})
			if err != nil {
				abort(err)
				return
			}
			res.BytesUp += int64(len(body))
			res.TimestampBytes += int64(wire.TimestampSize(m.TS))
			upLinks[site].send(func() { serverReceive(m) })
			s.At(cfg.Workload.think(r), func() { generate(remaining - 1) })
		}
		s.At(cfg.Workload.think(rngs[site]), func() { generate(ops) })
	}

	for site := 1; site <= cfg.Clients; site++ {
		ops := cfg.OpsPerClient
		leaver := site <= cfg.LeaveEarly
		if leaver {
			ops = max(1, ops/2)
		}
		startGenerator(site, ops, leaver)
	}

	// Mid-session joiners, spread across the first half of the nominal
	// timeline.
	span := cfg.Workload.ThinkMean * time.Duration(max(1, cfg.OpsPerClient)) / 2
	for j := 0; j < cfg.Joiners; j++ {
		site := cfg.Clients + 1 + j
		at := span * time.Duration(j+1) / time.Duration(cfg.Joiners+1)
		s.At(at, func() {
			if fail != nil {
				return
			}
			if err := addSite(site); err != nil {
				abort(fmt.Errorf("sim: mid-session join %d: %w", site, err))
				return
			}
			startGenerator(site, cfg.OpsPerClient, false)
		})
	}

	res.Duration = s.Run()
	if fail != nil {
		return nil, fail
	}

	res.FinalText = srv.Text()
	res.FinalLen = len([]rune(res.FinalText))
	res.Converged = true
	for site, c := range clients {
		if left[site] {
			continue // departed replicas legitimately stop at their leave point
		}
		if c.Text() != res.FinalText {
			res.Converged = false
		}
	}
	if cfg.Validate {
		oracle.Seal()
		for _, ch := range checks {
			if ch.Concurrent != oracle.Concurrent(ch.Arriving, ch.Buffered) {
				res.VerdictMismatches++
			}
		}
	}
	return res, nil
}

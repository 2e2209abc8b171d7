package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vclock"
)

// seeds is how many seeds (0, 1, …) every averaged cell runs. It is a
// constant, like every row set below, because the committed tables are a
// function of it: change one and `go test ./cmd/figures` names the blocks of
// EXPERIMENTS.md to refresh.
const seeds = 2

// An experiment is one count table of EXPERIMENTS.md.
type experiment struct {
	id    string
	table func() (*stats.Table, error)
}

// experiments lists the tables in document order. E7 is absent on purpose:
// it is a wall-clock table (BenchmarkE7CheckCost in internal/core).
var experiments = []experiment{
	{"e3", e3}, {"e4", e4}, {"e5", e5}, {"e6", e6}, {"e8", e8}, {"e9", e9}, {"e10", e10},
}

func experimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// markers returns the two comment lines that bracket the table in
// EXPERIMENTS.md.
func (e experiment) markers() (open, end string) {
	return "<!-- figures:" + e.id + " -->\n", "<!-- /figures:" + e.id + " -->\n"
}

// writeBlock regenerates the table and writes it between its markers, so the
// output replaces the committed block whole.
func (e experiment) writeBlock(w io.Writer) error {
	tb, err := e.table()
	if err != nil {
		return fmt.Errorf("%s: %w", e.id, err)
	}
	open, end := e.markers()
	_, err = io.WriteString(w, open+tb.Markdown()+end)
	return err
}

// session runs one simulated star session; outside the relay ablation a
// session that does not converge is an error, not a row.
func session(cfg sim.Config) (*sim.Result, error) {
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	if !res.Converged && cfg.Mode != core.ModeRelay {
		return nil, fmt.Errorf("N=%d seed=%d diverged", cfg.Clients, cfg.Seed)
	}
	return res, nil
}

// e3: timestamp bytes per message vs N in the star topology. The rows stop
// at N=256 (≈5 s per seed) so the golden test can afford them: sim.Run at
// N=512 is 36 s per seed and at N=1024 about 5 min, all of it op.Compose
// folding ~4N-deep all-concurrent bridges — engine cost on a pathological
// burst, not clock cost.
func e3() (*stats.Table, error) {
	var tb stats.Table
	tb.Header("N", "CVC B/msg", "full-VC B/msg", "ratio")
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128, 256} {
		var cvc, full stats.Sample
		for s := 0; s < seeds; s++ {
			res, err := session(sim.Config{
				Clients: n, OpsPerClient: 4, Seed: int64(s), Initial: "shared",
				Compaction: 8,
			})
			if err != nil {
				return nil, err
			}
			msgs := float64(res.Metrics.Counter(core.COpsGenerated).Load() + res.Metrics.Counter(core.COpsIntegrated).Load())
			cvc.Add(float64(res.TimestampBytes) / msgs)
			full.Add(float64(res.FullVCTimestampBytes) / msgs)
		}
		tb.Row(n, cvc.Mean(), full.Mean(), full.Mean()/cvc.Mean())
	}
	return &tb, nil
}

// e4: clock words per participant, and the words the notifier's history
// buffer spends on timestamps at hbLen buffered entries: delta-encoded
// (one tail snapshot plus per-site counts) against a full N-vector per entry,
// §3.3 taken literally.
func e4() (*stats.Table, error) {
	const hbLen = 256
	var tb stats.Table
	tb.Header("N", "CVC client", "CVC notifier", "full-VC site", "SK site (3N)",
		fmt.Sprintf("HB ts words (%d entries)", hbLen), fmt.Sprintf("full VC per entry (N × %d)", hbLen))
	for _, n := range []int{4, 16, 64, 256, 1024} {
		srv := core.NewServer("")
		for site := 1; site <= n; site++ {
			if _, err := srv.Join(site); err != nil {
				return nil, err
			}
		}
		var hb core.ServerHB
		hb.Grow(n) // dimensioned like SV_0, as Server.Join keeps it
		for j := 0; j < hbLen; j++ {
			hb.Add(core.ServerEntry{Origin: 1 + j%n})
		}
		// A ClientSV is two uint64 words by construction.
		tb.Row(n, 2, srv.SV().Len(), p2p.NewNode(0, n).ClockWords(), vclock.NewSKProcess(0, n).SKStateSize(),
			hb.ClockWords(), n*hbLen)
	}
	return &tb, nil
}

// audited runs 2·seeds fully validated sessions of 25 ops per site and sums
// what the Definition-1 oracle found: verdicts checked, pairs the clocks
// called concurrent, verdicts the oracle disagrees with, sessions diverged.
func audited(n int, mode core.Mode, initial string) (checks, concurrent, mismatches, diverged int, err error) {
	for s := 0; s < 2*seeds; s++ {
		res, err := session(sim.Config{
			Clients: n, OpsPerClient: 25, Seed: int64(s),
			Mode: mode, Initial: initial, Validate: true,
		})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		checks += res.TotalChecks
		concurrent += res.ConcurrentPairs
		mismatches += res.VerdictMismatches
		if !res.Converged {
			diverged++
		}
	}
	return checks, concurrent, mismatches, diverged, nil
}

// e5: every verdict of the transforming notifier against the oracle.
func e5() (*stats.Table, error) {
	var tb stats.Table
	tb.Header("N", "sessions", "audited checks", "concurrent pairs", "mismatches")
	for _, n := range []int{2, 4, 8, 12} {
		checks, concurrent, mismatches, _, err := audited(n, core.ModeTransform, "soundness")
		if err != nil {
			return nil, err
		}
		tb.Row(n, 2*seeds, checks, concurrent, mismatches)
	}
	return &tb, nil
}

// e6: remote-integration latency in virtual time under 20–80 ms links. (The
// wall-clock half of the old table is bench/'s business.)
func e6() (*stats.Table, error) {
	var tb stats.Table
	tb.Header("N", "ops", "p50 integration (virtual ms)", "p99 integration (virtual ms)")
	for _, n := range []int{2, 4, 8, 16, 32} {
		var p50, p99 stats.Sample
		for s := 0; s < seeds; s++ {
			res, err := session(sim.Config{
				Clients: n, OpsPerClient: 50, Seed: int64(s),
				Initial: "scaling", Compaction: 32,
				Latency: sim.Uniform{Lo: 20 * time.Millisecond, Hi: 80 * time.Millisecond},
			})
			if err != nil {
				return nil, err
			}
			p50.Add(res.IntegrationLatency.Percentile(50) / 1e6)
			p99.Add(res.IntegrationLatency.Percentile(99) / 1e6)
		}
		tb.Row(n, n*50, p50.Mean(), p99.Mean())
	}
	return &tb, nil
}

// e8: the §6 ablation — the same audit with the notifier relaying ORIGINAL
// operations.
func e8() (*stats.Table, error) {
	var tb stats.Table
	tb.Header("N", "sessions", "diverged", "verdict mismatches", "audited checks")
	for _, n := range []int{3, 5, 8} {
		checks, _, mismatches, diverged, err := audited(n, core.ModeRelay, "the quick brown fox")
		if err != nil {
			return nil, err
		}
		tb.Row(n, 2*seeds, diverged, mismatches, checks)
	}
	return &tb, nil
}

// e9: the fully-distributed mesh baselines on identical traffic.
func e9() (*stats.Table, error) {
	var tb stats.Table
	tb.Header("N", "full-VC B/msg", "SK B/msg (avg)", "SK max entries", "CVC B/msg")
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		var full, sk, cvc stats.Sample
		maxEntries := 0
		for s := 0; s < seeds; s++ {
			res, err := p2p.RunMesh(p2p.MeshConfig{Nodes: n, OpsPerNode: 10, Seed: int64(s)})
			if err != nil {
				return nil, err
			}
			f := float64(res.Messages)
			full.Add(float64(res.FullVCBytes) / f)
			sk.Add(float64(res.SKBytes) / f)
			cvc.Add(float64(res.CVCBytes) / f)
			maxEntries = max(maxEntries, res.SKMaxEntries)
		}
		tb.Row(n, full.Mean(), sk.Mean(), maxEntries, cvc.Mean())
	}
	return &tb, nil
}

// e10: high-water marks of the auxiliary structures — history buffers,
// bridges, pending lists — under growing latency and growing N, compaction
// every 8 ops, 40 ops/site at ~10 ops/s/site.
func e10() (*stats.Table, error) {
	var tb stats.Table
	tb.Header("N", "one-way latency", "server HB", "client HB", "pending", "bridge")
	for _, c := range []struct {
		n   int
		lat time.Duration
	}{
		{8, 10 * time.Millisecond}, {8, 50 * time.Millisecond},
		{8, 200 * time.Millisecond}, {8, 800 * time.Millisecond},
		{4, 50 * time.Millisecond}, {16, 50 * time.Millisecond}, {64, 50 * time.Millisecond},
	} {
		var shb, chb, pend, br stats.Sample
		for s := 0; s < seeds; s++ {
			res, err := session(sim.Config{
				Clients: c.n, OpsPerClient: 40, Seed: int64(s),
				Initial: "bounded", Compaction: 8,
				Latency:  sim.Fixed(c.lat),
				Workload: sim.Workload{ThinkMean: 100 * time.Millisecond},
			})
			if err != nil {
				return nil, err
			}
			shb.AddInt(res.MaxServerHB)
			chb.AddInt(res.MaxClientHB)
			pend.AddInt(res.MaxPending)
			br.AddInt(res.MaxBridgeLen)
		}
		tb.Row(c.n, c.lat, shb.Mean(), chb.Mean(), pend.Mean(), br.Mean())
	}
	return &tb, nil
}

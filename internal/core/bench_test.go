package core

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// BenchmarkGenerateLocal is the latency-critical path of paper §2
// requirement 1: a local edit must be as fast as a single-user editor.
func BenchmarkGenerateLocal(b *testing.B) {
	c := NewClient(1, "", WithClientCompaction(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Insert(c.DocLen(), "x"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerReceive measures the notifier's per-op cost across session
// sizes: formula (7) checks + transformation + per-destination compression.
func BenchmarkServerReceive(b *testing.B) {
	for _, n := range []int{2, 16, 128} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			srv := NewServer("", WithServerCompaction(16))
			clients := make([]*Client, n)
			for site := 1; site <= n; site++ {
				snap, err := srv.Join(site)
				if err != nil {
					b.Fatal(err)
				}
				clients[site-1] = NewClient(site, snap.Text, WithClientCompaction(16))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := clients[i%n]
				m, err := c.Insert(c.DocLen(), "x")
				if err != nil {
					b.Fatal(err)
				}
				bcast, _, err := srv.Receive(m)
				if err != nil {
					b.Fatal(err)
				}
				// Keep clients in sync so the session stays live.
				for _, bm := range bcast {
					if _, err := clients[bm.To-1].Integrate(bm); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkLaggedCatchup measures the dominant cost the composed-suffix
// transform cache removes: a site goes offline while another generates a
// deep history (bridge depth 512/2048 toward the laggard), then the laggard
// sends a burst of stale-context operations. Pairwise (composeDepth 0) every
// burst op pays depth op.Transform calls; composed, the first op builds the
// cache (depth−1 Compose calls, reported as composes/op) and every op
// thereafter pays exactly one Transform — O(1) amortized. transforms/op is
// read off the engine's ot.transforms counter, so the reported reduction is
// the acceptance-criterion number, not an inference from ns/op.
func BenchmarkLaggedCatchup(b *testing.B) {
	for _, depth := range []int{512, 2048} {
		for _, path := range []struct {
			name         string
			composeDepth int
		}{{"composed", defaultComposeDepth}, {"pairwise", 0}} {
			b.Run(fmt.Sprintf("depth=%d/path=%s", depth, path.name), func(b *testing.B) {
				met := obs.NewRegistry("")
				srv := NewServer("seed", WithServerCompaction(0),
					WithServerComposeDepth(path.composeDepth), WithServerMetrics(met))
				var clients [2]*Client
				for site := 1; site <= 2; site++ {
					snap, err := srv.Join(site)
					if err != nil {
						b.Fatal(err)
					}
					clients[site-1] = NewClient(site, snap.Text, WithClientCompaction(0))
				}
				laggard, gen := clients[0], clients[1]
				// Site 1 goes offline; site 2 generates the deep history.
				// Its broadcasts toward the laggard are never delivered, so
				// the bridge toward site 1 holds all depth entries.
				for i := 0; i < depth; i++ {
					m, err := gen.Insert(gen.DocLen(), "x")
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := srv.Receive(m); err != nil {
						b.Fatal(err)
					}
				}
				t0, c0 := met.Counter(CTransforms).Load(), met.Counter(CComposes).Load()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m, err := laggard.Insert(laggard.DocLen(), "y")
					if err != nil {
						b.Fatal(err)
					}
					if _, _, err := srv.Receive(m); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				n := float64(b.N)
				b.ReportMetric(float64(met.Counter(CTransforms).Load()-t0)/n, "transforms/op")
				b.ReportMetric(float64(met.Counter(CComposes).Load()-c0)/n, "composes/op")
			})
		}
	}
}

// TestLaggedCatchupTransformReduction is the acceptance criterion as a
// test: at bridge depth 512 the composed path must integrate a catch-up
// burst with at least 5× fewer op.Transform calls per operation than the
// pairwise walk, while producing a byte-identical server document.
func TestLaggedCatchupTransformReduction(t *testing.T) {
	const depth, burst = 512, 32
	run := func(composeDepth int) (transformsPerOp float64, text string) {
		met := obs.NewRegistry("")
		srv := NewServer("seed", WithServerCompaction(0),
			WithServerComposeDepth(composeDepth), WithServerMetrics(met))
		var clients [2]*Client
		for site := 1; site <= 2; site++ {
			snap, err := srv.Join(site)
			if err != nil {
				t.Fatal(err)
			}
			clients[site-1] = NewClient(site, snap.Text, WithClientCompaction(0))
		}
		laggard, gen := clients[0], clients[1]
		for i := 0; i < depth; i++ {
			m, err := gen.Insert(gen.DocLen(), "x")
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := srv.Receive(m); err != nil {
				t.Fatal(err)
			}
		}
		before := met.Counter(CTransforms).Load()
		for i := 0; i < burst; i++ {
			m, err := laggard.Insert(laggard.DocLen(), "y")
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := srv.Receive(m); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return float64(met.Counter(CTransforms).Load()-before) / burst, srv.Text()
	}
	composed, composedText := run(defaultComposeDepth)
	pairwise, pairwiseText := run(0)
	if composedText != pairwiseText {
		t.Fatalf("paths diverge: composed %q, pairwise %q", composedText, pairwiseText)
	}
	if pairwise < depth {
		t.Fatalf("pairwise path spent %.1f transforms/op, expected >= %d (is the reference walk intact?)", pairwise, depth)
	}
	if composed*5 > pairwise {
		t.Fatalf("composed path spent %.1f transforms/op vs pairwise %.1f — less than the required 5x reduction",
			composed, pairwise)
	}
	t.Logf("transforms/op at depth %d: pairwise %.1f, composed %.2f (%.0fx reduction)",
		depth, pairwise, composed, pairwise/composed)
}

// BenchmarkE7CheckCost is EXPERIMENTS.md's E7 table: the cost of one
// concurrency decision at N sites, one sub-benchmark per column — formula
// (5), the client check; formula (7) with Σ T_Ob cached per history entry, as
// the engine runs it; formula (7) summing the N-vector on every call; and
// the full-vector comparison the compressed clocks replace.
func BenchmarkE7CheckCost(b *testing.B) {
	ta := Timestamp{T1: 5, T2: 3}
	tb := Timestamp{T1: 4, T2: 7}
	for _, n := range []int{8, 512, 4096} {
		full := vclock.New(n + 1)
		for i := range full {
			full[i] = uint64(i)
		}
		other := full.Copy()
		other[n/2]++
		sum := full.Sum()
		for _, col := range []struct {
			name  string
			check func() bool
		}{
			{"formula5", func() bool { return ConcurrentClient(ta, tb, false) }},
			{"formula7-cached", func() bool { return ConcurrentServerSum(ta, 1, sum, full[1], 2, 0) }},
			{"formula7-naive", func() bool { return ConcurrentServer(ta, 1, full, 2, 0) }},
			{"fullvc-compare", func() bool { return vclock.AreConcurrent(full, other) }},
		} {
			b.Run(fmt.Sprintf("%s/N=%d", col.name, n), func(b *testing.B) {
				x := false
				for i := 0; i < b.N; i++ {
					x = col.check() != x
				}
				_ = x
			})
		}
	}
}

// BenchmarkCompress: formulas (1)–(2), per-destination timestamp
// compression at the notifier.
func BenchmarkCompress(b *testing.B) {
	for _, n := range []int{8, 512} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			sv := NewServerSV(n)
			for i := 1; i <= n; i++ {
				sv.Inc(i)
			}
			for i := 0; i < b.N; i++ {
				_ = sv.Compress(1+i%n, 0)
			}
		})
	}
}

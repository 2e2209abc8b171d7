package repro

// Ablation benchmarks for the design choices DESIGN.md calls out:
// history-buffer compaction, undo tracking cost, and oracle validation.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// BenchmarkAblationCompaction measures the effect of history-buffer GC on a
// steady-state session: without it, formula-(5)/(7) scans grow with session
// age.
func BenchmarkAblationCompaction(b *testing.B) {
	for _, compact := range []int{0, 8, 64} {
		b.Run(fmt.Sprintf("every=%d", compact), func(b *testing.B) {
			srv := core.NewServer("", core.WithServerCompaction(compact))
			clients := make([]*core.Client, 3)
			for site := 1; site <= 3; site++ {
				snap, err := srv.Join(site)
				if err != nil {
					b.Fatal(err)
				}
				clients[site-1] = core.NewClient(site, snap.Text, core.WithClientCompaction(compact))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := clients[i%3]
				m, err := c.Insert(c.DocLen(), "x")
				if err != nil {
					b.Fatal(err)
				}
				bcast, _, err := srv.Receive(m)
				if err != nil {
					b.Fatal(err)
				}
				for _, bm := range bcast {
					if _, err := clients[bm.To-1].Integrate(bm); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(srv.History().Len()), "final-server-hb")
		})
	}
}

// BenchmarkAblationUndoTracking measures the local-path overhead of undo
// tracking: one inverse per local op, which reads only the runs the op
// deletes, so the 64 KiB document costs what the small one does.
func BenchmarkAblationUndoTracking(b *testing.B) {
	docs := map[string]string{
		"small": "seed text for undo ablation",
		"64KiB": strings.Repeat("a 64-byte line of the seed text for the undo ablation, repeated\n", 1024),
	}
	for _, size := range []string{"small", "64KiB"} {
		for _, undo := range []bool{false, true} {
			b.Run(fmt.Sprintf("doc=%s/undo=%v", size, undo), func(b *testing.B) {
				opts := []core.ClientOption{core.WithClientCompaction(1)}
				if undo {
					opts = []core.ClientOption{core.WithClientUndo()}
				}
				c := core.NewClient(1, docs[size], opts...)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Insert/delete pairs keep the document at steady state.
					if _, err := c.Insert(0, "x"); err != nil {
						b.Fatal(err)
					}
					if _, err := c.Delete(0, 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationValidation measures the cost of full oracle validation in
// the simulator (the E5 harness) vs a plain run — documenting why throughput
// benchmarks turn it off.
func BenchmarkAblationValidation(b *testing.B) {
	for _, validate := range []bool{false, true} {
		b.Run(fmt.Sprintf("validate=%v", validate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sim.Config{
					Clients:      4,
					OpsPerClient: 25,
					Seed:         int64(i),
					Initial:      "x",
					Validate:     validate,
					Compaction:   8,
				})
				if err != nil {
					b.Fatal(err)
				}
				if validate && res.VerdictMismatches != 0 {
					b.Fatal("mismatches")
				}
			}
		})
	}
}

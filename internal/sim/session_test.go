package sim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

func TestSessionConvergesAcrossConfigs(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		for _, hotspot := range []bool{false, true} {
			name := fmt.Sprintf("n=%d/hotspot=%v", n, hotspot)
			t.Run(name, func(t *testing.T) {
				res, err := Run(Config{
					Clients:      n,
					OpsPerClient: 40,
					Seed:         7,
					Workload:     Workload{Hotspot: hotspot},
					Initial:      "shared document",
					Validate:     true,
					Compaction:   16,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatal("replicas diverged")
				}
				if res.VerdictMismatches != 0 {
					t.Fatalf("%d verdict mismatches (of %d checks)", res.VerdictMismatches, res.TotalChecks)
				}
				if res.Metrics.Counter("ops.generated").Load() != int64(n*40) {
					t.Fatalf("ops generated: %d", res.Metrics.Counter("ops.generated").Load())
				}
			})
		}
	}
}

func TestSessionDeterminism(t *testing.T) {
	cfg := Config{
		Clients:      5,
		OpsPerClient: 30,
		Seed:         99,
		Latency:      Spiky{Base: Uniform{Lo: 10 * time.Millisecond, Hi: 90 * time.Millisecond}, SpikeP: 0.05, SpikeX: 20},
		Initial:      "determinism",
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalText != b.FinalText {
		t.Fatal("same seed, different final documents")
	}
	if a.BytesUp != b.BytesUp || a.BytesDown != b.BytesDown || a.Duration != b.Duration {
		t.Fatalf("same seed, different metrics: %+v vs %+v", a, b)
	}
}

func TestSessionSeedsDiffer(t *testing.T) {
	base := Config{Clients: 3, OpsPerClient: 25, Initial: "x"}
	cfg1, cfg2 := base, base
	cfg1.Seed, cfg2.Seed = 1, 2
	a, _ := Run(cfg1)
	b, _ := Run(cfg2)
	if a.FinalText == b.FinalText && a.Duration == b.Duration {
		t.Fatal("different seeds produced identical sessions — RNG plumbing broken")
	}
}

func TestSessionRelayModeDiverges(t *testing.T) {
	diverged := 0
	for seed := int64(0); seed < 8; seed++ {
		res, err := Run(Config{
			Clients:      5,
			OpsPerClient: 30,
			Seed:         seed,
			Mode:         core.ModeRelay,
			Initial:      "the quick brown fox jumps",
			Validate:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.VerdictMismatches > 0 {
			diverged++
		}
	}
	if diverged == 0 {
		t.Fatal("relay ablation behaved correctly on all seeds; it should break")
	}
}

func TestSessionTimestampBytesConstantPerOp(t *testing.T) {
	// The compressed timestamp is two varints per message regardless of N:
	// average timestamp bytes per message must stay tiny as N grows.
	for _, n := range []int{2, 16} {
		res, err := Run(Config{Clients: n, OpsPerClient: 20, Seed: 3, Initial: "x"})
		if err != nil {
			t.Fatal(err)
		}
		msgs := int64(res.Metrics.Counter("ops.generated").Load() + res.Metrics.Counter("ops.integrated").Load())
		avg := float64(res.TimestampBytes) / float64(msgs)
		if avg > 4 {
			t.Fatalf("n=%d: %.2f timestamp bytes/message — should be ~2", n, avg)
		}
	}
}

func TestSessionBoundedStructuresUnderCompaction(t *testing.T) {
	res, err := Run(Config{
		Clients:      4,
		OpsPerClient: 150,
		Seed:         11,
		Compaction:   8,
		Latency:      Fixed(5 * time.Millisecond),
		Workload:     Workload{ThinkMean: 50 * time.Millisecond},
		Initial:      "bounded",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("diverged")
	}
	if res.MaxServerHB > 200 {
		t.Fatalf("server HB high-water %d — compaction ineffective", res.MaxServerHB)
	}
	if res.MaxClientHB > 200 {
		t.Fatalf("client HB high-water %d", res.MaxClientHB)
	}
}

func TestSessionValidationLatencySamples(t *testing.T) {
	res, err := Run(Config{Clients: 3, OpsPerClient: 20, Seed: 5, Initial: "x",
		Latency: Fixed(40 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if res.IntegrationLatency.N() == 0 {
		t.Fatal("no latency samples collected")
	}
	// One hop up + one hop down = at least 80ms.
	if min := res.IntegrationLatency.Min(); min < float64(80*time.Millisecond) {
		t.Fatalf("integration latency %.0fns below two fixed hops", min)
	}
}

func TestSessionConfigErrors(t *testing.T) {
	if _, err := Run(Config{Clients: 0}); err == nil {
		t.Fatal("zero clients must fail")
	}
}

func TestWorkloadOpsAlwaysValid(t *testing.T) {
	res, err := Run(Config{
		Clients:      6,
		OpsPerClient: 60,
		Seed:         13,
		Workload:     Workload{InsertRatio: 0.3, MaxDelete: 6}, // delete-heavy
		Initial:      "some seed text to delete from",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("diverged")
	}
}

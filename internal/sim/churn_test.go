package sim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
)

// TestChurnJoinersConvergeAndStaySound: sites joining mid-session under
// load must converge with everyone else, and every verdict must still match
// the oracle (late-join baselines are the tricky part of the compression).
func TestChurnJoinersConvergeAndStaySound(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		res, err := Run(Config{
			Clients:      3,
			Joiners:      3,
			OpsPerClient: 30,
			Seed:         seed,
			Initial:      "churn base",
			Validate:     true,
			Compaction:   8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: diverged with joiners", seed)
		}
		if res.VerdictMismatches != 0 {
			t.Fatalf("seed %d: %d verdict mismatches with joiners", seed, res.VerdictMismatches)
		}
		// All six sites generated.
		if got := res.Metrics.Counter("ops.generated").Load(); got != 6*30 {
			t.Fatalf("seed %d: ops generated %d", seed, got)
		}
	}
}

// TestChurnLeaversDoNotWedgeTheSession.
func TestChurnLeaversDoNotWedgeTheSession(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		res, err := Run(Config{
			Clients:      5,
			LeaveEarly:   2,
			OpsPerClient: 30,
			Seed:         seed,
			Initial:      "leavers",
			Validate:     true,
			Compaction:   8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: survivors diverged after leaves", seed)
		}
		if res.VerdictMismatches != 0 {
			t.Fatalf("seed %d: %d mismatches", seed, res.VerdictMismatches)
		}
	}
}

// TestChurnCombined: joins and leaves in the same session, several shapes.
func TestChurnCombined(t *testing.T) {
	for _, shape := range []struct{ clients, joiners, leavers int }{
		{2, 4, 1},
		{6, 2, 3},
		{4, 4, 2},
	} {
		name := fmt.Sprintf("c=%d/j=%d/l=%d", shape.clients, shape.joiners, shape.leavers)
		t.Run(name, func(t *testing.T) {
			res, err := Run(Config{
				Clients:      shape.clients,
				Joiners:      shape.joiners,
				LeaveEarly:   shape.leavers,
				OpsPerClient: 24,
				Seed:         99,
				Initial:      "combined churn",
				Validate:     true,
				Latency:      Uniform{Lo: 5 * time.Millisecond, Hi: 60 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged || res.VerdictMismatches != 0 {
				t.Fatalf("converged=%v mismatches=%d", res.Converged, res.VerdictMismatches)
			}
		})
	}
}

// TestChurnRelayStillBreaks: the E8 ablation misbehaves under churn too —
// the breakage is not an artifact of the static-membership setup.
func TestChurnRelayStillBreaks(t *testing.T) {
	broken := 0
	for seed := int64(0); seed < 6; seed++ {
		res, err := Run(Config{
			Clients:      4,
			Joiners:      2,
			OpsPerClient: 25,
			Seed:         seed,
			Mode:         core.ModeRelay,
			Initial:      "relay churn baseline text",
			Validate:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || res.VerdictMismatches > 0 {
			broken++
		}
	}
	if broken == 0 {
		t.Fatal("relay mode survived churn on every seed; ablation should break")
	}
}

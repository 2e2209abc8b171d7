package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// keepAwake re-executes the running binary as its spinners.
func TestMain(m *testing.M) {
	if spinIfAsked() {
		return
	}
	os.Exit(m.Run())
}

// testConfig runs a workload at 1/100 of the shipped op counts through the
// code path the benchmark itself uses.
func testConfig(t *testing.T) runConfig {
	return runConfig{seed: 1, seconds: 0.2, reps: 2, stall: 5 * time.Second, outDir: t.TempDir()}
}

func TestWorkloadsRunClean(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rc := testConfig(t)
			plain, err := runUntraced(w, rc)
			if err != nil {
				t.Fatal(err)
			}
			if !plain.correct() || plain.Attempted != rc.reps*rc.repOps(w) {
				t.Fatalf("untraced: attempted %d (want %d), failed %d, problems %v",
					plain.Attempted, rc.reps*rc.repOps(w), plain.Failed, plain.Problems)
			}
			for _, def := range endToEnd {
				if s, ok := plain.Metrics[def.Name]; !ok || s.Median <= 0 || s.N < rc.reps {
					t.Errorf("end-to-end metric %s = %+v, want a positive median over at least %d repetitions", def.Name, s, rc.reps)
				}
			}
			if len(plain.Metrics) != len(endToEnd) {
				t.Errorf("untraced run emitted %d metrics, want the %d end-to-end ones", len(plain.Metrics), len(endToEnd))
			}

			traced, err := runTraced(w, rc)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.correct() {
				t.Fatalf("traced: failed %d, problems %v", traced.Failed, traced.Problems)
			}
			if len(traced.Metrics) != len(perLayer) {
				t.Errorf("traced run emitted %d metrics, want the %d per-layer ones", len(traced.Metrics), len(perLayer))
			}
			m := traced.Metrics
			// The parts of the budget add up to the whole by construction;
			// the parts of a span add up to the op's latency.
			e2e := traced.Diagnostics["propagate_p50_us"].Median
			if sum := m["budget.attributed_us"].Median + m["budget.unattributed_us"].Median; !near(sum, e2e) {
				t.Errorf("budget: attributed + unattributed = %v, propagate p50 = %v", sum, e2e)
			}
			for _, name := range []string{"editor.local_ns", "transport.client_write_ns", "server.turnaround_ns", "core.server_receive_ns", "wire.broadcast_encode_ns"} {
				if m[name].Median <= 0 {
					t.Errorf("%s = %v, want > 0", name, m[name].Median)
				}
			}
			if got := m["wire.encodes_per_broadcast"].Median; got < 0.9 || got > 1.1 {
				t.Errorf("wire.encodes_per_broadcast = %v, want 1 (encode-once)", got)
			}
			if _, err := os.Stat(filepath.Join(rc.outDir, "spans-"+w.name+".csv")); err != nil {
				t.Errorf("traced run left no span dump: %v", err)
			}
		})
	}
}

func near(a, b float64) bool { d := a - b; return d < 1e-6 && d > -1e-6 }

// An operation the observer's tap loses sight of must surface as a failed
// operation, not vanish from the accounting: its driver waits for it at the
// next pause, the other driver waits for that one, the watchdog ends the run,
// and the lost edit and every edit never issued are failed. The replicas
// still converge, because the tap hid the operation only from the benchmark.
func TestBrokenTapReportsFailure(t *testing.T) {
	w := findWorkload("fanout")
	p := makePlan(w, 1, 400)
	res, err := runRep(w, p, rigConfig{stall: 400 * time.Millisecond, hideEvery: 150}, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted != 400 {
		t.Fatalf("attempted %d, want 400", res.attempted)
	}
	if res.failed == 0 || res.failed > 400-149 || len(res.problems) != 0 {
		t.Fatalf("failed %d (want 1 to 251: the hidden 150th and what was never issued), problems %v", res.failed, res.problems)
	}
	out := workloadResult{Name: w.name}
	out.absorb(&res)
	if out.correct() {
		t.Fatal("a run with failed operations reports itself correct")
	}
}

// With one edit in flight a lost operation stalls the loop; the watchdog
// must end the run and every edit that was never issued counts as failed.
func TestStalledRunEndsWithFailures(t *testing.T) {
	w := findWorkload("pingpong")
	p := makePlan(w, 1, 100)
	res, err := runRep(w, p, rigConfig{stall: 200 * time.Millisecond, hideEvery: 40}, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted != 100 || res.failed != 61 {
		t.Fatalf("attempted %d failed %d, want 100 and 61 (the hidden 40th and the 60 never issued)", res.attempted, res.failed)
	}
}

// The stepper's counts are a function of the plan alone. Allocation counts
// are the exception that proves it: the program's maps are seeded per map by
// the Go runtime, so an overflow bucket more or less moves a median by a
// fraction of an object; they must agree to within one.
func TestStepperDeterministic(t *testing.T) {
	counts := func(w *workload, seed int64) map[string]float64 {
		m := map[string]float64{}
		if err := step(w, makePlan(w, seed, 512), m); err != nil {
			t.Fatal(err)
		}
		for name := range m {
			if !isCount(name) {
				delete(m, name)
			}
		}
		return m
	}
	for _, name := range []string{"fanout", "conflict"} {
		w := findWorkload(name)
		a, b, c := counts(w, 7), counts(w, 7), counts(w, 8)
		if len(a) < 10 {
			t.Fatalf("%s: only %d count metrics: %v", name, len(a), a)
		}
		for metric := range a {
			tolerance := 0.0
			if strings.HasSuffix(metric, "_allocs") {
				tolerance = 1
			}
			if d := a[metric] - b[metric]; d > tolerance || d < -tolerance {
				t.Errorf("%s: %s = %v, then %v with the same seed", name, metric, a[metric], b[metric])
			}
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 produced identical counts: the stream ignores the seed", name)
		}
	}
	if reflect.DeepEqual(makePlan(&workloads[0], 7, 100), makePlan(&workloads[0], 8, 100)) {
		t.Error("seeds 7 and 8 produced the same plan")
	}
}

func isCount(name string) bool {
	for _, suffix := range []string{"_per_op", "_bytes", "_depth", "_allocs", "_len"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// BENCHMARK.json and the tables in this package name the same workloads and
// metrics, with the same units, directions and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code {%s %s}", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\ncode           %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %+v\ncode           %+v", spec.PerLayer, perLayer)
	}
}

// The yardstick returns every frame it is given, on every shape the workloads
// ask for, and close leaves none of its goroutines behind (it waits for them).
func TestYardstick(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		y, err := newYardstick(w.sessions, w.editors)
		if err != nil {
			t.Fatal(err)
		}
		p := w.yardProbe()
		p.chunks = 3
		ns, err := y.read(p)
		if err != nil || ns <= 0 {
			t.Errorf("%s: yardstick read %v ns per frame, error %v", w.name, ns, err)
		}
		y.close()
	}
	// Twice as slow a host doubles every timing; the scale undoes it.
	if got := hostScale(100, []float64{150, 200, 250}); got != 0.5 {
		t.Errorf("hostScale = %v, want 0.5", got)
	}
	if got := hostScale(100, nil); got != 1 {
		t.Errorf("hostScale without readings = %v, want 1", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "y", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		def  metricDef
		o, n sample
		want string
	}{
		{lower, sample{Median: 100, Min: 98, Max: 102}, sample{Median: 105, Min: 103, Max: 107}, "within"},
		{lower, sample{Median: 100, Min: 98, Max: 102}, sample{Median: 120, Min: 118, Max: 122}, "regressed"},
		{lower, sample{Median: 100, Min: 90, Max: 119}, sample{Median: 120, Min: 118, Max: 122}, "unresolved"},
		{lower, sample{Median: 100, Min: 98, Max: 102}, sample{Median: 80, Min: 79, Max: 81}, "improved"},
		{higher, sample{Median: 100, Min: 98, Max: 102}, sample{Median: 80, Min: 79, Max: 81}, "regressed"},
		{higher, sample{Median: 100, Min: 98, Max: 102}, sample{Median: 120, Min: 118, Max: 122}, "improved"},
	} {
		if got := verdict(tc.def, tc.o, tc.n); got != tc.want {
			t.Errorf("verdict(%s, %v → %v) = %s, want %s", tc.def.Better, tc.o.Median, tc.n.Median, got, tc.want)
		}
	}
}

// Command bench is the repository's benchmark: four closed-loop workloads
// against the notifier started exactly as `reducesrv -multi` starts it, with
// real repro.Editors over loopback TCP, timed entirely from outside.
//
//	go run ./bench                         every workload, every metric, as a table
//	go run ./bench -compare a.json b.json  two result files, metric by metric
//	bash bench/run.sh --workload pingpong --seed 1 --seconds 20 --trace 0
//
// The last form is the one BENCHMARK.json names: one workload, one JSON
// object on the last line. README.md in this directory defines every
// workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// idleEnv, when set, makes the process an idle spinner (idle_linux.go) and
// not a benchmark.
const idleEnv = "CVCBENCH_IDLE_SPIN"

func main() {
	if spinIfAsked() {
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// spinIfAsked turns the process into an idle spinner when keepAwake started
// it as one, and reports whether it did.
func spinIfAsked() bool {
	arg := os.Getenv(idleEnv)
	if arg == "" {
		return false
	}
	if err := spinIdle(arg); err != nil {
		fmt.Fprintf(os.Stderr, "bench: idle spinner: %v\n", err)
		os.Exit(1)
	}
	return true
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this one workload and print one JSON object as the last line; empty runs all and prints the table")
	seed := fs.Int64("seed", 1, "workload seed; repetition r uses seed+r")
	seconds := fs.Float64("seconds", 20, "measured seconds a workload's fixed op counts are sized for")
	trace := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	outDir := fs.String("out", filepath.Join("bench", "out"), "directory for span dumps and results.json")
	compare := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out dir]")
		return 2
	}
	rc := runConfig{seed: *seed, seconds: *seconds, reps: repetitions, stall: 20 * time.Second, outDir: *outDir}
	spinners, stop, err := keepAwake()
	if err != nil {
		// Still a benchmark, but its timings follow the host's idle state.
		fmt.Fprintf(stderr, "bench: running without idle spinners: %v\n", err)
	} else {
		defer stop()
	}

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		runOne, defs := runUntraced, endToEnd
		if *trace == 1 {
			runOne, defs = runTraced, perLayer
		}
		res, err := runOne(w, rc)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		printRows(stderr, &res, defs)
		return printDriverLine(stdout, stderr, &res, defs)
	}

	report := resultFile{Env: readEnv(rc)}
	report.Env.IdleSpinners = len(spinners)
	ok := true
	for i := range workloads {
		w := &workloads[i]
		plain, err := runUntraced(w, rc)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		printRows(stdout, &plain, endToEnd)
		traced, err := runTraced(w, rc)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		printRows(stdout, &traced, perLayer)
		ok = ok && plain.correct() && traced.correct()
		report.Workloads = append(report.Workloads, workloadReport{
			Name: w.name, Why: w.why,
			Attempted: plain.Attempted, Failed: plain.Failed,
			Problems:    append(plain.Problems, traced.Problems...),
			EndToEnd:    plain.Metrics,
			PerLayer:    traced.Metrics,
			Diagnostics: plain.Diagnostics,
		})
	}
	report.Env.SleepOvershootP50Us = report.Workloads[0].PerLayer["env.sleep_overshoot_p50_us"].Median
	fmt.Fprintf(stdout, "\nnproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g idle_spinners=%d env.sleep_overshoot_p50_us=%.1f\n",
		report.Env.NProc, report.Env.GOMAXPROCS, report.Env.Go, report.Env.Commit, rc.seed, rc.seconds, len(spinners), report.Env.SleepOvershootP50Us)
	path := filepath.Join(rc.outDir, "results.json")
	if err := writeJSON(path, report); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "results written to %s\n", path)
	if !ok {
		fmt.Fprintln(stderr, "bench: FAILED — operations failed or replicas diverged, see the problems above")
		return 1
	}
	return 0
}

// printDriverLine prints the one-line result the benchmark contract asks
// for. A run with failed operations still prints it, then exits non-zero.
func printDriverLine(stdout, stderr io.Writer, res *workloadResult, defs []metricDef) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, map[string]value{}}
	for _, def := range defs {
		line.Metrics[def.Name] = value{res.Metrics[def.Name].Median, def.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.correct() {
		return 1
	}
	return 0
}

// envInfo records where a result file was measured.
type envInfo struct {
	NProc               int     `json:"nproc"`
	GOMAXPROCS          int     `json:"gomaxprocs"`
	Go                  string  `json:"go"`
	Commit              string  `json:"commit"`
	Seed                int64   `json:"seed"`
	Seconds             float64 `json:"seconds"`
	IdleSpinners        int     `json:"idle_spinners"`
	SleepOvershootP50Us float64 `json:"env.sleep_overshoot_p50_us"`
}

func readEnv(rc runConfig) envInfo {
	env := envInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: "unknown", Seed: rc.seed, Seconds: rc.seconds}
	// `go run` stamps no VCS information into the binary, so ask git; outside
	// a work tree (the driver's checkout) the commit stays unknown.
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

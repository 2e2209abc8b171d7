// Command figures regenerates the paper's evidence on the real
// implementation: the two figure walkthroughs as narration, and every count
// table of EXPERIMENTS.md as the exact Markdown committed there.
//
//	figures -fig 2     Fig. 2 / §2.2 (divergence & intention violation)
//	figures -fig 3     Fig. 3 / §5 (compressed timestamps & verdicts)
//	figures -exp e5    one table, wrapped in its <!-- figures:e5 --> markers
//	figures -exp all   every table (e3 e4 e5 e6 e8 e9 e10)
//
// Every number printed is a deterministic function of the seeds and row sets
// fixed in experiments.go, so two runs are byte-identical; `go test
// ./cmd/figures` fails when EXPERIMENTS.md or testdata/ disagrees with a
// regeneration. Timings are not this command's business (bench/).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// figures maps a -fig id to its narration.
var figures = map[string]func(io.Writer) error{"2": figure2, "3": figure3}

// run is the whole command: it returns the exit status (2 for a usage error,
// 1 for a failed regeneration).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "", "figure narration to replay: 2 or 3")
	exp := fs.String("exp", "", "count table to regenerate: "+strings.Join(experimentIDs(), ", ")+", or all")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*fig == "" && *exp == "") || fs.NArg() > 0 {
		fs.Usage()
		return 2
	}

	var jobs []func(io.Writer) error
	if *fig != "" {
		narrate, ok := figures[*fig]
		if !ok {
			fmt.Fprintf(stderr, "figures: unknown figure %q (valid: 2, 3)\n", *fig)
			return 2
		}
		jobs = append(jobs, narrate)
	}
	if *exp != "" {
		known := false
		for _, e := range experiments {
			if *exp == "all" || *exp == e.id {
				known = true
				jobs = append(jobs, e.writeBlock)
			}
		}
		if !known {
			fmt.Fprintf(stderr, "figures: unknown experiment %q (valid: %s, all)\n", *exp, strings.Join(experimentIDs(), ", "))
			return 2
		}
	}
	for _, job := range jobs {
		if err := job(stdout); err != nil {
			fmt.Fprintf(stderr, "figures: %v\n", err)
			return 1
		}
	}
	return 0
}

func figure2(w io.Writer) error {
	res := sim.Figure2()
	fmt.Fprintln(w, "Figure 2 — four sites execute O1..O4 in their arrival orders,")
	fmt.Fprintln(w, "operations in ORIGINAL form (no transformation), document \"ABCDE\":")
	fmt.Fprintln(w)
	sites := make([]int, 0, len(res.Orders))
	for s := range res.Orders {
		sites = append(sites, s)
	}
	sort.Ints(sites)
	for _, s := range sites {
		fmt.Fprintf(w, "  site %d executes %-18s -> %q\n", s, strings.Join(res.Orders[s], ", "), res.Finals[s])
	}
	fmt.Fprintln(w)
	if res.Diverged {
		fmt.Fprintln(w, "DIVERGENCE: the replicas disagree (paper §2.2, problem 1).")
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Intention violation in isolation (§2.2):")
	fmt.Fprintf(w, "  O1 = Insert[\"12\", 1], O2 = Delete[3, 2] concurrent on \"ABCDE\"\n")
	fmt.Fprintf(w, "  executing O2 untransformed after O1:  %q   (intention violated)\n", res.Site1AfterO1O2)
	fmt.Fprintf(w, "  executing O2 transformed (Delete[3,4]): %q  (intention preserved)\n", res.IntentionPreserved)
	return nil
}

func figure3(w io.Writer) error {
	res, err := sim.Figure3()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 3 / §5 — compressed state vector timestamping and concurrency")
	fmt.Fprintln(w, "checking, replayed on the real engines. Document \"ABCDE\".")
	for _, st := range res.Steps {
		fmt.Fprintf(w, "\n== %s ==\n", st.Title)
		for _, l := range st.Lines {
			fmt.Fprintf(w, "  %s\n", l)
		}
	}
	fmt.Fprintln(w)
	sites := make([]int, 0, len(res.Finals))
	for s := range res.Finals {
		sites = append(sites, s)
	}
	sort.Ints(sites)
	for _, s := range sites {
		fmt.Fprintf(w, "final at site %d: %q\n", s, res.Finals[s])
	}
	return nil
}

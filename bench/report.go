package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Env       envInfo          `json:"env"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name        string            `json:"name"`
	Why         string            `json:"why"`
	Attempted   int               `json:"attempted_ops"`
	Failed      int               `json:"failed_ops"`
	Problems    []string          `json:"problems,omitempty"`
	EndToEnd    map[string]sample `json:"end_to_end"`
	PerLayer    map[string]sample `json:"per_layer"`
	Diagnostics map[string]sample `json:"diagnostics,omitempty"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printRows prints one row per (workload, metric): unit, median, min–max over
// the repetitions, how many repetitions, and the observations behind each.
func printRows(out io.Writer, res *workloadResult, defs []metricDef) {
	fmt.Fprintf(out, "%-15s %-32s %-6s %14s %14s %14s %3s %8s\n", "workload", "metric", "unit", "median", "min", "max", "n", "obs")
	row := func(name, unit string, s sample) {
		fmt.Fprintf(out, "%-15s %-32s %-6s %14.4f %14.4f %14.4f %3d %8d\n", res.Name, name, unit, s.Median, s.Min, s.Max, s.N, s.Obs)
	}
	for _, def := range defs {
		row(def.Name, def.Unit, res.Metrics[def.Name])
	}
	names := make([]string, 0, len(res.Diagnostics))
	for name := range res.Diagnostics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		row("("+name+")", "", res.Diagnostics[name])
	}
	fmt.Fprintf(out, "%-15s %-32s %-6s %14d\n", res.Name, "attempted_ops", "count", res.Attempted)
	fmt.Fprintf(out, "%-15s %-32s %-6s %14d\n", res.Name, "failed_ops", "count", res.Failed)
	for _, p := range res.Problems {
		fmt.Fprintf(out, "%-15s PROBLEM %s\n", res.Name, p)
	}
}

// compareFiles prints, per (workload, metric), old and new medians, the
// change, the metric's bound and a verdict. A change beyond the bound is
// "regressed" or "improved" only when the two files' min–max ranges are
// disjoint; when they overlap, the repetitions do not resolve it and the
// verdict is "unresolved". Per-layer metrics carry no bound and no verdict.
// The exit code is 1 when an end-to-end metric regressed.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	var files [2]resultFile
	for i, path := range []string{oldPath, newPath} {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &files[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", path, err)
			return 2
		}
	}
	byName := map[string]workloadReport{}
	for _, w := range files[1].Workloads {
		byName[w.Name] = w
	}
	fmt.Fprintf(stdout, "%-15s %-32s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "delta", "bound", "verdict")
	regressed := false
	for _, ow := range files[0].Workloads {
		nw, ok := byName[ow.Name]
		if !ok {
			continue
		}
		for _, def := range endToEnd {
			o, n := ow.EndToEnd[def.Name], nw.EndToEnd[def.Name]
			v := verdict(def, o, n)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(stdout, "%-15s %-32s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", ow.Name, def.Name, o.Median, n.Median, deltaPct(o, n), 100*def.Bound, v)
		}
		for _, def := range perLayer {
			o, n := ow.PerLayer[def.Name], nw.PerLayer[def.Name]
			fmt.Fprintf(stdout, "%-15s %-32s %14.4f %14.4f %+8.1f%% %7s\n", ow.Name, def.Name, o.Median, n.Median, deltaPct(o, n), "-")
		}
		if nw.Failed > ow.Failed {
			regressed = true
			fmt.Fprintf(stdout, "%-15s %-32s %14d %14d %25s\n", ow.Name, "failed_ops", ow.Failed, nw.Failed, "regressed")
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func deltaPct(o, n sample) float64 {
	if o.Median == 0 {
		return 0
	}
	return 100 * (n.Median - o.Median) / o.Median
}

func verdict(def metricDef, o, n sample) string {
	worse := (n.Median - o.Median) / o.Median
	if def.Better == "higher" {
		worse = -worse
	}
	overlap := o.Min <= n.Max && n.Min <= o.Max
	switch {
	case worse > def.Bound && overlap, worse < -def.Bound && overlap:
		return "unresolved"
	case worse > def.Bound:
		return "regressed"
	case worse < -def.Bound:
		return "improved"
	}
	return "within"
}

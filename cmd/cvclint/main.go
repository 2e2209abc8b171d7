// Command cvclint runs the repo's analyzers (internal/lint: errdrop,
// nopanic) over the module and reports file:line diagnostics,
// exiting non-zero on findings.
//
//	cvclint ./...            # analyze every package in the module
//	cvclint ./internal/core  # analyze specific directories
//	cvclint -summary ./...   # append a per-analyzer findings count
//	cvclint -budget          # allocation-budget gate (lint/budget.json)
//
// Exit codes: 0 clean, 1 findings, 2 load or type-check failure.
//
// -budget replays `go build -gcflags='-m -m'` over the packages named in the
// budget file (default lint/budget.json, override with -budget-file) and
// fails if any guarded hot function gained a heap escape; see
// internal/lint/budget.go for the workflow.
//
// Findings are suppressed by an inline `//lint:allow <analyzer>: <reason>`
// comment on the offending line or the line above; -show-suppressed prints
// those too (without affecting the exit code). A suppression naming an
// unknown analyzer or giving no reason is a load error (exit 2).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("cvclint", flag.ExitOnError)
	showSuppressed := fs.Bool("show-suppressed", false, "also print findings silenced by //lint:allow")
	summary := fs.Bool("summary", false, "print a per-analyzer findings count after the run")
	budget := fs.Bool("budget", false, "run the allocation-budget gate instead of the analyzers")
	budgetFile := fs.String("budget-file", "lint/budget.json", "budget spec, relative to the module root")
	verbose := fs.Bool("v", false, "print each package as it is analyzed")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *budget {
		return runBudget(*budgetFile)
	}

	analyzers := lint.All()
	moduleDir, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cvclint:", err)
		return 2
	}
	loader, err := lint.NewLoader(moduleDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cvclint:", err)
		return 2
	}

	pkgs, err := loadTargets(loader, fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "cvclint:", err)
		return 2
	}

	exit := 0
	findings := 0
	perRule := make(map[string]int)
	suppressed := make(map[string]int)
	for _, pkg := range pkgs {
		if *verbose {
			fmt.Fprintf(os.Stderr, "cvclint: analyzing %s\n", pkg.Path)
		}
		if len(pkg.Errors) > 0 {
			for _, e := range pkg.Errors {
				fmt.Fprintf(os.Stderr, "cvclint: %s: %v\n", pkg.Path, e)
			}
			exit = 2
			continue
		}
		for _, d := range lint.Run(pkg, analyzers) {
			if d.Suppressed {
				suppressed[d.Analyzer]++
				if *showSuppressed {
					fmt.Printf("%s [suppressed]\n", d)
				}
				continue
			}
			fmt.Println(d)
			perRule[d.Analyzer]++
			findings++
		}
	}
	if *summary {
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "cvclint: %-12s %d finding(s), %d suppressed\n", a.Name, perRule[a.Name], suppressed[a.Name])
		}
	}
	if exit == 0 && findings > 0 {
		exit = 1
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "cvclint: %d finding(s)\n", findings)
	}
	return exit
}

// runBudget executes the allocation-budget gate against the module the
// working directory belongs to.
func runBudget(budgetFile string) int {
	moduleDir, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cvclint:", err)
		return 2
	}
	if !filepath.IsAbs(budgetFile) {
		budgetFile = filepath.Join(moduleDir, budgetFile)
	}
	b, err := lint.LoadBudget(budgetFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cvclint: budget:", err)
		return 2
	}
	violations, err := lint.CheckBudget(moduleDir, b, lint.GoBuildRunner)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cvclint: budget:", err)
		return 2
	}
	for _, v := range violations {
		fmt.Println(v)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "cvclint: budget: %d new escape(s) in guarded functions\n", len(violations))
		return 1
	}
	pkgs, funcs := 0, 0
	for _, pb := range b.Packages {
		pkgs++
		funcs += len(pb.Funcs)
	}
	fmt.Fprintf(os.Stderr, "cvclint: budget: %d guarded function(s) across %d package(s) stay escape-free\n", funcs, pkgs)
	return 0
}

// loadTargets resolves the command-line package patterns: no arguments or
// "./..." means the whole module; anything else is a directory.
func loadTargets(loader *lint.Loader, patterns []string) ([]*lint.Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var out []*lint.Package
	seen := make(map[string]bool)
	for _, pat := range patterns {
		if pat == "./..." || pat == "..." || pat == "all" {
			pkgs, err := loader.LoadAll()
			if err != nil {
				return nil, err
			}
			for _, p := range pkgs {
				if !seen[p.Path] {
					seen[p.Path] = true
					out = append(out, p)
				}
			}
			continue
		}
		dir, err := filepath.Abs(strings.TrimSuffix(pat, "/..."))
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(loader.ModuleDir, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("%s is outside module %s", pat, loader.ModuleDir)
		}
		path := loader.ModulePath
		if rel != "." {
			path = loader.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := loader.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		if !seen[pkg.Path] {
			seen[pkg.Path] = true
			out = append(out, pkg)
		}
	}
	return out, nil
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

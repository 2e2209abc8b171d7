// Package lint is a small, stdlib-only static-analysis framework for the
// two defects this codebase has actually shipped: wire and journal errors
// silently dropped (errdrop) and library code that panics (nopanic).
//
// The framework deliberately avoids golang.org/x/tools: packages are loaded
// with go/parser and type-checked with go/types (see load.go), and each
// analyzer is a visitor over typed ASTs registered with the shared driver
// (cmd/cvclint). Adding a pass is ~50 lines: declare an Analyzer, walk
// pass.Files, call pass.Reportf.
//
// Findings can be suppressed with an inline comment on the offending line or
// the line directly above it:
//
//	//lint:allow nopanic: constructor precondition, a violation is a caller bug
//
// The comment names one or more analyzers (comma-separated), then a colon,
// then a mandatory free-form justification. A suppression that names an
// unknown analyzer or gives no reason is a load error, so every silenced
// finding in the tree documents why it is safe.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one registered pass. Run inspects a single type-checked
// package through its Pass and reports findings; it must not retain the
// Pass after returning.
type Analyzer struct {
	// Name is the short identifier used in diagnostics and in
	// //lint:allow comments.
	Name string
	// Run analyzes one package.
	Run func(*Pass)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{ErrDrop, NoPanic}
}

// Pass carries one type-checked package into an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package's import path (e.g. "repro/internal/core").
	Path string
	// Files are the parsed non-test source files.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed is set when a //lint:allow comment covers the finding.
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Run applies the analyzers to a loaded package and returns its findings,
// with //lint:allow suppressions applied, sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Path:     pkg.Path,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &diags,
		}
		a.Run(pass)
	}
	for i := range diags {
		d := &diags[i]
		key := fileLine{d.Pos.Filename, d.Pos.Line}
		prev := fileLine{d.Pos.Filename, d.Pos.Line - 1}
		if pkg.allows[key][d.Analyzer] || pkg.allows[prev][d.Analyzer] {
			d.Suppressed = true
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

type fileLine struct {
	file string
	line int
}

// collectAllows gathers //lint:allow comments: map (file,line) → analyzer
// set. A suppression applies to findings on its own line (trailing comment)
// or on the line immediately below (preceding comment). Each suppression
// must read "//lint:allow name[,name]: reason" with every name in All() and
// a non-empty reason; any other form is returned as an error — a typoed name
// silently suppresses nothing, and a claim without a reason is unreviewable.
func collectAllows(fset *token.FileSet, files []*ast.File) (map[fileLine]map[string]bool, []error) {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	out := make(map[fileLine]map[string]bool)
	var errs []error
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// Doc-comment examples keep their own leading "//" after
				// the comment marker and therefore do not match.
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				body, ok := strings.CutPrefix(text, "lint:allow")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				namePart, reason, _ := strings.Cut(body, ":")
				names := strings.FieldsFunc(namePart, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
				if len(names) == 0 || strings.TrimSpace(reason) == "" {
					errs = append(errs, fmt.Errorf("%s: suppression must read //lint:allow <analyzer>: <reason>", pos))
					continue
				}
				key := fileLine{pos.Filename, pos.Line}
				if out[key] == nil {
					out[key] = make(map[string]bool)
				}
				for _, name := range names {
					if !known[name] {
						errs = append(errs, fmt.Errorf("%s: suppression names unknown analyzer %q", pos, name))
					}
					out[key][name] = true
				}
			}
		}
	}
	return out, errs
}

// --- shared type helpers used by the analyzers ---------------------------

// namedType unwraps pointers and aliases down to a named type, or nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// calleeFunc resolves the static callee of a call, or nil (builtin calls,
// conversions, and calls through function values resolve to nil).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// funcPkgPath returns the declaring package path of f ("" for nil).
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

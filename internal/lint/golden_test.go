package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches golden expectations in fixture sources:
//
//	x.T1 < y.T1 // want "ad-hoc < comparison"
//
// The quoted text is a regexp matched against the diagnostic message; the
// comment's line must equal the diagnostic's line.
var wantRe = regexp.MustCompile(`//\s*want\s+"([^"]+)"`)

type want struct {
	re      *regexp.Regexp
	matched bool
}

// collectWants scans the fixture's comments for // want "..." expectations,
// keyed by (file, line).
func collectWants(t *testing.T, pkg *Package) map[fileLine]*want {
	t.Helper()
	out := make(map[fileLine]*want)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want pattern %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fileLine{pos.Filename, pos.Line}
				if out[key] != nil {
					t.Fatalf("%s:%d: multiple want comments on one line", pos.Filename, pos.Line)
				}
				out[key] = &want{re: re}
			}
		}
	}
	return out
}

func analyzerNamed(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// TestGolden runs each analyzer over its fixture package in testdata/src and
// checks the reported diagnostics against the // want comments both ways:
// every want must be matched, and every unsuppressed diagnostic must have a
// want.
func TestGolden(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"errdrop", "nopanic"} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", name)
			pkg, err := loader.LoadDir(dir, "lintfixture/"+name)
			if err != nil {
				t.Fatal(err)
			}
			if len(pkg.Errors) > 0 {
				t.Fatalf("fixture %s does not type-check: %v", name, pkg.Errors)
			}
			wants := collectWants(t, pkg)
			for _, d := range Run(pkg, []*Analyzer{analyzerNamed(t, name)}) {
				if d.Suppressed {
					continue
				}
				w := wants[fileLine{d.Pos.Filename, d.Pos.Line}]
				switch {
				case w == nil:
					t.Errorf("unexpected diagnostic: %s", d)
				case !w.re.MatchString(d.Message):
					t.Errorf("%s:%d: diagnostic %q does not match want %q", d.Pos.Filename, d.Pos.Line, d.Message, w.re)
				default:
					w.matched = true
				}
			}
			for key, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: no diagnostic matching want %q", key.file, key.line, w.re)
				}
			}
		})
	}
}

// TestAllowReason checks that a malformed suppression fails the load: a
// missing colon, an empty reason, no analyzer name, or an unknown one are
// each one package error, and a well-formed allow is not.
func TestAllowReason(t *testing.T) {
	dir := t.TempDir()
	src := `package fixture

func missingColon() {
	//lint:allow nopanic because it is unreachable
}

func emptyReason() {
	//lint:allow nopanic:
}

func noNames() {
	//lint:allow : a reason for nothing
}

func unknownName() {
	//lint:allow nopnaic: typo
}

func wellFormed() {
	//lint:allow nopanic,errdrop: fixture, both names are known
}
`
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, "lintfixture/allowreason")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fixture.go:4:2: suppression must read",
		"fixture.go:8:2: suppression must read",
		"fixture.go:12:2: suppression must read",
		`fixture.go:16:2: suppression names unknown analyzer "nopnaic"`,
	}
	if len(pkg.Errors) != len(want) {
		t.Fatalf("got %d load errors, want %d: %v", len(pkg.Errors), len(want), pkg.Errors)
	}
	for i, w := range want {
		if !strings.Contains(pkg.Errors[i].Error(), w) {
			t.Errorf("load error %d = %q, want it to contain %q", i, pkg.Errors[i], w)
		}
	}
}

// TestSuppressionScope pins the two placements //lint:allow honors — same
// line and line above — and that an allow for one analyzer does not leak to
// another line or another analyzer.
func TestSuppressionScope(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "nopanic"), "lintfixture/nopanic")
	if err != nil {
		t.Fatal(err)
	}
	var suppressed, reported int
	for _, d := range Run(pkg, []*Analyzer{analyzerNamed(t, "nopanic")}) {
		if d.Suppressed {
			suppressed++
		} else {
			reported++
		}
	}
	if suppressed != 1 || reported != 1 {
		t.Errorf("got %d suppressed / %d reported nopanic findings, want 1 / 1", suppressed, reported)
	}
}

// TestModuleClean is the acceptance criterion as a test: the full analyzer
// suite over the whole module must produce zero unsuppressed findings, and
// every package must load and type-check. Introducing a violation anywhere in
// the tree fails `go test ./internal/lint`.
func TestModuleClean(t *testing.T) {
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("LoadAll found no packages")
	}
	var findings []string
	for _, pkg := range pkgs {
		for _, e := range pkg.Errors {
			t.Errorf("%s: %v", pkg.Path, e)
		}
		for _, d := range Run(pkg, All()) {
			if !d.Suppressed {
				findings = append(findings, fmt.Sprintf("%s: %s", pkg.Path, d))
			}
		}
	}
	for _, f := range findings {
		t.Error(f)
	}
}

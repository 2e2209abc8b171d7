package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/core").
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Errors holds parse, type and malformed-suppression errors. Analyzers
	// still run on packages with errors, but cvclint reports them and fails
	// the run: a finding missed because typing was incomplete is worse than
	// a loud exit.
	Errors []error

	allows map[fileLine]map[string]bool // //lint:allow comments (collectAllows)
}

// Loader loads and type-checks packages of one module using only the
// standard library: module-internal import paths are resolved against the
// module directory and type-checked from source, everything else is
// delegated to go/importer's source importer (which compiles the standard
// library from GOROOT/src).
type Loader struct {
	ModuleDir  string
	ModulePath string
	Fset       *token.FileSet

	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle detection
}

// NewLoader returns a loader rooted at moduleDir (which must contain
// go.mod).
func NewLoader(moduleDir string) (*Loader, error) {
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer consults build.Default. With cgo enabled it
	// would try to run cgo on packages like net; the pure-Go variants
	// type-check identically for analysis purposes.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		ModuleDir:  abs,
		ModulePath: modPath,
		Fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// Import implements types.Importer, so module-internal dependencies of a
// package under analysis are themselves loaded through the Loader.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir, ok := l.dirFor(path); ok {
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		if len(pkg.Errors) > 0 {
			return pkg.Types, fmt.Errorf("lint: %s has %d errors (first: %v)", path, len(pkg.Errors), pkg.Errors[0])
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// dirFor maps a module-internal import path to its directory.
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.ModulePath {
		return l.ModuleDir, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest)), true
	}
	return "", false
}

// LoadDir loads the package in dir under the given import path, parsing
// every non-test .go file and type-checking it. Results are cached by path.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	names, err := sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go source files in %s", dir)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset}
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			pkg.Errors = append(pkg.Errors, err)
			continue
		}
		pkg.Files = append(pkg.Files, f)
	}
	var allowErrs []error
	pkg.allows, allowErrs = collectAllows(l.Fset, pkg.Files)
	pkg.Errors = append(pkg.Errors, allowErrs...)
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.Errors = append(pkg.Errors, err) },
	}
	// Check reports the first error through conf.Error as well; the
	// returned package is usable even when incomplete.
	pkg.Types, _ = conf.Check(path, l.Fset, pkg.Files, pkg.Info)
	l.pkgs[path] = pkg
	return pkg, nil
}

// sourceFiles lists the non-test .go files of dir that build on the host
// platform, in stable order. Build constraints matter since the transport
// grew platform-split files (poller_linux.go vs netpoll_other.go): parsing
// both halves of a //go:build pair redeclares every symbol and drowns the
// run in spurious type errors, so files are filtered through the same
// context the compiler uses.
func sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		// MatchFile reads the file header and evaluates //go:build lines and
		// GOOS/GOARCH filename suffixes against build.Default.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// LoadAll loads every package of the module: each directory under ModuleDir
// holding non-test .go files, skipping testdata, hidden, and underscore
// directories.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleDir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModuleDir && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := sourceFiles(p)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var out []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleDir, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

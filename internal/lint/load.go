package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package handed to analyzers.
type Package struct {
	// Path is the package's import path (e.g. "toposhot/internal/node").
	// External test packages ("package foo_test") carry the synthetic path
	// "<path> [test]"; rule scoping uses ScopePath, which strips the marker.
	Path string
	// ForTest, when non-empty, marks an external test package and names the
	// import path of the package under test.
	ForTest string
	// ModRoot is the absolute module root directory the package was loaded
	// from. Finding positions resolve against it, never against the process
	// working directory, so reports and golden files are byte-identical no
	// matter which subdirectory the linter is invoked from.
	ModRoot string
	// Fset positions every file in the package.
	Fset *token.FileSet
	// Files are the parsed source files, sorted by file name. Test files are
	// included unless the load opted out (Options.NoTests); IsTestFile tells
	// them apart.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries expression types and object resolution for the files.
	Info *types.Info
	// TypeErrors collects type-check diagnostics. A non-empty list means
	// Info may be partial; analyzers must tolerate missing entries.
	TypeErrors []types.Error
}

// ScopePath is the import path rules scope on: for an external test package
// it is the path of the package under test, so path-scoped rules (hot-path
// bans, determinism scope) apply to a package's external tests too.
func (p *Package) ScopePath() string {
	if p.ForTest != "" {
		return p.ForTest
	}
	return p.Path
}

// IsTestFile reports whether the file is a _test.go source.
func (p *Package) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// loader resolves and type-checks module packages, delegating everything
// outside the module to a go/importer "source" importer so the suite works
// with nothing but a GOROOT source tree.
type loader struct {
	fset    *token.FileSet
	baseDir string // absolute directory patterns resolve against
	modRoot string
	modPath string
	tests   bool // parse _test.go files too
	pkgs    map[string]*Package
	extPkgs map[string]*Package // external test package by subject path
	loading map[string]bool
	std     types.Importer
}

func newLoader(dir string, tests bool) (*loader, error) {
	if dir == "" {
		dir = "."
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modRoot, err := findModuleRoot(abs)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	// Stdlib packages are type-checked from GOROOT source; disabling cgo
	// selects the pure-Go variants (net's DNS resolver and friends), which
	// is all type analysis needs.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		baseDir: abs,
		modRoot: modRoot,
		modPath: modPath,
		tests:   tests,
		pkgs:    make(map[string]*Package),
		extPkgs: make(map[string]*Package),
		loading: make(map[string]bool),
		std:     importer.ForCompiler(fset, "source", nil),
	}, nil
}

// findModuleRoot walks upward from dir to the directory holding go.mod.
func findModuleRoot(dir string) (string, error) {
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

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}

// expand resolves package patterns ("./...", "./dir/...", "./dir") to a
// sorted list of module import paths. Patterns resolve against the loader's
// base directory (where the linter was invoked), matching the go tool's
// convention, while reported paths stay module-root-relative.
func (l *loader) expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		} else if pat == "..." {
			recursive = true
			pat = "."
		}
		pat = strings.TrimPrefix(pat, "./")
		if pat == "" || pat == "." {
			pat = "."
		}
		root := filepath.Join(l.baseDir, filepath.FromSlash(pat))
		if !recursive {
			if !hasGoFiles(root, l.tests) {
				return nil, fmt.Errorf("no Go files in %s", root)
			}
			add(l.importPathFor(root))
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(path, l.tests) {
				add(l.importPathFor(path))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// importPathFor maps a directory inside the module to its import path.
func (l *loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil || rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(rel)
}

// hasGoFiles reports whether dir holds at least one candidate Go file.
func hasGoFiles(dir string, tests bool) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if sourceFile(e, tests) {
			return true
		}
	}
	return false
}

// sourceFile reports whether the entry is a lintable Go file. With tests
// false, _test.go files are excluded (the -no-tests opt-out).
func sourceFile(e os.DirEntry, tests bool) bool {
	name := e.Name()
	if e.IsDir() || !strings.HasSuffix(name, ".go") ||
		strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
		return false
	}
	if !tests && strings.HasSuffix(name, "_test.go") {
		return false
	}
	return true
}

// Import implements types.Importer: module-internal paths load from source
// through this loader; everything else (the standard library) goes through
// the source importer. The "unsafe" pseudo-package is special-cased.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		p, err := l.loadModulePackage(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// loadModulePackage parses and type-checks one module package (memoized).
// Note: a package loaded as a dependency of another package includes its
// in-package test files when the loader lints tests — harmless extra symbols
// for the importer, and it keeps every package type-checked exactly once.
func (l *loader) loadModulePackage(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
	dir := filepath.Join(l.modRoot, filepath.FromSlash(rel))
	p, ext, err := l.checkDir(dir, path)
	if err != nil {
		return nil, err
	}
	// Memoize the base package before type-checking its external tests: the
	// test files import it, and the importer must find this result rather
	// than tripping the in-progress cycle guard.
	l.pkgs[path] = p
	if ext != nil {
		l.typecheck(ext, path+"_test")
		l.extPkgs[path] = ext
	}
	return p, nil
}

// loadExternalTest returns the external test package ("package foo_test") of
// a module package, loading the subject first so the test files' import of it
// resolves to the memoized result. Nil when the directory has none.
func (l *loader) loadExternalTest(path string) (*Package, error) {
	if !l.tests {
		return nil, nil
	}
	if _, err := l.loadModulePackage(path); err != nil {
		return nil, err
	}
	return l.extPkgs[path], nil
}

// parseDir parses the candidate files of dir, splitting them into the base
// package's files and external-test ("package foo_test") files.
func (l *loader) parseDir(dir string, pkg *Package) (base, external []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if sourceFile(e, l.tests) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("no Go files in %s", dir)
	}
	sort.Strings(names)
	displayDir := dir
	if rel, rerr := filepath.Rel(l.modRoot, dir); rerr == nil && !strings.HasPrefix(rel, "..") {
		displayDir = rel
	}
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		file, err := parser.ParseFile(l.fset, filepath.ToSlash(filepath.Join(displayDir, name)), src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			// Report the parse failure as a type error and analyze the rest.
			pkg.TypeErrors = append(pkg.TypeErrors, types.Error{
				Fset: l.fset,
				Msg:  err.Error(),
			})
			if file == nil {
				continue
			}
		}
		if strings.HasSuffix(name, "_test.go") && file.Name != nil && strings.HasSuffix(file.Name.Name, "_test") {
			external = append(external, file)
			continue
		}
		base = append(base, file)
	}
	return base, external, nil
}

// checkDir parses every candidate Go file in dir and type-checks the base
// package under the given import path. In-package test files join the base
// package; "package foo_test" files come back as a second, parsed but NOT
// yet type-checked external test package — the caller must memoize the base
// first (its tests import it) and then run typecheck on the external one.
// Parse and type errors do not abort: they are recorded on the package for
// reporting, and analysis proceeds on whatever information survived.
func (l *loader) checkDir(dir, path string) (base, externalTest *Package, err error) {
	pkg := &Package{Path: path, Fset: l.fset, ModRoot: l.modRoot}
	baseFiles, extFiles, err := l.parseDir(dir, pkg)
	if err != nil {
		return nil, nil, err
	}
	pkg.Files = baseFiles
	l.typecheck(pkg, path)

	if len(extFiles) == 0 {
		return pkg, nil, nil
	}
	ext := &Package{Path: path + " [test]", ForTest: path, Fset: l.fset, ModRoot: l.modRoot}
	ext.Files = extFiles
	return pkg, ext, nil
}

// typecheck runs go/types over the package's files in place.
func (l *loader) typecheck(pkg *Package, checkPath string) {
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if te, ok := err.(types.Error); ok {
				pkg.TypeErrors = append(pkg.TypeErrors, te)
			}
		},
	}
	// Check records its result even when errors occurred; the error return
	// duplicates the first collected diagnostic, so it is deliberately
	// dropped here — TypeErrors carries the full list.
	tpkg, _ := conf.Check(checkPath, l.fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg
}

// LoadPackage parses and type-checks the single package in dir under the
// claimed import path, test files included. It is the entry point tests use
// to load fixture packages from testdata (which the normal pattern walk
// skips). The claimed path controls path-scoped rules, so a fixture can opt
// into, say, the simulation-package determinism checks. The second result is
// the directory's external test package, or nil.
func LoadPackage(dir, importPath string) (*Package, *Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	ld, err := newLoader(abs, true)
	if err != nil {
		return nil, nil, err
	}
	base, ext, err := ld.checkDir(abs, importPath)
	if err != nil {
		return nil, nil, err
	}
	if ext != nil {
		ld.pkgs[importPath] = base
		ld.typecheck(ext, importPath+"_test")
	}
	return base, ext, nil
}

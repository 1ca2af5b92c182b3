package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkFixture loads one testdata package under a claimed import path and
// returns the formatted findings of the full suite (external test package
// included when the fixture has one).
func checkFixture(t *testing.T, name, importPath string) string {
	t.Helper()
	pkg, ext, err := LoadPackage(filepath.Join("testdata", "src", name), importPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture %s does not type-check: %v", name, pkg.TypeErrors[0])
	}
	pkgs := []*Package{pkg}
	if ext != nil {
		pkgs = append(pkgs, ext)
	}
	return Format(CheckProgram(NewProgram(pkgs...)))
}

// golden compares got against testdata/<name>.golden, rewriting it under
// -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run go test -run %s -update to create): %v", t.Name(), err)
	}
	if got != string(want) {
		t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestNoDeterminismGolden(t *testing.T) {
	golden(t, "nodeterminism", checkFixture(t, "nodeterminism", "toposhot/internal/core/fixture"))
}

// TestHotPathGolden loads one fixture under both hot-path scopes: under the
// ethsim path only functions carrying //toposhot:hotpath reject map
// iteration; under the sim path the whole package is hot and every map range
// is flagged. The container/heap import is flagged in both.
func TestHotPathGolden(t *testing.T) {
	golden(t, "hotpath_ethsim", checkFixture(t, "hotpath", "toposhot/internal/ethsim/fixture"))
	golden(t, "hotpath_sim", checkFixture(t, "hotpath", "toposhot/internal/sim/fixture"))
}

// TestPoolPathGolden loads the pre-rewrite mempool shape under the txpool
// scope: the container/heap import and the map ranges inside the marked
// SetStateNonce and repartition* functions are flagged; the collect-then-sort
// range in an unmarked function and the slice walk in offer stay silent.
func TestPoolPathGolden(t *testing.T) {
	golden(t, "poolpath", checkFixture(t, "poolpath", "toposhot/internal/txpool/poolfixture"))
}

func TestLockSafeGolden(t *testing.T) {
	golden(t, "locksafe", checkFixture(t, "locksafe", "toposhot/internal/node/fixture"))
}

func TestErrcheckWireGolden(t *testing.T) {
	golden(t, "errcheckwire", checkFixture(t, "errcheckwire", "toposhot/internal/node/wirefixture"))
}

func TestMetricsNilsafeGolden(t *testing.T) {
	golden(t, "metricsnilsafe", checkFixture(t, "metricsnilsafe", "toposhot/internal/node/metricsfixture"))
}

// TestIgnoreDirectives covers suppression (line-above and trailing), the
// unknown-rule directive error, and the missing-reason directive error.
func TestTraceLintGolden(t *testing.T) {
	golden(t, "tracenilsafe", checkFixture(t, "tracenilsafe", "toposhot/internal/experiments/tracefixture"))
}

// TestHotAllocGolden: closures, map/slice literals, growing appends, and
// interface boxing fire inside marked functions; pooled idioms, unmarked
// functions and the //lint:ignore'd result-slice append stay silent.
func TestHotAllocGolden(t *testing.T) {
	golden(t, "hotalloc", checkFixture(t, "hotalloc", "toposhot/internal/ethsim/allocfixture"))
}

// TestTickPathGolden: outside every package-scoped rule the directive alone
// puts a function under both bans — map iteration and allocations inside the
// marked dyn*/trk* functions fire; the pooled reslice and the unmarked
// dynRebuild fallback stay silent.
func TestTickPathGolden(t *testing.T) {
	golden(t, "tickpath_graph", checkFixture(t, "tickpath", "toposhot/internal/graph/fixture"))
}

// TestDirectiveGolden: the gofmt-shaped and bare directives are in force; a
// misspelt, trailing-text, detached, type-, var-, body- or test-file-placed
// one is reported under typecheck and guards nothing.
func TestDirectiveGolden(t *testing.T) {
	golden(t, "directive", checkFixture(t, "directive", "toposhot/internal/graph/directivefixture"))
}

// TestHotAllocRegression: seeding a closure-per-message send into a gossip
// dispatch function shaped like ethsim's must fire the rule — the guard
// against quietly reverting the allocation-free scheduling API.
func TestHotAllocRegression(t *testing.T) {
	got := checkFixture(t, "hotalloc_regress", "toposhot/internal/ethsim/regress")
	if !strings.Contains(got, "[hotalloc]") || !strings.Contains(got, "closure") {
		t.Errorf("closure-per-message dispatch did not fire hotalloc:\n%s", got)
	}
}

// TestStaleIgnore: a directive still suppressing a finding is silent; one
// whose finding is gone is reported under stale-ignore.
func TestStaleIgnore(t *testing.T) {
	got := checkFixture(t, "staleignore", "toposhot/internal/sim/stalefixture")
	golden(t, "staleignore", got)
	if n := strings.Count(got, "["+StaleIgnoreRule+"]"); n != 1 {
		t.Errorf("want exactly 1 stale-ignore finding, got %d:\n%s", n, got)
	}
	if strings.Contains(got, "[nodeterminism]") {
		t.Errorf("used directive failed to suppress:\n%s", got)
	}
}

// writeTree lays out a file tree under a fresh temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestTestFilesAreLinted: _test.go files, in-package and external, are
// linted like the code they test.
func TestTestFilesAreLinted(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":                     "module toposhot\n\ngo 1.22\n",
		"internal/sim/x/x.go":        "package x\n\nfunc Ok() int { return 1 }\n",
		"internal/sim/x/x_test.go":   "package x\n\nimport \"time\"\n\nfunc helper() time.Time { return time.Now() }\n",
		"internal/sim/x/ext_test.go": "package x_test\n\nimport \"time\"\n\nvar T = time.Now()\n",
	})
	withTests, err := Run(Options{Dir: dir})
	if err != nil {
		t.Fatalf("run with tests: %v", err)
	}
	if n := len(withTests); n != 2 {
		t.Fatalf("want 2 findings (in-package + external test), got %d:\n%s", n, Format(withTests))
	}
	for _, f := range withTests {
		if f.Rule != "nodeterminism" {
			t.Errorf("unexpected rule %s: %s", f.Rule, f)
		}
	}
}

// TestLoaderErrorPaths: broken inputs degrade to typecheck findings — never
// a panic, never an aborted run — and analyzers tolerate the partial type
// information that results.
func TestLoaderErrorPaths(t *testing.T) {
	cases := []struct {
		name     string
		files    map[string]string
		wantMsg  string // substring of a typecheck finding
		wantAlso string // substring of an analyzer finding that must survive
		wantErr  string // substring of the returned error (load-level failures)
	}{
		{
			name: "syntax error",
			files: map[string]string{
				"go.mod":      "module toposhot\n\ngo 1.22\n",
				"bad/bad.go":  "package bad\n\nfunc broken( {\n",
				"bad/good.go": "package bad\n\nfunc Fine() {}\n",
			},
			wantMsg: "expected",
		},
		{
			name: "type error",
			files: map[string]string{
				"go.mod":   "module toposhot\n\ngo 1.22\n",
				"bad/t.go": "package bad\n\nfunc f() int { return undefinedSymbol }\n",
			},
			wantMsg: "undefinedSymbol",
		},
		{
			name: "unresolvable import",
			files: map[string]string{
				"go.mod":   "module toposhot\n\ngo 1.22\n",
				"bad/i.go": "package bad\n\nimport \"toposhot/internal/nosuchpkg\"\n\nvar _ = nosuchpkg.X\n",
			},
			wantMsg: "nosuchpkg",
		},
		{
			name: "hot-path package with broken types still analyzed",
			files: map[string]string{
				"go.mod": "module toposhot\n\ngo 1.22\n",
				"internal/sim/s.go": "package sim\n\n" +
					"func Step() { bad() }\n" +
					"func schedule(m map[int]int) {\n\tfor k := range m {\n\t\t_ = k\n\t}\n}\n",
			},
			// The undefined call is a typecheck finding; the map iteration in a
			// hot function must still be reported off the surviving type info.
			wantMsg:  "bad",
			wantAlso: "map iteration",
		},
		{
			name: "no go files",
			files: map[string]string{
				"go.mod":         "module toposhot\n\ngo 1.22\n",
				"empty/note.txt": "nothing to lint\n",
			},
			wantErr: "no Go files",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeTree(t, tc.files)
			patterns := []string(nil)
			if tc.wantErr != "" {
				patterns = []string{"./empty"}
			}
			findings, err := Run(Options{Dir: dir, Patterns: patterns})
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			out := Format(findings)
			if !strings.Contains(out, tc.wantMsg) {
				t.Errorf("findings missing %q:\n%s", tc.wantMsg, out)
			}
			if tc.wantAlso != "" && !strings.Contains(out, tc.wantAlso) {
				t.Errorf("analyzer finding %q missing on the broken package:\n%s", tc.wantAlso, out)
			}
			for _, f := range findings {
				if f.Rule != TypecheckRule && f.Rule != "nodeterminism" {
					t.Errorf("unexpected rule %s: %s", f.Rule, f)
				}
			}
		})
	}
}

func TestIgnoreDirectives(t *testing.T) {
	got := checkFixture(t, "ignore", "toposhot/internal/sim/fixture")
	golden(t, "ignore", got)

	// The two well-formed directives must have suppressed their findings:
	// exactly the two unsuppressed time.Now sites remain as nodeterminism.
	if n := strings.Count(got, "[nodeterminism]"); n != 2 {
		t.Errorf("want 2 unsuppressed nodeterminism findings, got %d:\n%s", n, got)
	}
	if !strings.Contains(got, "unknown rule") {
		t.Errorf("unknown-rule directive not reported:\n%s", got)
	}
	if !strings.Contains(got, "malformed ignore directive") {
		t.Errorf("missing-reason directive not reported:\n%s", got)
	}
}

// TestBrokenPackageReports: a package with a type error degrades to a
// typecheck finding, not a panic or an aborted run.
func TestBrokenPackageReports(t *testing.T) {
	pkg, _, err := LoadPackage(filepath.Join("testdata", "src", "broken"), "toposhot/internal/brokenfixture")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	findings := CheckPackage(pkg)
	if len(findings) == 0 {
		t.Fatal("want at least one typecheck finding, got none")
	}
	for _, f := range findings {
		if f.Rule != TypecheckRule {
			t.Errorf("unexpected non-typecheck finding: %s", f)
		}
	}
	if !strings.Contains(Format(findings), "undefinedSymbol") {
		t.Errorf("typecheck finding does not mention the undefined symbol:\n%s", Format(findings))
	}
}

// TestByName covers rule lookup used by ignore directives and -list.
func TestByName(t *testing.T) {
	for _, name := range AnalyzerNames() {
		if ByName(name) == nil {
			t.Errorf("ByName(%q) = nil for a listed rule", name)
		}
	}
	if ByName("bogus") != nil {
		t.Error("ByName(bogus) should be nil")
	}
	if len(AnalyzerNames()) < 5 {
		t.Errorf("want at least 5 analyzers, got %v", AnalyzerNames())
	}
}

// TestTreeClean runs the full suite over the real module: the tree must lint
// clean, so reintroducing any fixture violation fails this test as well as
// the CI lint job.
func TestTreeClean(t *testing.T) {
	findings := CheckProgram(loadModule(t))
	if len(findings) > 0 {
		t.Errorf("module tree is not lint-clean:\n%s", Format(findings))
	}
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
	ld, err := newLoader(abs)
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

// CheckPackage applies every analyzer to one loaded package by wrapping it in
// a single-package program: type errors become typecheck findings, analyzer
// findings pass through the package's ignore directives, and malformed,
// unknown-rule, or stale directives are reported. Fixture tests use this.
func CheckPackage(pkg *Package) []Finding {
	return CheckProgram(NewProgram(pkg))
}

// NewProgram wraps already-loaded packages (fixture tests build single-
// package programs this way). Packages must share a FileSet.
func NewProgram(pkgs ...*Package) *Program {
	return &Program{Packages: pkgs}
}

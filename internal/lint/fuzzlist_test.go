package lint

import (
	"go/ast"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMakeFuzzListsEveryTarget keeps the Makefile's fuzz target and the
// module's fuzz functions in step, both ways. `go test -fuzz=FuzzX ./pkg/`
// passes when the package has no FuzzX, so a line left behind for a deleted
// target would otherwise shake nothing without failing; a new target left
// off the list would never be fuzzed.
func TestMakeFuzzListsEveryTarget(t *testing.T) {
	const root = "../.."
	listed := makeFuzzTargets(t, filepath.Join(root, "Makefile"))
	defined := indexModule(t, root).fuzzTargets
	for _, k := range sortedKeys(listed) {
		if !defined[k] {
			t.Errorf("Makefile fuzz target lists %s, but that package defines no such func(*testing.F)", k)
		}
	}
	for _, k := range sortedKeys(defined) {
		if !listed[k] {
			t.Errorf("%s is not listed in the Makefile's fuzz target", k)
		}
	}
}

// makeFuzzTargets returns "pkgdir.FuzzX" for every `-fuzz=FuzzX ./pkgdir/`
// recipe line of the Makefile's fuzz target.
func makeFuzzTargets(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	inFuzz := false
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "\t") {
			inFuzz = strings.HasPrefix(line, "fuzz:")
			continue
		}
		if !inFuzz {
			continue
		}
		var name, dir string
		for _, f := range strings.Fields(line) {
			switch {
			case strings.HasPrefix(f, "-fuzz="):
				name = strings.TrimPrefix(f, "-fuzz=")
			case strings.HasPrefix(f, "./"):
				dir = strings.Trim(strings.TrimPrefix(f, "./"), "/")
			}
		}
		if name == "" || dir == "" {
			t.Fatalf("fuzz recipe line %q names no -fuzz=FuzzX ./pkg/ pair", strings.TrimSpace(line))
		}
		out[dir+"."+name] = true
	}
	if len(out) == 0 {
		t.Fatal("Makefile has no fuzz target lines")
	}
	return out
}

// takesTestingF reports whether fn's one parameter is a *testing.F.
func takesTestingF(fn *ast.FuncDecl) bool {
	params := fn.Type.Params.List
	if len(params) != 1 || len(params[0].Names) > 1 {
		return false
	}
	star, ok := params[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "F" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "testing"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// flagCallers are the files whose commands count as a flag's callers: what
// CI, the Makefile, the two user documents and the verify recipe run.
var flagCallers = []string{
	".github/workflows/ci.yml",
	"Makefile",
	"README.md",
	"EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md",
}

// flagAllowlist names the flags a cmd/*/main.go declares that no caller sets
// but that stay, each with the reason. A key is the binary, then the flag:
// "toposhotd -network".
var flagAllowlist = map[string]string{
	"toposhotd -network": "a deployment setting: the daemon must match its peers' network id, which no documented run varies",
}

// flagSetters maps the flag-declaring methods of a *flag.FlagSet (and the
// flag package's functions of the same names) to the index of their name
// argument.
var flagSetters = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1, "StringVar": 1,
	"UintVar": 1, "Uint64Var": 1, "Var": 1, "Func": 0, "BoolFunc": 0, "TextVar": 1,
}

// TestEveryFlagHasACaller applies the option rule to the binaries' command
// lines: a value is a flag only where a caller sets it. Every flag declared
// in a cmd/*/main.go must appear in a flagCallers file as a command-line
// token (-name, --name or -name=value; a name quoted in prose does not
// count), unless flagAllowlist names it. The telemetry flags that
// internal/obs declares for several binaries are outside its scope. An
// allowlist entry that names no declared flag, or a flag a caller sets,
// fails as stale.
func TestEveryFlagHasACaller(t *testing.T) {
	const root = "../.."
	set := map[string]bool{}
	for _, f := range flagCallers {
		data, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			t.Fatal(err)
		}
		for _, tok := range strings.Fields(string(data)) {
			if strings.HasPrefix(tok, "-") {
				name, _, _ := strings.Cut(strings.TrimLeft(tok, "-"), "=")
				set[name] = true
			}
		}
	}
	declared := cmdFlags(t, root)
	if len(declared) == 0 {
		t.Fatal("no flag declarations found under cmd/")
	}
	for _, key := range sortedKeys(declared) {
		_, name, _ := strings.Cut(key, " -")
		if !set[name] {
			if _, ok := flagAllowlist[key]; !ok {
				t.Errorf("%s (%s) is set by no command in %s", key, declared[key], strings.Join(flagCallers, ", "))
			}
		}
	}
	for _, key := range sortedKeys(flagAllowlist) {
		_, name, _ := strings.Cut(key, " -")
		switch {
		case declared[key] == "":
			t.Errorf("stale allowlist entry %s: no such flag", key)
		case set[name]:
			t.Errorf("stale allowlist entry %s: a caller sets it", key)
		}
	}
}

// cmdFlags maps "binary -name" to the position of each flag declared in a
// cmd/*/main.go, on the flag package or on a variable the file assigns a
// flag.NewFlagSet to.
func cmdFlags(t *testing.T, root string) map[string]string {
	t.Helper()
	mains, err := filepath.Glob(filepath.Join(root, "cmd", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	fset := token.NewFileSet()
	for _, path := range mains {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		bin := filepath.Base(filepath.Dir(path))
		sets := map[string]bool{"flag": true}
		// Inspect walks in source order, so a FlagSet is recorded before the
		// calls that declare flags on it.
		ast.Inspect(f, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
				id, isID := as.Lhs[0].(*ast.Ident)
				if call, ok := as.Rhs[0].(*ast.CallExpr); ok && isID && isSelector(call.Fun, "flag", "NewFlagSet") {
					sets[id.Name] = true
				}
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv, ok := sel.X.(*ast.Ident)
			i, setter := flagSetters[sel.Sel.Name]
			if !ok || !sets[recv.Name] || !setter || len(call.Args) <= i {
				return true
			}
			lit, ok := call.Args[i].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			rel, _ := filepath.Rel(root, path)
			out[bin+" -"+name] = rel + ":" + strconv.Itoa(fset.Position(lit.Pos()).Line)
			return true
		})
	}
	return out
}

// isSelector reports whether e is pkg.name.
func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

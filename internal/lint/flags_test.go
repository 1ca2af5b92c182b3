package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
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

// flagAllowlist names the flags a binary declares that no caller sets but
// that stay, each with the reason. A key is the binary, then the flag:
// "toposhotd -network"; a flag internal/obs declares for several binaries
// is keyed by its name alone: "-log".
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

// declaredFlag is one flag declaration and the binaries whose command
// lines accept it.
type declaredFlag struct {
	pos  string
	bins []string
}

// TestEveryFlagHasACaller applies the option rule to the binaries' command
// lines: a value is a flag only where a caller sets it. Every flag declared
// in a cmd/*/main.go must appear as a command-line token (-name, --name or
// -name=value) in a flagCallers command that runs that binary: `toposhot
// …`, `go run ./cmd/toposhot …`, or a name a caller file binds with `go
// build … -o NAME ./cmd/toposhot`. A name quoted in prose does not count. A
// flag an internal/obs Register*Flags function declares counts as set when
// a command of any binary that registers it sets it. A flag flagAllowlist
// names is exempt; an allowlist entry that names no declared flag, or a flag
// a caller sets, fails as stale.
func TestEveryFlagHasACaller(t *testing.T) {
	const root = "../.."
	set := callerFlags(t, root)
	declared := cmdFlags(t, root)
	if len(declared) == 0 {
		t.Fatal("no flag declarations found under cmd/")
	}
	isSet := func(key string) bool {
		_, name, _ := strings.Cut(key, "-")
		for _, bin := range declared[key].bins {
			if set[bin+" -"+name] {
				return true
			}
		}
		return false
	}
	for _, key := range sortedKeys(declared) {
		if _, ok := flagAllowlist[key]; !ok && !isSet(key) {
			t.Errorf("%s (%s) is set by no command of %s in %s", key, declared[key].pos,
				strings.Join(declared[key].bins, ", "), strings.Join(flagCallers, ", "))
		}
	}
	for _, key := range sortedKeys(flagAllowlist) {
		switch _, ok := declared[key]; {
		case !ok:
			t.Errorf("stale allowlist entry %s: no such flag", key)
		case isSet(key):
			t.Errorf("stale allowlist entry %s: a caller sets it", key)
		}
	}
}

// callerFlags is the set of "binary -name" that some flagCallers command
// sets. A command is a line (a trailing backslash continues it) up to a
// shell separator; the flags it sets are the -tokens after the token that
// names the binary it runs.
func callerFlags(t *testing.T, root string) map[string]bool {
	t.Helper()
	var commands [][]string
	for _, f := range flagCallers {
		data, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.ReplaceAll(string(data), "\\\n", " "), "\n") {
			cmd := []string{}
			for _, tok := range strings.Fields(line) {
				switch tok {
				case "|", "||", "&&", ";", "&":
					commands, cmd = append(commands, cmd), []string{}
				default:
					cmd = append(cmd, tok)
				}
			}
			commands = append(commands, cmd)
		}
	}
	// A binary's own name runs it; so does a name `go build -o` binds to it.
	bins := map[string]string{}
	mains, _ := filepath.Glob(filepath.Join(root, "cmd", "*", "main.go"))
	for _, m := range mains {
		bin := filepath.Base(filepath.Dir(m))
		bins[bin], bins["./"+bin] = bin, bin
	}
	isGo := func(tok string) bool { return strings.Trim(strings.ToLower(tok), "`$()") == "go" }
	for _, cmd := range commands {
		o := slices.Index(cmd, "-o")
		if o < 0 || o+1 == len(cmd) || !slices.Contains(cmd, "build") {
			continue
		}
		for _, tok := range cmd[o+2:] {
			if pkg, ok := strings.CutPrefix(tok, "./cmd/"); ok && bins[pkg] != "" {
				bins[cmd[o+1]], bins["./"+cmd[o+1]] = pkg, pkg
			}
		}
	}
	set := map[string]bool{}
	for _, cmd := range commands {
		bin, goRun := "", false
		for i, tok := range cmd {
			switch {
			case bin != "":
				if strings.HasPrefix(tok, "-") {
					name, _, _ := strings.Cut(strings.TrimLeft(tok, "-"), "=")
					set[bin+" -"+name] = true
				}
			case isGo(tok) && i+1 < len(cmd) && cmd[i+1] == "run":
				goRun = true
			case goRun && strings.HasPrefix(tok, "./cmd/"):
				bin = bins[strings.TrimPrefix(tok, "./cmd/")]
			case !goRun:
				bin = bins[tok]
			}
		}
	}
	return set
}

// cmdFlags maps "binary -name" to each flag a cmd/*/main.go declares, on the
// flag package or on a variable the file assigns a flag.NewFlagSet to, and
// "-name" to each flag an internal/obs Register*Flags function declares on
// its *flag.FlagSet parameter, with the binaries whose main calls that
// function (or a Register*Flags function that calls it).
func cmdFlags(t *testing.T, root string) map[string]*declaredFlag {
	t.Helper()
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	out := map[string]*declaredFlag{}
	declare := func(key string, lit *ast.BasicLit, bin string) {
		pos := fset.Position(lit.Pos())
		rel, _ := filepath.Rel(root, pos.Filename)
		if out[key] == nil {
			out[key] = &declaredFlag{pos: rel + ":" + strconv.Itoa(pos.Line)}
		}
		out[key].bins = append(out[key].bins, bin)
	}

	// The obs registrations: the flags each declares and the ones it calls.
	type flagLit struct {
		name string
		lit  *ast.BasicLit
	}
	regFlags := map[string][]flagLit{}
	regCalls := map[string][]string{}
	regs := map[string]bool{}
	obsFiles, err := filepath.Glob(filepath.Join(root, "internal", "obs", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range obsFiles {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, d := range parse(path).Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Register") || len(fn.Type.Params.List) == 0 {
				continue
			}
			regs[fn.Name.Name] = true
			sets := map[string]bool{}
			for _, n := range fn.Type.Params.List[0].Names {
				sets[n.Name] = true
			}
			flagDecls(fn.Body, sets, func(name string, lit *ast.BasicLit) {
				regFlags[fn.Name.Name] = append(regFlags[fn.Name.Name], flagLit{name, lit})
			})
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && strings.HasPrefix(id.Name, "Register") {
						regCalls[fn.Name.Name] = append(regCalls[fn.Name.Name], id.Name)
					}
				}
				return true
			})
		}
	}
	var register func(bin, reg string)
	register = func(bin, reg string) {
		for _, f := range regFlags[reg] {
			declare("-"+f.name, f.lit, bin)
		}
		for _, callee := range regCalls[reg] {
			register(bin, callee)
		}
	}

	mains, err := filepath.Glob(filepath.Join(root, "cmd", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range mains {
		f := parse(path)
		bin := filepath.Base(filepath.Dir(path))
		flagDecls(f, map[string]bool{"flag": true}, func(name string, lit *ast.BasicLit) {
			declare(bin+" -"+name, lit, bin)
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isSelector(sel, "obs", sel.Sel.Name) && regs[sel.Sel.Name] {
					register(bin, sel.Sel.Name)
				}
			}
			return true
		})
	}
	return out
}

// flagDecls calls found with the name, and its literal, of every flag
// declared in n on a name in sets or on a variable n assigns a
// flag.NewFlagSet to.
func flagDecls(n ast.Node, sets map[string]bool, found func(string, *ast.BasicLit)) {
	// Inspect walks in source order, so a FlagSet is recorded before the
	// calls that declare flags on it.
	ast.Inspect(n, func(n ast.Node) bool {
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
		if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, _ := strconv.Unquote(lit.Value)
			found(name, lit)
		}
		return true
	})
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

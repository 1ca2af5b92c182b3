package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
	"testing"
)

// reachAllowlist names the exported declarations under internal/ that no
// non-test file uses but that stay, each with the reason. A key is the
// package path below internal/, then the receiver type for a method, then
// the name: "txpool.Pool.BaseFee".
var reachAllowlist = map[string]string{
	"types.Transaction.Copy":            "tests of txpool, ethsim and core build a content-equal second object with it",
	"types.Transaction.Hashed":          "tests of txpool and core check with it whether a digest was computed",
	"trace.ReadJSONL":                   "core's trace-golden test decodes the JSONL stream it writes",
	"core.Measurer.MeasureLinkRepeated": "its repeat span attribute is pinned by core's three-node trace goldens",
}

var (
	moduleOnce sync.Once
	moduleProg *Program
	moduleErr  error
)

// loadModule loads and type-checks the whole module once per test binary:
// TestTreeClean and TestEveryExportedNameIsReached share the result.
func loadModule(t *testing.T) *Program {
	t.Helper()
	if testing.Short() {
		t.Skip("full-module load in -short mode")
	}
	moduleOnce.Do(func() { moduleProg, moduleErr = LoadProgram(Options{Dir: "../.."}) })
	if moduleErr != nil {
		t.Fatalf("load module: %v", moduleErr)
	}
	return moduleProg
}

// TestEveryExportedNameIsReached fails on every exported func, method, type,
// const and package-level var declared in a non-test file under internal/
// that no non-test file of the module uses (bench/, cmd/ and examples/
// count as users), unless reachAllowlist names it. A method whose name some
// interface in the program or its imports declares counts as reached, since
// a call through that interface names no concrete method. An allowlist entry
// that names nothing, or names a reached declaration, fails as stale.
func TestEveryExportedNameIsReached(t *testing.T) {
	prog := loadModule(t)
	decls := exportedInternalDecls(prog)
	used := nonTestUses(prog)
	ifaceMethods := interfaceMethodNames(prog)

	var unreached []string
	for key, obj := range decls {
		if used[obj] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && ifaceMethods[fn.Name()] {
			continue
		}
		if _, ok := reachAllowlist[key]; !ok {
			unreached = append(unreached, key+" ("+prog.Packages[0].Fset.Position(obj.Pos()).String()+")")
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("exported but used by no non-test file: %s", u)
	}
	for _, key := range sortedKeys(reachAllowlist) {
		obj, ok := decls[key]
		switch {
		case !ok:
			t.Errorf("stale allowlist entry %s: no such exported declaration", key)
		case used[obj]:
			t.Errorf("stale allowlist entry %s: a non-test file uses it", key)
		}
	}
}

// exportedInternalDecls maps allowlist-style keys to the exported
// package-level objects and methods declared in non-test files of the
// module's internal/ packages.
func exportedInternalDecls(prog *Program) map[string]types.Object {
	out := map[string]types.Object{}
	for _, pkg := range prog.Packages {
		rel, ok := internalPath(pkg)
		if !ok {
			continue
		}
		for _, f := range pkg.Files {
			if pkg.IsTestFile(f) {
				continue
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					key := rel + "." + d.Name.Name
					if d.Recv != nil {
						key = rel + "." + recvTypeName(d.Recv.List[0].Type) + "." + d.Name.Name
					}
					if obj := pkg.Info.Defs[d.Name]; obj != nil {
						out[key] = obj
					}
				case *ast.GenDecl:
					if d.Tok == token.IMPORT {
						continue
					}
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, n := range names {
							if obj := pkg.Info.Defs[n]; n.IsExported() && obj != nil {
								out[rel+"."+n.Name] = obj
							}
						}
					}
				}
			}
		}
	}
	return out
}

// internalPath returns a base package's import path below "<module>/internal/".
func internalPath(pkg *Package) (string, bool) {
	if pkg.ForTest != "" {
		return "", false
	}
	_, rest, _ := strings.Cut(pkg.Path, "/")
	return strings.CutPrefix(rest, "internal/")
}

// recvTypeName strips pointers and type parameters from a receiver type.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// nonTestUses is the set of objects some non-test file of the module
// refers to. A use of an instantiated generic function or method counts
// for its declaration.
func nonTestUses(prog *Program) map[types.Object]bool {
	used := map[types.Object]bool{}
	for _, pkg := range prog.Packages {
		for id, obj := range pkg.Info.Uses {
			if strings.HasSuffix(pkg.Fset.Position(id.Pos()).Filename, "_test.go") {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[obj] = true
		}
	}
	return used
}

// interfaceMethodNames collects the method names of every interface type
// the module's packages mention and of every named interface in the
// packages they import, transitively.
func interfaceMethodNames(prog *Program) map[string]bool {
	names := map[string]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range prog.Packages {
		for _, tv := range pkg.Info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		walk(pkg.Types)
	}
	return names
}

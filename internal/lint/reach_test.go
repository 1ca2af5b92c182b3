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
	"types.Transaction.Copy":   "tests of txpool, ethsim and core build a content-equal second object with it",
	"types.Transaction.Hashed": "tests of txpool and core check with it whether a digest was computed",
	"trace.ReadJSONL":          "core's trace-golden test decodes the JSONL stream it writes",
	"types.noCopy.Lock":        "vet's copylocks check flags a copied value of a type with Lock and Unlock",
	"types.noCopy.Unlock":      "vet's copylocks check flags a copied value of a type with Lock and Unlock",
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
// count as users), unless reachAllowlist names it. A method no non-test file
// names counts as reached only through an interface: when its receiver type,
// or a pointer to it, implements an interface type that a non-test file
// names or writes and that declares the method, or when fmt or errors call
// it (stdlibCalled). An allowlist entry that names nothing, or names a
// reached declaration, fails as stale.
func TestEveryExportedNameIsReached(t *testing.T) {
	prog := loadModule(t)
	decls := exportedInternalDecls(prog)
	used := nonTestUses(prog)
	ifaces := dispatchInterfaces(prog)
	reached := func(obj types.Object) bool {
		if used[obj] {
			return true
		}
		fn, ok := obj.(*types.Func)
		return ok && fn.Type().(*types.Signature).Recv() != nil && (stdlibCalled[fn.Name()] || reachedByInterface(fn, ifaces))
	}

	var unreached []string
	for key, obj := range decls {
		if reached(obj) {
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
		case reached(obj):
			t.Errorf("stale allowlist entry %s: a non-test file reaches it", key)
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

// inTestFile reports whether p lies in one of pkg's _test.go files.
func inTestFile(pkg *Package, p token.Pos) bool {
	return strings.HasSuffix(pkg.Fset.Position(p).Filename, "_test.go")
}

// nonTestUses is the set of objects some non-test file of the module
// refers to. A use of an instantiated generic function or method counts
// for its declaration.
func nonTestUses(prog *Program) map[types.Object]bool {
	used := map[types.Object]bool{}
	for _, pkg := range prog.Packages {
		for id, obj := range pkg.Info.Uses {
			if inTestFile(pkg, id.Pos()) {
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

// dispatchInterfaces is every interface type with methods that a non-test
// file of the module names (an identifier of a named interface type) or
// writes (an interface type literal).
func dispatchInterfaces(prog *Program) []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	for _, pkg := range prog.Packages {
		for id, obj := range pkg.Info.Uses {
			if tn, ok := obj.(*types.TypeName); ok && !inTestFile(pkg, id.Pos()) {
				add(tn.Type())
			}
		}
		for e, tv := range pkg.Info.Types {
			if _, ok := e.(*ast.InterfaceType); ok && !inTestFile(pkg, e.Pos()) {
				add(tv.Type)
			}
		}
	}
	return out
}

// reachedByInterface reports whether a method's receiver type, or a pointer
// to it, implements one of ifaces that declares the method: a call through
// that interface names no concrete method.
func reachedByInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	ptr := types.NewPointer(recv) // its method set holds the value receiver's too
	for _, it := range ifaces {
		if !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				return true
			}
		}
	}
	return false
}

// stdlibCalled names the methods fmt and errors call on any value that has
// them, through interfaces no file of the module needs to name.
var stdlibCalled = map[string]bool{"String": true, "Error": true, "Unwrap": true}

package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// modulePrefix is the import-path prefix of this module; analyzers use it to
// scope rules to project packages.
const modulePrefix = "toposhot"

// report constructs a finding at the given node.
func report(pkg *Package, node ast.Node, rule, msg string) Finding {
	return Finding{Pos: relPosition(pkg, node.Pos()), Rule: rule, Msg: msg}
}

// pathIn reports whether pkgPath is one of the listed package paths or a
// subpackage of one.
func pathIn(pkgPath string, roots ...string) bool {
	for _, r := range roots {
		if pkgPath == r || strings.HasPrefix(pkgPath, r+"/") {
			return true
		}
	}
	return false
}

// calleeObject resolves the object a call expression invokes: the function,
// method, or variable named by the call's Fun, unwrapping parentheses. It
// returns nil for indirect expressions (call results, index expressions) and
// for type conversions.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return nil // type conversion, not a call
	}
	switch f := fun.(type) {
	case *ast.Ident:
		return info.Uses[f]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			return sel.Obj()
		}
		// Package-qualified call (pkg.Fn): no Selection entry, the Sel ident
		// resolves directly.
		return info.Uses[f.Sel]
	}
	return nil
}

// objectPkgPath returns the import path of the package an object belongs to,
// or "" for builtins and nil objects.
func objectPkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// recvNamed digs the named type out of a method receiver type, unwrapping one
// level of pointer.
func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// errorReturning reports whether the call's callee has an error as its final
// result.
func errorReturning(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return false
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// isBlank reports whether an expression is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// isNil reports whether an expression is the predeclared nil.
func isNil(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	return obj != nil && obj == types.Universe.Lookup("nil")
}

package lint

import (
	"go/ast"
	"go/types"
)

var analyzerHotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "scheduling and gossip hot paths stay allocation-free: no closures, no map/slice literals, no unpreallocated append growth, no interface boxing of non-pointer values",
	Run:  runHotAlloc,
}

// runHotAlloc enforces the allocation bans inside every function carrying
// //toposhot:hotpath: the engine's schedule/step path and ethsim's delivery
// path (DESIGN.md §3, §5), txpool's admission path (§2), and the tracker's
// trk* tick planner (§8). Every closure, map/slice literal,
// growing append on a fresh local, or interface boxing of a non-pointer value
// there is one allocation per event, per message, per admission, or per
// tracked change.
func runHotAlloc(pkg *Package) []Finding {
	var findings []Finding
	for _, fn := range hotPathFuncs(pkg, false) {
		findings = append(findings, hotAllocScan(pkg, fn)...)
	}
	return findings
}

func hotAllocScan(pkg *Package, fn *ast.FuncDecl) []Finding {
	var findings []Finding
	info := pkg.Info
	name := fn.Name.Name
	growing := growingLocals(info, fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			findings = append(findings, report(pkg, x, "hotalloc",
				"closure allocated in hot-path function "+name+"; hoist it to a method and schedule via Handler+arg"))
		case *ast.CompositeLit:
			tv, ok := info.Types[x]
			if !ok || tv.Type == nil {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				findings = append(findings, report(pkg, x, "hotalloc",
					"map literal allocates in hot-path function "+name+"; hoist the map out of the per-event path"))
			case *types.Slice:
				findings = append(findings, report(pkg, x, "hotalloc",
					"slice literal allocates in hot-path function "+name+"; reuse a pooled buffer"))
			}
		case *ast.AssignStmt:
			findings = append(findings, growingAppends(pkg, name, x, growing)...)
		case *ast.CallExpr:
			findings = append(findings, boxingArgs(pkg, name, x)...)
		}
		return true
	})
	return findings
}

// growingLocals collects function-local slice variables declared with no
// preallocated backing: `var s []T` or `s := make([]T, 0)`. Appending to one
// of these reallocates as it grows. Locals initialized by reslicing (a
// pooled buffer, `s := n.scratch[:0]`), by make with a length or capacity,
// or taken from parameters and fields are exempt — their growth is amortized
// into a long-lived allocation. A marked local that is later reassigned from
// anything but append/make-zero is unmarked: `var s []T; if ok { s =
// pool[:0] }` is the conditional pooled-reslice idiom, not fresh growth.
func growingLocals(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	mark := func(id *ast.Ident) {
		if v, ok := info.Defs[id].(*types.Var); ok {
			if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
				out[v] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeclStmt:
			gen, ok := x.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gen.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue // initialized declarations judged by their init
				}
				for _, id := range vs.Names {
					mark(id)
				}
			}
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, rhs := range x.Rhs {
				id, ok := x.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if info.Defs[id] != nil {
					if zeroLenMake(info, rhs) {
						mark(id)
					}
					continue
				}
				// Reassignment of an existing local: a pooled reslice (or any
				// non-growing source) clears the mark; append and zero-make
				// keep it.
				v, ok := info.Uses[id].(*types.Var)
				if !ok || !out[v] {
					continue
				}
				if !zeroLenMake(info, rhs) && !isAppendCall(info, rhs) {
					delete(out, v)
				}
			}
		}
		return true
	})
	return out
}

// isAppendCall reports whether the expression is a call to the predeclared
// append.
func isAppendCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && info.Uses[id] == types.Universe.Lookup("append")
}

// zeroLenMake reports whether an expression is make([]T, 0) with no capacity
// — a slice guaranteed to reallocate on first append.
func zeroLenMake(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || info.Uses[id] != types.Universe.Lookup("make") {
		return false
	}
	tv, ok := info.Types[call.Args[1]]
	return ok && tv.Value != nil && tv.Value.String() == "0"
}

// growingAppends flags `s = append(s, ...)` where s is a growing local.
func growingAppends(pkg *Package, fnName string, asg *ast.AssignStmt, growing map[*types.Var]bool) []Finding {
	var findings []Finding
	info := pkg.Info
	if len(asg.Lhs) != len(asg.Rhs) {
		return nil
	}
	for i, rhs := range asg.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || info.Uses[id] != types.Universe.Lookup("append") {
			continue
		}
		target, ok := ast.Unparen(asg.Lhs[i]).(*ast.Ident)
		if !ok {
			continue
		}
		v, _ := info.Uses[target].(*types.Var)
		if v == nil {
			v, _ = info.Defs[target].(*types.Var)
		}
		if v != nil && growing[v] {
			findings = append(findings, report(pkg, asg, "hotalloc",
				"append grows unpreallocated local "+target.Name+" in hot-path function "+fnName+"; reslice a pooled buffer ([:0]) or preallocate capacity"))
		}
	}
	return findings
}

// boxingArgs flags call arguments whose concrete, non-pointer-shaped value
// is passed to an interface parameter: storing such a value in an interface
// allocates. Pointers, channels, maps, and funcs share the interface's word
// and do not.
func boxingArgs(pkg *Package, fnName string, call *ast.CallExpr) []Finding {
	info := pkg.Info
	tv, ok := info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil // type conversion
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	var findings []Finding
	for i, arg := range call.Args {
		pt := paramType(sig, i, call.Ellipsis.IsValid())
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := info.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		if at.IsNil() {
			continue
		}
		t := at.Type
		if _, already := t.Underlying().(*types.Interface); already {
			continue
		}
		if pointerShaped(t) {
			continue
		}
		findings = append(findings, report(pkg, arg, "hotalloc",
			"value of type "+t.String()+" boxed into an interface argument in hot-path function "+fnName+"; pass a pointer or use the Handler+uint64 form"))
	}
	return findings
}

// paramType returns the static type of parameter i, unwrapping the variadic
// slice when the call does not use `...`.
func paramType(sig *types.Signature, i int, hasEllipsis bool) types.Type {
	params := sig.Params()
	if params.Len() == 0 {
		return nil
	}
	last := params.Len() - 1
	if i < last {
		return params.At(i).Type()
	}
	if !sig.Variadic() {
		if i == last {
			return params.At(i).Type()
		}
		return nil
	}
	if hasEllipsis {
		if i == last {
			return params.At(last).Type()
		}
		return nil
	}
	slice, ok := params.At(last).Type().(*types.Slice)
	if !ok {
		return nil
	}
	return slice.Elem()
}

// pointerShaped reports whether values of t fit an interface's data word
// without allocating: pointers, channels, maps, funcs, unsafe.Pointer.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

package lint

import (
	"go/ast"
	"go/token"
	"path"
)

var analyzerMetricsNilsafe = &Analyzer{
	Name: "metrics-nilsafe",
	Doc:  "internal/metrics instruments are nil-safe; never nil-compare or dereference them after lookup",
	Run:  func(pkg *Package) []Finding { return runNilsafe(pkg, "metrics-nilsafe") },
}

var analyzerTraceNilsafe = &Analyzer{
	Name: "trace-nilsafe",
	Doc:  "internal/trace recorders are nil-safe; don't guard pure recording with nil checks or dereference a Tracer",
	Run:  func(pkg *Package) []Finding { return runNilsafe(pkg, "trace-nilsafe") },
}

// tracePkg is the tracing package; trace-spanname keys on it too.
var tracePkg = modulePrefix + "/internal/trace"

// nilSafeFamily is one package's handle types whose methods all no-op on nil
// (or on the zero value), making a dereference a latent panic and a defensive
// nil check dead weight. The package that implements a handle may inspect
// nil; everyone else is held to the family's comparison policy.
type nilSafeFamily struct {
	pkg   string
	types []string
	rule  string
	noun  string // what the findings call a handle
	// anyCompare flags every ==/!= nil comparison: a metrics instrument
	// comes from a registry lookup, and nil-checking the registry (not an
	// instrument) is how call sites decide whether metrics are on. Without
	// it only an `if h != nil` whose body is nothing but handle method calls
	// is flagged — nil checks that gate non-recording work (wiring a tracer
	// into a network, skipping lane construction) stay legal.
	anyCompare bool
}

// nilSafeHandles is the one table both nil-safety rules run from.
var nilSafeHandles = []nilSafeFamily{
	{modulePrefix + "/internal/metrics", []string{"Counter", "Gauge", "Histogram"}, "metrics-nilsafe", "instrument", true},
	{tracePkg, []string{"Tracer", "Span"}, "trace-nilsafe", "recorder", false},
	{modulePrefix + "/internal/obs", []string{"Logger", "Ledger"}, "trace-nilsafe", "recorder", false},
}

func runNilsafe(pkg *Package, rule string) []Finding {
	info := pkg.Info
	// handle resolves an expression to its family and "pkg.Type" spelling
	// when its type (possibly behind a pointer) is one of rule's handles.
	handle := func(e ast.Expr) (*nilSafeFamily, string) {
		n := recvNamed(info.TypeOf(e))
		if n == nil || n.Obj().Pkg() == nil {
			return nil, ""
		}
		for i := range nilSafeHandles {
			h := &nilSafeHandles[i]
			if h.rule != rule || h.pkg != n.Obj().Pkg().Path() || h.pkg == pkg.ScopePath() {
				continue
			}
			for _, t := range h.types {
				if t == n.Obj().Name() {
					return h, path.Base(h.pkg) + "." + t
				}
			}
		}
		return nil, ""
	}
	// handleCall reports whether e is a method call on one of rule's
	// handles — a call that is already nil-safe and needs no guard.
	handleCall := func(e ast.Expr) bool {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		h, _ := handle(sel.X)
		return h != nil
	}
	// onlyHandleCalls reports whether every statement of a guarded block is
	// such a call (possibly deferred or assigned, as in
	// `sp := tr.StartSpan(...)`).
	onlyHandleCalls := func(body *ast.BlockStmt) bool {
		for _, st := range body.List {
			switch s := st.(type) {
			case *ast.ExprStmt:
				if !handleCall(s.X) {
					return false
				}
			case *ast.DeferStmt:
				if !handleCall(s.Call) {
					return false
				}
			case *ast.AssignStmt:
				for _, rhs := range s.Rhs {
					if !handleCall(rhs) {
						return false
					}
				}
			default:
				return false
			}
		}
		return len(body.List) > 0
	}
	// nilCompared returns the non-nil operand of an ==/!= nil comparison.
	nilCompared := func(e ast.Expr) (ast.Expr, token.Token) {
		cmp, ok := e.(*ast.BinaryExpr)
		if !ok || (cmp.Op != token.EQL && cmp.Op != token.NEQ) {
			return nil, 0
		}
		switch {
		case isNil(info, cmp.X):
			return cmp.Y, cmp.Op
		case isNil(info, cmp.Y):
			return cmp.X, cmp.Op
		}
		return nil, 0
	}

	var findings []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				other, _ := nilCompared(x)
				if other == nil {
					return true
				}
				if h, name := handle(other); h != nil && h.anyCompare {
					findings = append(findings, report(pkg, x, rule,
						"nil comparison of "+name+"; "+h.noun+" methods are nil-safe, call them unconditionally"))
				}
			case *ast.IfStmt:
				other, op := nilCompared(x.Cond)
				if other == nil || op != token.NEQ {
					return true
				}
				if h, name := handle(other); h != nil && !h.anyCompare && onlyHandleCalls(x.Body) {
					findings = append(findings, report(pkg, x, rule,
						"nil guard around "+name+" recording; "+h.noun+" methods are nil-safe, call them unconditionally"))
				}
			case *ast.StarExpr:
				// A StarExpr in value position is a dereference; in type
				// position it is pointer syntax — the latter has IsType set.
				if tv, ok := info.Types[x]; ok && tv.IsType() {
					return true
				}
				if h, name := handle(x.X); h != nil {
					findings = append(findings, report(pkg, x, rule,
						"dereference of "+name+"; a nil "+h.noun+" would panic — use its methods instead"))
				}
			}
			return true
		})
	}
	return findings
}

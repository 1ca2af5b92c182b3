package lint

import (
	"go/ast"
	"go/types"
)

var analyzerLockSafe = &Analyzer{
	Name: "locksafe",
	Doc:  "no channel send, network write, or callback invocation while a sync.Mutex/RWMutex is held",
	Run:  runLockSafe,
}

// wirePkg is the framing package; calling into it performs a network write.
var wirePkg = modulePrefix + "/internal/wire"

// netBlockingMethods are net-connection methods that touch the socket.
var netBlockingMethods = map[string]bool{
	"Write": true, "Read": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
}

func runLockSafe(pkg *Package) []Finding {
	var findings []Finding
	forEachFunc(pkg, func(body *ast.BlockStmt) {
		ls := &lockScan{pkg: pkg}
		ls.block(body, map[string]bool{})
		findings = append(findings, ls.findings...)
	})
	return findings
}

// lockScan walks one function body linearly, tracking which mutexes are held.
// Nested blocks receive a copy of the held set, so an early unlock+return
// branch does not leak its release into the fallthrough path. deferred
// unlocks keep the lock held to function end by design. Acquiring a mutex
// while a different one is held is itself a finding: no function in the tree
// nests locks, which is why there is no acquisition order to police. The scan
// is per function — a callee that locks under its caller's lock is not seen
// (go test -race is the dynamic check; DESIGN.md §10).
type lockScan struct {
	pkg      *Package
	findings []Finding
}

func (ls *lockScan) block(b *ast.BlockStmt, held map[string]bool) {
	for _, stmt := range b.List {
		ls.stmt(stmt, held)
	}
}

// copyHeld clones the held set for a nested scope.
func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func (ls *lockScan) stmt(stmt ast.Stmt, held map[string]bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, isLock, locks := ls.lockOp(call); isLock {
				if locks {
					delete(held, key)
					if other := anyKey(held); other != "" {
						ls.findings = append(ls.findings, report(ls.pkg, call, "locksafe",
							key+" acquired while "+other+" is held; take one mutex at a time, so there is no lock order to get wrong"))
					}
					held[key] = true
				} else {
					delete(held, key)
				}
				return
			}
		}
		ls.check(s, held)
	case *ast.DeferStmt:
		if key, isLock, locks := ls.lockOp(s.Call); isLock && !locks {
			// defer mu.Unlock(): the lock is held for the rest of the
			// function, which is exactly what the held set already says.
			_ = key
			return
		}
		ls.check(s, held)
	case *ast.BlockStmt:
		ls.block(s, copyHeld(held))
	case *ast.IfStmt:
		if s.Init != nil {
			ls.stmt(s.Init, held)
		}
		ls.check(s.Cond, held)
		ls.block(s.Body, copyHeld(held))
		if s.Else != nil {
			ls.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			ls.stmt(s.Init, held)
		}
		if s.Cond != nil {
			ls.check(s.Cond, held)
		}
		inner := copyHeld(held)
		if s.Post != nil {
			ls.stmt(s.Post, inner)
		}
		ls.block(s.Body, inner)
	case *ast.RangeStmt:
		ls.check(s.X, held)
		ls.block(s.Body, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			ls.stmt(s.Init, held)
		}
		if s.Tag != nil {
			ls.check(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				inner := copyHeld(held)
				for _, st := range cc.Body {
					ls.stmt(st, inner)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			ls.stmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				inner := copyHeld(held)
				for _, st := range cc.Body {
					ls.stmt(st, inner)
				}
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				inner := copyHeld(held)
				if cc.Comm != nil {
					ls.stmt(cc.Comm, inner)
				}
				for _, st := range cc.Body {
					ls.stmt(st, inner)
				}
			}
		}
	case *ast.LabeledStmt:
		ls.stmt(s.Stmt, held)
	default:
		ls.check(stmt, held)
	}
}

// lockOp classifies a call as a sync lock/unlock operation. It returns the
// lock key (the receiver expression, textually), whether the call is a lock
// operation at all, and whether it acquires (true) or releases (false).
func (ls *lockScan) lockOp(call *ast.CallExpr) (key string, isLock, locks bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	obj := calleeObject(ls.pkg.Info, call)
	if objectPkgPath(obj) != "sync" {
		return "", false, false
	}
	switch obj.Name() {
	case "Lock", "RLock":
		return types.ExprString(sel.X), true, true
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), true, false
	}
	return "", false, false
}

// check scans a statement or expression for blocking operations, reporting
// each one found while any lock is held. Function literals are skipped: they
// execute later, not under this lock (and are scanned as functions in their
// own right).
func (ls *lockScan) check(node ast.Node, held map[string]bool) {
	if len(held) == 0 {
		return
	}
	lock := anyKey(held)
	ast.Inspect(node, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			ls.findings = append(ls.findings, report(ls.pkg, x, "locksafe",
				"channel send while "+lock+" is held; release the lock before handing off"))
		case *ast.CallExpr:
			ls.checkCall(x, lock)
		}
		return true
	})
}

func (ls *lockScan) checkCall(call *ast.CallExpr, lock string) {
	obj := calleeObject(ls.pkg.Info, call)
	if obj == nil {
		return
	}
	// Network write: any call into the wire framing package, or a blocking
	// method on a net connection.
	if objectPkgPath(obj) == wirePkg {
		ls.findings = append(ls.findings, report(ls.pkg, call, "locksafe",
			"wire."+obj.Name()+" (network write) while "+lock+" is held; copy under the lock, write outside it"))
		return
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, sok := fn.Type().(*types.Signature); sok && sig.Recv() != nil {
			if objectPkgPath(obj) == "net" && netBlockingMethods[fn.Name()] {
				ls.findings = append(ls.findings, report(ls.pkg, call, "locksafe",
					"net connection "+fn.Name()+" while "+lock+" is held; release the lock around socket I/O"))
			}
			return
		}
	}
	// Callback invocation: calling through a function-typed variable (field,
	// parameter, or local) runs arbitrary subscriber code under the lock.
	if v, ok := obj.(*types.Var); ok {
		if _, isSig := v.Type().Underlying().(*types.Signature); isSig {
			ls.findings = append(ls.findings, report(ls.pkg, call, "locksafe",
				"callback "+v.Name()+" invoked while "+lock+" is held; snapshot state and invoke after unlocking"))
		}
	}
}

// anyKey returns one held-lock name for the message, smallest first so the
// report is deterministic.
func anyKey(held map[string]bool) string {
	best := ""
	for k := range held {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// nodeterminismScope lists the packages whose results must be reproducible
// from a seed: the simulators, block production (a sim.Handler whose block
// schedule is what the Appendix-C twin worlds compare), the measurement core,
// the measurement strategies built on it, topology generation, the pool model
// the simulator drives, the gossip rules the simulator shares with the live
// node (whose clock is injected), the worker pool that runs independent
// simulations concurrently, the topology tracker (whose probe schedule must
// replay identically from a checkpoint), the observability layer (whose
// event-log snapshots and cost ledgers must byte-compare equal across
// same-seed runs at any parallelism — timestamps come from injected virtual
// clocks, never the wall), and the experiment drivers with the mainnet
// scenario they lay out (experiments.World's Build order is the engine's draw
// order).
var nodeterminismScope = []string{
	modulePrefix + "/internal/sim",
	modulePrefix + "/internal/ethsim",
	modulePrefix + "/internal/chain",
	modulePrefix + "/internal/core",
	modulePrefix + "/internal/strategy",
	modulePrefix + "/internal/netgen",
	modulePrefix + "/internal/txpool",
	modulePrefix + "/internal/gossip",
	modulePrefix + "/internal/runner",
	modulePrefix + "/internal/tracker",
	modulePrefix + "/internal/obs",
	modulePrefix + "/internal/experiments",
	modulePrefix + "/internal/mainnet",
}

// timeBanned are time-package functions that read the wall clock or real
// timers. Simulation code must take time from the engine's virtual clock.
var timeBanned = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
	"Sleep": true,
}

// randAllowed are math/rand package-level functions that construct seeded
// sources rather than drawing from the global (racily seeded) source.
var randAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// heapBanScope are the hot-path packages where container/heap is banned in
// non-test code: event scheduling and message delivery run on the engine's
// time wheel and its inline-key far heap (DESIGN.md §8) and the mempool's
// eviction indexes on its typed entry heap (DESIGN.md §15); container/heap's
// interface dispatch and boxing reintroduce the per-event and per-admission
// costs those overhauls removed. Test files may still use it — the queue and pool-heap
// fuzzers pin layouts against a container/heap reference.
var heapBanScope = []string{
	modulePrefix + "/internal/sim",
	modulePrefix + "/internal/ethsim",
	modulePrefix + "/internal/txpool",
}

var analyzerNoDeterminism = &Analyzer{
	Name: "nodeterminism",
	Doc:  "simulation packages must be seed-reproducible: no wall clock, no global math/rand, no map-iteration-order-dependent results, no container/heap or map iteration on the scheduling/delivery/admission hot path",
	Run:  runNoDeterminism,
}

func runNoDeterminism(pkg *Package) []Finding {
	findings := hotPathFindings(pkg)
	if !pathIn(pkg.ScopePath(), nodeterminismScope...) {
		return findings
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObject(pkg.Info, call)
			switch objectPkgPath(obj) {
			case "time":
				if timeBanned[obj.Name()] {
					findings = append(findings, report(pkg, call, "nodeterminism",
						"call to time."+obj.Name()+" in a simulation package; take time from the engine's virtual clock"))
				}
			case "math/rand", "math/rand/v2":
				// Methods on *rand.Rand carry a receiver and are fine; only
				// package-level draws hit the shared global source.
				if fn, isFn := obj.(*types.Func); isFn {
					if sig, sok := fn.Type().(*types.Signature); sok && sig.Recv() == nil && !randAllowed[obj.Name()] {
						findings = append(findings, report(pkg, call, "nodeterminism",
							"global math/rand."+obj.Name()+" in a simulation package; use a seeded rand.New(rand.NewSource(...))"))
					}
				}
			}
			return true
		})
	}
	return append(findings, mapOrderFindings(pkg)...)
}

// hotPathFindings enforces the hot-path rules, in any package: no
// container/heap import in a heapBanScope package, and no map iteration
// inside a function carrying //toposhot:hotpath or anywhere in internal/sim
// (the whole package is scheduler hot path, so new engine code is covered
// before anyone marks it). Unlike mapOrderFindings — which only flags
// order-dependent writes — any map range here is banned outright: hot paths
// iterate slices held in deterministic order, and a map walk both leaks
// iteration order and costs a hash-table scan per event. Test files are
// exempt — the fuzzers deliberately pin heap behaviour against a
// container/heap reference.
func hotPathFindings(pkg *Package) []Finding {
	var findings []Finding
	if pathIn(pkg.ScopePath(), heapBanScope...) {
		heapAdvice := "use the engine's time wheel and inline-key far heap (DESIGN.md §8)"
		if pathIn(pkg.ScopePath(), modulePrefix+"/internal/txpool") {
			heapAdvice = "use the pool's typed entry heap (DESIGN.md §15)"
		}
		for _, file := range pkg.Files {
			if pkg.IsTestFile(file) {
				continue
			}
			for _, imp := range file.Imports {
				if strings.Trim(imp.Path.Value, `"`) == "container/heap" {
					findings = append(findings, report(pkg, imp, "nodeterminism",
						"container/heap in a hot-path package; "+heapAdvice))
				}
			}
		}
	}
	for _, fn := range hotPathFuncs(pkg, pathIn(pkg.ScopePath(), modulePrefix+"/internal/sim")) {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if rng := mapRange(pkg.Info, n); rng != nil {
				findings = append(findings, report(pkg, rng, "nodeterminism",
					"map iteration in hot-path function "+fn.Name.Name+"; iterate a slice held in deterministic order"))
			}
			return true
		})
	}
	return findings
}

// mapRange returns n as a range statement over a map, or nil.
func mapRange(info *types.Info, n ast.Node) *ast.RangeStmt {
	rng, ok := n.(*ast.RangeStmt)
	if !ok {
		return nil
	}
	if tv, ok := info.Types[rng.X]; ok {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			return rng
		}
	}
	return nil
}

// mapOrderFindings flags loops whose results depend on map iteration order:
// within a `for ... range m` over a map, (a) appending to a slice declared
// outside the loop that is never handed to the sort package in the enclosing
// function, and (b) accumulating floating-point sums (addition over map order
// is not associative in floating point).
func mapOrderFindings(pkg *Package) []Finding {
	var findings []Finding
	forEachFunc(pkg, func(body *ast.BlockStmt) {
		sorted := sortedObjects(pkg.Info, body)
		ast.Inspect(body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false // visited standalone by forEachFunc
			}
			if rng := mapRange(pkg.Info, n); rng != nil {
				findings = append(findings, checkMapRangeBody(pkg, rng, sorted)...)
			}
			return true
		})
	})
	return findings
}

// forEachFunc visits every function body in the package: declarations and
// function literals, each exactly once (literals are visited standalone, so
// callers must not descend into them again).
func forEachFunc(pkg *Package, visit func(body *ast.BlockStmt)) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					visit(fn.Body)
				}
			case *ast.FuncLit:
				visit(fn.Body)
			}
			return true
		})
	}
}

// sortedObjects collects the variables that appear in arguments to any
// sort-package call within the function body. A slice built in map order but
// sorted before use is deterministic, so appends into these are not flagged.
func sortedObjects(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObject(info, call)
		if objectPkgPath(obj) != "sort" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, isID := a.(*ast.Ident); isID {
					if v, isVar := info.Uses[id].(*types.Var); isVar {
						out[v] = true
					}
				}
				return true
			})
		}
		return true
	})
	return out
}

// checkMapRangeBody scans one map-range body for order-dependent writes.
func checkMapRangeBody(pkg *Package, rng *ast.RangeStmt, sorted map[types.Object]bool) []Finding {
	var findings []Finding
	info := pkg.Info
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // analyzed as its own function
		}
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		// Float accumulation: sum += v or sum = sum + v with a float type.
		if asg.Tok == token.ADD_ASSIGN && len(asg.Lhs) == 1 {
			if tv, tok := info.Types[asg.Lhs[0]]; tok && isFloat(tv.Type) {
				findings = append(findings, report(pkg, asg, "nodeterminism",
					"floating-point accumulation over map iteration order; iterate a sorted copy of the keys"))
				return true
			}
		}
		// append into a variable that is never sorted afterwards.
		for i, rhs := range asg.Rhs {
			if len(asg.Lhs) != len(asg.Rhs) {
				break
			}
			call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
			if !isCall {
				continue
			}
			if id, isID := ast.Unparen(call.Fun).(*ast.Ident); !isID || info.Uses[id] != types.Universe.Lookup("append") {
				continue
			}
			id, isID := ast.Unparen(asg.Lhs[i]).(*ast.Ident)
			if !isID {
				continue
			}
			v, isVar := info.Uses[id].(*types.Var)
			if !isVar && info.Defs[id] != nil {
				v, isVar = info.Defs[id].(*types.Var)
			}
			if !isVar || sorted[v] || declaredWithin(info, v, rng.Body) {
				continue
			}
			findings = append(findings, report(pkg, asg, "nodeterminism",
				"append to "+id.Name+" in map iteration order without a subsequent sort; sort the keys or the result"))
		}
		return true
	})
	return findings
}

// declaredWithin reports whether v's declaration position falls inside the
// given block — a loop-local slice reset each iteration carries no cross-
// iteration order dependence.
func declaredWithin(info *types.Info, v *types.Var, block *ast.BlockStmt) bool {
	return v.Pos() >= block.Pos() && v.Pos() <= block.End()
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

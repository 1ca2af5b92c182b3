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
// the simulator drives, the worker pool that runs independent simulations
// concurrently, the topology tracker (whose probe schedule must replay
// identically from a checkpoint), and the observability layer (whose
// event-log snapshots and cost ledgers must byte-compare equal across
// same-seed runs at any parallelism — timestamps come from injected virtual
// clocks, never the wall).
var nodeterminismScope = []string{
	modulePrefix + "/internal/sim",
	modulePrefix + "/internal/ethsim",
	modulePrefix + "/internal/chain",
	modulePrefix + "/internal/core",
	modulePrefix + "/internal/strategy",
	modulePrefix + "/internal/netgen",
	modulePrefix + "/internal/txpool",
	modulePrefix + "/internal/runner",
	modulePrefix + "/internal/tracker",
	modulePrefix + "/internal/obs",
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

// deliveryPathFuncs names the ethsim functions on the per-message delivery
// path, where any map iteration is banned outright — not merely the
// order-leaking writes mapOrderFindings catches. The hot path iterates only
// slices held in deterministic order (peersSorted, lockQ, outQ, pooled
// buffers). pruneDeliveryHorizon and Edges legitimately range over maps and
// are deliberately not listed.
var deliveryPathFuncs = map[string]bool{
	"flush":              true,
	"deliverTxs":         true,
	"deliverBatch":       true,
	"receiveTx":          true,
	"relay":              true,
	"deliverAnnounce":    true,
	"deliverRequest":     true,
	"propagate":          true,
	"sweepAnnounceLocks": true,
	"HandleEvent":        true,
	"handleMsg":          true,
	"route":              true,
	"routeVia":           true,
	"TickPools":          true,
	// The flush's shared payload (DESIGN.md §8): taken once per flush,
	// released once per delivered message.
	"takeBatch":    true,
	"releaseBatch": true,
	"addressedTo":  true,
	// SoA accessors (DESIGN.md §12): per-message adjacency-arena lookups.
	"peersSeg":           true,
	"marksSeg":           true,
	"peerPos":            true,
	"appendPropagatable": true,
}

// poolPathFuncs names the txpool functions on the per-admission path, under
// the same outright map-iteration ban: a sender's entries live in a
// nonce-ordered slice precisely so that stale drops and demotions happen in
// ascending nonce order, not Go's map order (which used to leak into heap
// layouts and checkpoint bytes). Every repartition* function is covered by
// prefix. Pending, Content, Snapshot and RemoveConfirmed legitimately range
// over maps (collect, then sort) and are deliberately not listed.
var poolPathFuncs = map[string]bool{
	"offer": true, "insert": true, "remove": true,
	"link": true, "unlink": true, "insertAt": true, "removeAt": true,
	"SetTime": true, "SetStateNonce": true,
}

// hotPathFunc reports whether the named function of a heapBanScope package
// is on its hot path: everything in internal/sim, the delivery path in
// ethsim, the admission path in txpool.
func hotPathFunc(scopePath, name string) bool {
	switch {
	case pathIn(scopePath, modulePrefix+"/internal/sim"):
		return true
	case pathIn(scopePath, modulePrefix+"/internal/txpool"):
		return poolPathFuncs[name] || strings.HasPrefix(name, "repartition")
	default:
		return deliveryPathFuncs[name]
	}
}

// tickPathScope are the packages owning the O(Δ) incremental tick path:
// graph.Dynamic's apply/maintenance helpers and the tracker's planner. The
// named tickPathFuncs run once per tracked change on every tracker tick, so
// they carry the same map-iteration and allocation bans as the engine's
// delivery path (DESIGN.md §13).
var tickPathScope = []string{
	modulePrefix + "/internal/graph",
	modulePrefix + "/internal/tracker",
}

// tickPathFuncs names the graph.Dynamic and tracker methods on the per-tick
// incremental path. dynRebuild is deliberately not listed: it is the
// O(V+E) fallback taken only when an edge removal disconnects a component,
// and it trades allocations for not running on the steady-state path.
var tickPathFuncs = map[string]bool{
	// graph.Dynamic maintenance.
	"dynAdjPos": true, "dynAdjInsert": true, "dynAdjRemove": true,
	"dynNbrDegSum": true, "dynCommonAdjust": true, "dynDegShift": true,
	"dynApplyAdd": true, "dynApplyRemove": true,
	"dynFind": true, "dynUnion": true, "dynReach": true,
	// tracker planning and verdict application.
	"trkPlan": true, "trkMarkUrgent": true, "trkApply": true,
}

var analyzerNoDeterminism = &Analyzer{
	Name: "nodeterminism",
	Doc:  "simulation packages must be seed-reproducible: no wall clock, no global math/rand, no map-iteration-order-dependent results, no container/heap or map iteration on the scheduling/delivery/admission hot path",
	Run:  runNoDeterminism,
}

func runNoDeterminism(pkg *Package) []Finding {
	var findings []Finding
	findings = append(findings, tickPathFindings(pkg)...)
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
	findings = append(findings, mapOrderFindings(pkg)...)
	findings = append(findings, hotPathFindings(pkg)...)
	return findings
}

// hotPathFindings enforces the hot-path rules in heapBanScope packages:
// no container/heap anywhere, and no map iteration inside internal/sim
// (the whole package is scheduler hot path), inside the named ethsim
// delivery-path functions, or inside the named txpool admission-path
// functions. Test files are exempt — test code never runs on the hot path,
// and the fuzzers deliberately pin heap behaviour against a container/heap
// reference.
func hotPathFindings(pkg *Package) []Finding {
	if !pathIn(pkg.ScopePath(), heapBanScope...) {
		return nil
	}
	heapAdvice := "use the engine's time wheel and inline-key far heap (DESIGN.md §8)"
	rangeAdvice := "scheduling/delivery code iterates slices in deterministic order"
	if pathIn(pkg.ScopePath(), modulePrefix+"/internal/txpool") {
		heapAdvice = "use the pool's typed entry heap (DESIGN.md §15)"
		rangeAdvice = "admission code walks the sender's nonce-ordered slice (DESIGN.md §15)"
	}
	var findings []Finding
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
	for _, file := range pkg.Files {
		if pkg.IsTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !hotPathFunc(pkg.ScopePath(), fn.Name.Name) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pkg.Info.Types[rng.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					findings = append(findings, report(pkg, rng, "nodeterminism",
						"map iteration in hot-path function "+fn.Name.Name+"; "+rangeAdvice))
				}
				return true
			})
		}
	}
	return findings
}

// tickPathFindings enforces the map-iteration ban inside the named O(Δ)
// tick-path functions of the graph and tracker packages. Unlike
// mapOrderFindings — which only flags order-dependent writes — any map range
// here is banned outright: the incremental maintenance path iterates sorted
// adjacency slices and staleness buckets, and a map walk both leaks iteration
// order into the belief schedule and defeats the O(Δ) bound. Test files are
// exempt; batch/fallback helpers (dynRebuild, Snapshot) are deliberately
// outside tickPathFuncs.
func tickPathFindings(pkg *Package) []Finding {
	if !pathIn(pkg.ScopePath(), tickPathScope...) {
		return nil
	}
	var findings []Finding
	for _, file := range pkg.Files {
		if pkg.IsTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !tickPathFuncs[fn.Name.Name] {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pkg.Info.Types[rng.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					findings = append(findings, report(pkg, rng, "nodeterminism",
						"map iteration in tick-path function "+fn.Name.Name+"; O(Δ) maintenance iterates adjacency slices and staleness buckets in deterministic order (DESIGN.md §13)"))
				}
				return true
			})
		}
	}
	return findings
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
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pkg.Info.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			findings = append(findings, checkMapRangeBody(pkg, rng, sorted)...)
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

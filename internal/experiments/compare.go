package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"toposhot/internal/core"
	"toposhot/internal/ethsim"
	"toposhot/internal/netgen"
	"toposhot/internal/obs"
	"toposhot/internal/runner"
	"toposhot/internal/strategy"
	"toposhot/internal/trace"
	"toposhot/internal/types"
)

// edgePairs and nonEdgePairs size the head-to-head's shared probe list.
const edgePairs, nonEdgePairs = 10, 10

// CompareConfig sizes the four-method strategy head-to-head.
type CompareConfig struct {
	// Nodes is the goerli-preset replica size.
	Nodes int
	// Strategy carries per-method tuning.
	Strategy strategy.Config
}

// DefaultCompareConfig is the cmd/experiments entry's configuration.
func DefaultCompareConfig() CompareConfig {
	return CompareConfig{
		Nodes: 48,
		// Ethna's push-ratio inversion flattens as degree grows (⌈√d⌉/d ≈
		// 1/√d), so the goerli-preset replica gets a larger sample budget
		// than Ethna's small-network default.
		Strategy: strategy.Config{Params: World{PoolScale: poolScale}.Params(), EthnaSamples: 64},
	}
}

// CompareRow is one method's campaign outcome on its replica.
type CompareRow struct {
	Method         strategy.Method
	Pairs          int
	Score          core.Score
	Cost           obs.CostTotals
	VirtualSeconds float64
	Note           string
}

// comparePairs picks the shared probe list — edgePairs true links and
// nonEdgePairs non-links — from a dedicated seed-derived stream, so every
// replica computes the identical list regardless of how its own engine RNG
// has advanced.
func comparePairs(seed int64, truth *core.EdgeSet,
	inst *netgen.Instantiated, superID types.NodeID) [][2]types.NodeID {
	rng := rand.New(rand.NewSource(seed ^ 0x636f6d70617265))
	var candidates [][2]types.NodeID
	for _, e := range truth.Edges() {
		if e[0] != superID && e[1] != superID {
			candidates = append(candidates, e)
		}
	}
	picked := core.NewEdgeSet()
	var pairs [][2]types.NodeID
	for attempts := 0; picked.Len() < edgePairs && attempts < 50*edgePairs && len(candidates) > 0; attempts++ {
		e := candidates[rng.Intn(len(candidates))]
		if !picked.Has(e[0], e[1]) {
			picked.Add(e[0], e[1])
			pairs = append(pairs, e)
		}
	}
	want := picked.Len() + nonEdgePairs
	for attempts := 0; picked.Len() < want && attempts < 50*nonEdgePairs; attempts++ {
		a := inst.IDs[rng.Intn(len(inst.IDs))]
		b := inst.IDs[rng.Intn(len(inst.IDs))]
		if a == b || truth.Has(a, b) || picked.Has(a, b) {
			continue
		}
		picked.Add(a, b)
		pairs = append(pairs, [2]types.NodeID{a, b})
	}
	return pairs
}

// compareReplica builds one method's replica with its traffic running, its
// ground truth and the shared probe list. Every method gets its own
// same-seed goerli-preset replica, so the four campaigns probe identical
// topologies, identical workloads, and identical virtual clocks without
// sharing pools.
func compareReplica(seed int64, cfg CompareConfig, lane *trace.Tracer) (*Built, *core.EdgeSet, [][2]types.NodeID) {
	g := netgen.Grow(netgen.GoerliConfig.WithSeed(seed).WithN(cfg.Nodes))
	replica := testnet(seed, g, netgen.Uniform(), poolScale, 350)
	replica.Lane = lane
	world := replica.Build()
	world.StartTraffic()
	truth := core.EdgeSetOf(world.Net.Edges())
	return world, truth, comparePairs(seed, truth, world.Inst, world.Super.ID())
}

// Compare runs TopoShot, DEthna, TxProbe, and Ethna head-to-head: four
// same-seed goerli-preset replicas, one shared probe list, one row per
// method with accuracy, probe cost, and virtual time. The rows are
// byte-identical at any runner-pool width because each method's replica is
// an independent simulation.
func Compare(seed int64, cfg CompareConfig) ([]CompareRow, error) {
	ms := strategy.Methods()
	lanes := sweepLanes("compare", len(ms))
	scopes := obsScopes("compare", len(ms))
	type res struct {
		row CompareRow
		err error
	}
	results := runner.MapWorker(len(ms), func(w, i int) res {
		sp := rowSpan(lanes[i], i, w, int64(i))
		defer sp.End()
		world, truth, pairs := compareReplica(seed, cfg, lanes[i])
		net, super := world.Net, world.Super
		s, err := strategy.NewMethod(ms[i], net, super, cfg.Strategy)
		if err != nil {
			return res{err: err}
		}
		out, err := strategy.RunPairs(lanes[i], scopes[i], net, s, pairs)
		if err != nil {
			return res{err: fmt.Errorf("%s: %w", ms[i], err)}
		}
		row := CompareRow{
			Method: ms[i], Pairs: len(pairs), Score: out.Score(truth),
			Cost: out.Ledger.Totals(), VirtualSeconds: out.VirtualSeconds,
		}
		switch ms[i] {
		case strategy.MethodTopoShot:
			row.Note = "replacement isolation"
		case strategy.MethodDEthna:
			row.Note = "timing attribution, no eviction"
		case strategy.MethodTxProbe:
			row.Note = "marker floods under account model (App. A)"
		case strategy.MethodEthna:
			row.Note = fmt.Sprintf("degree MAE %.2f; links via Chung-Lu bound",
				degreeMAE(net, super, s.(*strategy.Ethna).Degrees()))
		}
		return res{row: row}
	})
	rows := make([]CompareRow, 0, len(results))
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		rows = append(rows, r.row)
	}
	return rows, nil
}

// degreeMAE scores Ethna's fitted degrees against the replica's ground
// truth, excluding each node's supernode link: the mean absolute error over
// the estimated nodes, 0 when nothing was estimated.
func degreeMAE(net *ethsim.Network, super *ethsim.Supernode, est map[types.NodeID]int) float64 {
	sum, n := 0, 0
	for _, nd := range net.Nodes() {
		d, ok := est[nd.ID()]
		if !ok {
			continue
		}
		truth := nd.Degree()
		if net.Connected(nd.ID(), super.ID()) {
			truth--
		}
		sum += max(d-truth, truth-d)
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// FormatCompare renders the head-to-head table.
func FormatCompare(rows []CompareRow) string {
	var b strings.Builder
	b.WriteString("Strategy head-to-head — identical goerli-preset replicas\n")
	fmt.Fprintf(&b, "  %-9s %5s %4s %4s %4s %10s %8s %8s %8s %9s\n",
		"method", "pairs", "TP", "FP", "FN", "precision", "recall", "pending", "futures", "virtual")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-9s %5d %4d %4d %4d %9.1f%% %7.1f%% %8d %8d %8.1fm  %s\n",
			r.Method, r.Pairs,
			r.Score.TruePositives, r.Score.FalsePositives, r.Score.FalseNegatives,
			100*r.Score.Precision(), 100*r.Score.Recall(),
			r.Cost.Pending, r.Cost.Futures, r.VirtualSeconds/60, r.Note)
	}
	b.WriteString("  TxProbe's false positives are the account-model collapse (Appendix A);\n")
	b.WriteString("  TopoShot pays its probe cost in evictable futures and stays exact.\n")
	return b.String()
}

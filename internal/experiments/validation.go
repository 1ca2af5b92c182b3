package experiments

import (
	"fmt"
	"strings"

	"toposhot/internal/core"
	"toposhot/internal/ethsim"
	"toposhot/internal/netgen"
	"toposhot/internal/runner"
	"toposhot/internal/trace"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// validationNet is the §6.1 validation environment: a Ropsten-like testnet
// world with a freshly-joined observation node B′ peered with many nodes, and
// a measurer matched to its scaled pools.
type validationNet struct {
	*Built
	m      *core.Measurer
	bPrime *ethsim.Node
	// neighbors are B′'s true peers (the measurable population).
	neighbors []types.NodeID
}

// newValidationNet builds the validation environment over an n-node Ropsten
// graph on the lat profile, with B′ joined to bPrimePeers peers. lane, when
// non-nil, is the sweep row's trace lane, so parallel rows record onto
// disjoint, deterministic tracks.
func newValidationNet(seed int64, n int, het netgen.Heterogeneity, lat Latency, bPrimePeers int, lane *trace.Tracer) *validationNet {
	v := &validationNet{}
	// Prefill stays below pool capacity so the estimated Y is genuinely
	// mid-market ("low enough not to be included next block", §5.2.1).
	w := testnet(seed, netgen.Grow(netgen.RopstenConfig.WithSeed(seed).WithN(n)), het, poolScale, 350)
	w.Latency, w.Lane = lat, lane
	// B′: a local node under our control, joined to bPrimePeers peers.
	w.Join = func(b *Built) {
		v.bPrime = b.Net.AddNode(ethsim.NodeConfig{Policy: b.World.policy(txpool.Geth), MaxPeers: 1 << 16})
		rng := b.Net.Engine().Rand()
		for v.bPrime.Degree() < bPrimePeers && v.bPrime.Degree() < len(b.Inst.IDs) {
			id := b.Inst.IDs[rng.Intn(len(b.Inst.IDs))]
			if id != v.bPrime.ID() {
				_ = b.Net.Connect(v.bPrime.ID(), id)
			}
		}
	}
	v.Built = w.Build()
	v.StartTraffic()
	v.m = v.Measurer(w.Params())
	v.neighbors = v.bPrime.Peers()
	return v
}

// measurableNeighbors filters B′'s peers to spec-conforming Geth nodes, the
// way the paper restricts its validation to the 471 Geth peers.
func (v *validationNet) measurableNeighbors() []types.NodeID {
	pre := v.m.Preprocess(v.neighbors)
	var out []types.NodeID
	for _, id := range pre.EligibleNodes(v.neighbors) {
		if id == v.Super.ID() {
			continue
		}
		out = append(out, id)
	}
	return out
}

// Fig4aRow is one point of the recall-vs-futures curve.
type Fig4aRow struct {
	Z      int
	Recall float64
	Tested int
}

// Fig4a reproduces Figure 4a: measure the links between B′ and each of its
// true neighbors with the serial primitive while sweeping the number of
// future transactions Z. Recall rises with Z as nodes with enlarged
// mempools come into range, and plateaus below 100% because of
// non-forwarding nodes (the paper's 84%→97% shape, at 1/10 scale).
//
// Each Z runs against its own same-seed replica of the validation net, so
// the rows are independent simulations: every point of the curve starts
// from the identical topology and mempool state instead of inheriting the
// residue of lower-Z sweeps, and the sweep fans out across the runner pool.
func Fig4a(seed int64) []Fig4aRow {
	return fig4a(seed, []int{512, 576, 640, 704, 768, 832, 896, 960})
}

// fig4a is Fig4a over the given future counts.
func fig4a(seed int64, zs []int) []Fig4aRow {
	het := netgen.Heterogeneity{
		CustomPoolFraction:  0.14,
		CustomPoolFactorMin: 1.1,
		CustomPoolFactorMax: 1.85,
		NoForwardFraction:   0.03,
	}
	lanes := sweepLanes("fig4a", len(zs))
	return runner.MapWorker(len(zs), func(w, i int) Fig4aRow {
		v := newValidationNet(seed, 150, het, publicLatency, 60, lanes[i])
		sp := rowSpan(lanes[i], i, w, int64(zs[i]))
		defer sp.End()
		targets := v.measurableNeighbors()
		p := v.m.Params()
		p.Z = zs[i]
		v.m.SetParams(p)
		detected := 0
		for _, a := range targets {
			// Two attempts unioned (§5.2.3's passive heuristic), spaced past
			// the mempool drain so the second run sees fresh pool state.
			ok, err := v.m.MeasureOneLink(a, v.bPrime.ID())
			if err == nil && !ok {
				v.Net.RunFor(censusExpiry + 10)
				ok, err = v.m.MeasureOneLink(a, v.bPrime.ID())
			}
			if err == nil && ok {
				detected++
			}
		}
		return Fig4aRow{Z: zs[i], Recall: float64(detected) / float64(len(targets)), Tested: len(targets)}
	})
}

// FormatFig4a renders the curve.
func FormatFig4a(rows []Fig4aRow) string {
	var b strings.Builder
	b.WriteString("Figure 4a — recall vs number of future transactions (serial primitive)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  Z=%4d  recall=%5.1f%%  (%d links tested)\n", r.Z, 100*r.Recall, r.Tested)
	}
	return b.String()
}

// Fig4bRow is one point of the parallel group-size sweep.
type Fig4bRow struct {
	GroupSize int
	Precision float64
	Recall    float64
}

// Fig4b reproduces Figure 4b: parallel measurement with q=1 (sink B′) and a
// growing source group p. Small groups behave like the serial primitive;
// large groups interleave per-node setups inside a fixed pacing budget, so
// straggler deliveries interfere and recall decays while precision stays at
// 100% (the paper: 100% through ~29, ~60% at 99).
//
// As in Fig4a, every group size gets a private same-seed replica of the
// validation net: each point starts from identical topology and pool state,
// and the sweep runs concurrently on the runner pool.
func Fig4b(seed int64) []Fig4bRow {
	return fig4b(seed, []int{1, 5, 10, 20, 29, 40, 60, 80, 99})
}

// fig4b is Fig4b over the given source-group sizes.
func fig4b(seed int64, ps []int) []Fig4bRow {
	// Fixed pacing budget: the measurement node paces one whole iteration
	// inside a near-constant window, so per-node slack shrinks as the
	// group grows; once it drops under the straggler spread, setups of
	// consecutive nodes interleave.
	const pacingWindow = 38.0

	lanes := sweepLanes("fig4b", len(ps))
	return runner.MapWorker(len(ps), func(w, i int) Fig4bRow {
		p := ps[i]
		// No miner runs: what caps large groups' recall is straggler
		// interference on the internet profile, never inclusion.
		v := newValidationNet(seed, 170, netgen.Uniform(), internetLatency, 40, lanes[i])
		sp := rowSpan(lanes[i], i, w, int64(p))
		defer sp.End()
		targets := v.measurableNeighbors()
		truth := core.EdgeSetOf(v.Net.Edges())

		sources := make([]types.NodeID, 0, p)
		// True neighbors first (recall targets), then fillers.
		for _, id := range targets {
			if len(sources) < p {
				sources = append(sources, id)
			}
		}
		for _, id := range v.Inst.IDs {
			if len(sources) >= p {
				break
			}
			if id == v.bPrime.ID() || truth.Has(id, v.bPrime.ID()) {
				continue
			}
			seen := false
			for _, s := range sources {
				if s == id {
					seen = true
					break
				}
			}
			if !seen {
				sources = append(sources, id)
			}
		}
		params := v.m.Params()
		params.InterNodeWait = pacingWindow / float64(len(sources)+1)
		v.m.SetParams(params)

		edges := make([]core.Edge, 0, len(sources))
		for _, s := range sources {
			edges = append(edges, core.Edge{Source: s, Sink: v.bPrime.ID()})
		}
		best := core.NewEdgeSet()
		for rep := 0; rep < 3; rep++ {
			res, err := v.m.MeasurePar(edges)
			if err != nil {
				continue
			}
			best.Union(res.Detected)
			// Let the previous run's future transactions drain before the
			// next, as the live tool's spaced repetitions do.
			v.Net.RunFor(censusExpiry + 10)
		}
		measuredTruth := core.NewEdgeSet()
		for _, e := range edges {
			if truth.Has(e.Source, e.Sink) {
				measuredTruth.Add(e.Source, e.Sink)
			}
		}
		sc := core.ScoreAgainst(best, measuredTruth, nil)
		return Fig4bRow{GroupSize: len(sources), Precision: sc.Precision(), Recall: sc.Recall()}
	})
}

// FormatFig4b renders the sweep.
func FormatFig4b(rows []Fig4bRow) string {
	var b strings.Builder
	b.WriteString("Figure 4b — precision/recall vs parallel group size (q=1)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  p=%3d  precision=%5.1f%%  recall=%5.1f%%\n",
			r.GroupSize, 100*r.Precision, 100*r.Recall)
	}
	return b.String()
}

// Fig5Row is one point of the speedup curve.
type Fig5Row struct {
	GroupSize     int
	VirtualHours  float64
	Speedup       float64
	EdgesDetected int
}

// Fig5 reproduces Figure 5: virtual time to measure all pairs of a
// 100-node group under the parallel schedule with growing K, against the
// serial all-pairs baseline (K=1). The paper reports about an order of
// magnitude at K=30.
func Fig5(seed int64) []Fig5Row {
	return fig5(seed, 100, []int{1, 5, 10, 20, 30, 45, 60})
}

// fig5 is Fig5 over a groupN-node group and the given Ks (K=1, the serial
// baseline, first).
func fig5(seed int64, groupN int, ks []int) []Fig5Row {
	// Each K already runs on its own net with a K-derived seed, so the
	// sweep fans out directly; the speedup column needs the K=1 baseline
	// from every row and is filled in serially afterwards.
	type measured struct {
		hours    float64
		detected int
		ok       bool
	}
	lanes, scopes := sweepLanes("fig5", len(ks)), obsScopes("fig5", len(ks))
	res := runner.MapWorker(len(ks), func(w, i int) measured {
		k := ks[i]
		v := newValidationNet(seed+int64(k), groupN+40, netgen.Uniform(), publicLatency, 10, lanes[i])
		v.m.SetObs(scopes[i], nil)
		sp := rowSpan(lanes[i], i, w, int64(k))
		defer sp.End()
		nodes := v.Inst.IDs[:groupN]
		if k == 1 {
			r, err := v.m.MeasureAllPairsSerial(nodes)
			if err != nil {
				return measured{}
			}
			return measured{hours: r.Duration / 3600, detected: r.Detected.Len(), ok: true}
		}
		r, err := v.m.MeasureNetwork(nodes, k, 200)
		if err != nil {
			return measured{}
		}
		return measured{hours: r.Duration / 3600, detected: r.Detected.Len(), ok: true}
	})
	var serialHours float64
	var rows []Fig5Row
	for i, k := range ks {
		if !res[i].ok {
			continue
		}
		if k == 1 {
			serialHours = res[i].hours
		}
		speedup := 1.0
		if res[i].hours > 0 && serialHours > 0 {
			speedup = serialHours / res[i].hours
		}
		rows = append(rows, Fig5Row{GroupSize: k, VirtualHours: res[i].hours, Speedup: speedup, EdgesDetected: res[i].detected})
	}
	return rows
}

// FormatFig5 renders the speedup curve.
func FormatFig5(rows []Fig5Row) string {
	var b strings.Builder
	b.WriteString("Figure 5 — parallel measurement speedup over serial (100-node group)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  K=%-3d  time=%6.2f vh  speedup=%5.1f×  edges=%d\n",
			r.GroupSize, r.VirtualHours, r.Speedup, r.EdgesDetected)
	}
	return b.String()
}

// Fig7Row is one cell of the local mempool-size sweep.
type Fig7Row struct {
	MempoolSize int
	Pending     int
	Recall      float64
}

// Fig7 reproduces Appendix B's local validation (Figure 7): three local
// nodes M, A, B; A's mempool size sweeps 3120..9120 while the network is
// pre-populated with a varying number of pending transactions. Recall is
// 100% exactly when mempoolSize − pending ≤ Z (the futures can still evict
// txC) and 0% otherwise. Full-scale pools — only three nodes.
func Fig7(seed int64) []Fig7Row {
	Ls := []int{3120, 5120, 7120, 9120}
	pendings := []int{1, 1000, 2000, 3000}
	// Every cell derives its trial seeds from (L, pending, rep) alone, so
	// the 16 cells are independent jobs for the pool.
	lanes := sweepLanes("fig7", len(Ls)*len(pendings))
	return runner.MapWorker(len(Ls)*len(pendings), func(w, idx int) Fig7Row {
		L := Ls[idx/len(pendings)]
		pending := pendings[idx%len(pendings)]
		sp := rowSpan(lanes[idx], idx, w, int64(L))
		defer sp.End()
		detected := 0
		const reps = 3
		for rep := 0; rep < reps; rep++ {
			if fig7Once(seed+int64(1000*L+pending+rep), L, pending, lanes[idx]) {
				detected++
			}
		}
		return Fig7Row{MempoolSize: L, Pending: pending, Recall: float64(detected) / reps}
	})
}

// fig7World is one local trial's world: A with a capacity-slot pool peered
// with a full-size B, holding pending prefilled transactions. The paper's
// txO population outprices txC, so once the futures fill the pool the very
// first eviction removes txC.
func fig7World(seed int64, capacity, pending int, lane *trace.Tracer) World {
	return World{Seed: seed, Latency: localLatency, Lane: lane,
		Nodes: []ethsim.NodeConfig{
			{Policy: txpool.Geth.WithCapacity(capacity), MaxPeers: 16},
			{Policy: txpool.Geth, MaxPeers: 16},
		},
		Links:   [][2]int{{0, 1}},
		Traffic: Traffic{PriceLo: types.Gwei, PriceHi: 2 * types.Gwei, Prefill: pending, Settle: 3}}
}

// fig7Once runs one local trial: were A(B) measurable at this pool size?
func fig7Once(seed int64, capacity, pending int, lane *trace.Tracer) bool {
	built := fig7World(seed, capacity, pending, lane).Build()
	built.StartTraffic()
	params := built.World.Params() // full-scale Z = 5120
	params.SettleTime = 4
	params.Y = types.Gwei / 2 // below every txO
	ok, err := built.Measurer(params).MeasureOneLink(built.Inst.IDs[0], built.Inst.IDs[1])
	return err == nil && ok
}

// FormatFig7 renders the sweep.
func FormatFig7(rows []Fig7Row) string {
	var b strings.Builder
	b.WriteString("Figure 7 — local validation: recall vs A's mempool size (Z=5120)\n")
	for _, r := range rows {
		cond := "no"
		if r.MempoolSize-r.Pending <= 5120 {
			cond = "yes"
		}
		fmt.Fprintf(&b, "  L=%5d pending=%4d  recall=%5.1f%%  (L−pending ≤ 5120: %s)\n",
			r.MempoolSize, r.Pending, 100*r.Recall, cond)
	}
	return b.String()
}

// Table8Row is one local parallel-validation configuration.
type Table8Row struct {
	Links     string
	Recall    float64
	Precision float64
}

// Table8 reproduces Appendix B.1.1: a fully local M, A1, A2, B with all six
// distinct link configurations; each measured repeatedly with the parallel
// primitive and scored against ground truth.
func Table8(seed int64, reps int) []Table8Row {
	type cfg struct {
		name  string
		links [][2]int // index 0=A1, 1=A2, 2=B
	}
	cfgs := []cfg{
		{"A1-A2, A1-B, A2-B", [][2]int{{0, 1}, {0, 2}, {1, 2}}},
		{"A1-A2, A1-B", [][2]int{{0, 1}, {0, 2}}},
		{"A1-A2", [][2]int{{0, 1}}},
		{"A1-B, A2-B", [][2]int{{0, 2}, {1, 2}}},
		{"A1-B", [][2]int{{0, 2}}},
		{"null", nil},
	}
	// Each configuration seeds its trials from (ci, rep), so the six
	// configurations run as independent pool jobs.
	lanes := sweepLanes("table8", len(cfgs))
	return runner.MapWorker(len(cfgs), func(w, ci int) Table8Row {
		c := cfgs[ci]
		sp := rowSpan(lanes[ci], ci, w, int64(ci))
		defer sp.End()
		var sc core.Score
		for rep := 0; rep < reps; rep++ {
			built := table8World(seed+int64(100*ci+rep), c.links, lanes[ci]).Build()
			built.StartTraffic()
			net, ids := built.Net, built.Inst.IDs
			params := built.World.Params()
			params.SettleTime = 4
			// Parallel: sources A1, A2; sink B.
			res, err := built.Measurer(params).MeasurePar([]core.Edge{
				{Source: ids[0], Sink: ids[2]},
				{Source: ids[1], Sink: ids[2]},
			})
			if err != nil {
				continue
			}
			truth := core.EdgeSetOf(net.Edges())
			for _, e := range [][2]types.NodeID{{ids[0], ids[2]}, {ids[1], ids[2]}} {
				want := truth.Has(e[0], e[1])
				got := res.Detected.Has(e[0], e[1])
				switch {
				case want && got:
					sc.TruePositives++
				case !want && got:
					sc.FalsePositives++
				case want && !got:
					sc.FalseNegatives++
				}
			}
		}
		return Table8Row{Links: c.name, Recall: sc.Recall(), Precision: sc.Precision()}
	})
}

// table8World is one local trial's world: A1, A2 and B with scaled pools,
// joined by links (index 0=A1, 1=A2, 2=B), holding 120 prefilled
// transactions.
func table8World(seed int64, links [][2]int, lane *trace.Tracer) World {
	node := ethsim.NodeConfig{Policy: txpool.Geth, MaxPeers: 16}
	return World{Seed: seed, Latency: localLatency, Lane: lane,
		Nodes: []ethsim.NodeConfig{node, node, node}, Links: links, PoolScale: poolScale,
		Traffic: Traffic{PriceLo: types.Gwei / 10, PriceHi: 2 * types.Gwei, Prefill: 120, Settle: 3}}
}

// FormatTable8 renders the local parallel validation.
func FormatTable8(rows []Table8Row) string {
	var b strings.Builder
	b.WriteString("Table 8 — local parallel validation (M, A1, A2, B)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-22s recall=%5.1f%%  precision=%5.1f%%\n", r.Links, 100*r.Recall, 100*r.Precision)
	}
	return b.String()
}

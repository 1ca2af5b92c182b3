package experiments

import (
	"fmt"
	"strings"

	"toposhot/internal/chain"
	"toposhot/internal/core"
	"toposhot/internal/discv"
	"toposhot/internal/ethsim"
	"toposhot/internal/netgen"
	"toposhot/internal/runner"
	"toposhot/internal/strategy"
	"toposhot/internal/trace"
	"toposhot/internal/types"
)

// AppAResult contrasts TxProbe and TopoShot on the same Ethereum network:
// both methods' scores over the same measured pairs.
type AppAResult struct {
	TxProbe  core.Score
	TopoShot core.Score
	Pairs    int
}

// AppA reproduces the Appendix-A argument empirically: on an account-model
// network with push propagation, TxProbe's marker transaction is valid
// everywhere and floods, so TxProbe claims links that do not exist, while
// TopoShot's replacement-based isolation holds.
func AppA(seed int64) (*AppAResult, error) {
	v := newValidationNet(seed, 60, netgen.Uniform(), publicLatency, 10, nil)
	probe := strategy.NewTxProbe(v.Super, v.m.Params())
	truth := core.EdgeSetOf(v.Net.Edges())
	rng := v.Net.Engine().Rand()
	var pairs [][2]types.NodeID
	// Sample a mix of true edges and non-edges.
	edges := truth.Edges()
	for i := 0; i < 10 && i < len(edges); i++ {
		e := edges[rng.Intn(len(edges))]
		if e[0] != v.Super.ID() && e[1] != v.Super.ID() {
			pairs = append(pairs, e)
		}
	}
	for len(pairs) < 20 {
		a := v.Inst.IDs[rng.Intn(len(v.Inst.IDs))]
		b := v.Inst.IDs[rng.Intn(len(v.Inst.IDs))]
		if a != b && !truth.Has(a, b) {
			pairs = append(pairs, [2]types.NodeID{a, b})
		}
	}
	// Both methods probe each pair on this one network, TxProbe first: they
	// share the pools, so the interleaved order is part of the result.
	txProbe, topoShot, measuredTruth := core.NewEdgeSet(), core.NewEdgeSet(), core.NewEdgeSet()
	for _, pr := range pairs {
		c, err := probe.MeasurePair(pr[0], pr[1])
		if err != nil {
			return nil, err
		}
		if c.Detected {
			txProbe.Add(pr[0], pr[1])
		}
		got, err := v.m.MeasureOneLink(pr[0], pr[1])
		if err != nil {
			return nil, err
		}
		if got {
			topoShot.Add(pr[0], pr[1])
		}
		if truth.Has(pr[0], pr[1]) {
			measuredTruth.Add(pr[0], pr[1])
		}
	}
	// Scored the way strategy.Outcome.Score is: against the truth restricted
	// to the measured pairs.
	return &AppAResult{
		TxProbe:  core.ScoreAgainst(txProbe, measuredTruth, nil),
		TopoShot: core.ScoreAgainst(topoShot, measuredTruth, nil),
		Pairs:    len(pairs),
	}, nil
}

// FormatAppA renders the comparison.
func FormatAppA(r *AppAResult) string {
	var b strings.Builder
	b.WriteString("Appendix A — TxProbe vs TopoShot on an Ethereum network\n")
	fmt.Fprintf(&b, "  pairs measured: %d\n", r.Pairs)
	fmt.Fprintf(&b, "  TxProbe : %v\n", r.TxProbe)
	fmt.Fprintf(&b, "  TopoShot: %v\n", r.TopoShot)
	fmt.Fprintf(&b, "  TxProbe false positives: %d (isolation broken by account model)\n",
		r.TxProbe.FalsePositives)
	return b.String()
}

// AppCResult is the twin-world non-interference experiment.
type AppCResult struct {
	// Verifier outcome in the measured world.
	V1V2OK     bool
	Violations []core.Violation
	// Twin-world block comparison (measurement transactions excluded).
	Twin core.TwinWorldReport
	// Blocks produced during the comparison window.
	Blocks int
}

// AppC validates Theorem C.2 executably: two deterministic twin networks
// run the same seed, workload and miner schedule; one also runs a TopoShot
// measurement priced below every included transaction. When V1 and V2 hold,
// the two worlds' blocks include identical transaction sets (measurement
// transactions excluded from the comparison, since Y0 keeps them unmined).
func AppC(seed int64) (*AppCResult, error) {
	build := func(measure bool) (*chain.Chain, []core.Violation, *core.Ledger, error) {
		built := appCWorld(seed).Build()
		net, inst := built.Net, built.Inst
		w := built.StartTraffic()
		miners := chain.NewMiner(net, chain.MinerConfig{
			Interval:       13,
			GasLimit:       21000 * 20,
			BroadcastDelay: 1,
		}, []types.NodeID{inst.IDs[0], inst.IDs[1]})
		miners.Start(0)
		net.RunFor(40)

		params := built.World.Params()
		params.Y = types.Gwei / 2 // below the Gwei..4Gwei workload floor
		m := built.Measurer(params)

		t1 := net.Now()
		var violations []core.Violation
		if measure {
			// Measure a handful of pairs during the window.
			for i := 0; i < 3; i++ {
				if _, err := m.MeasureOneLink(inst.IDs[2+i], inst.IDs[10+i]); err != nil {
					return nil, nil, nil, err
				}
			}
		} else {
			// The hypothetical world idles for the same virtual duration.
			net.RunFor(3 * (10 + 6 + 8))
		}
		t2 := t1 + 3*(10+6+8)
		net.RunFor(120)
		miners.Stop()
		w.Stop()
		if measure {
			v := core.NIVerifier{Chain: miners.Chain(), Y0: params.Y, T1: t1, T2: t2, Expiry: 120}
			violations = v.Check()
		}
		return miners.Chain(), violations, m.Ledger, nil
	}

	measured, violations, ledger, err := build(true)
	if err != nil {
		return nil, err
	}
	hypothetical, _, _, err := build(false)
	if err != nil {
		return nil, err
	}

	// Strip measurement transactions before comparing (they are priced to
	// stay unmined; FilterMeasurement guards against the residual case).
	mBlocks := measured.Blocks()
	filtered := chain.NewChainFromBlocks(nil)
	for _, b := range mBlocks {
		filtered.Append(core.FilterMeasurement(b, ledger))
	}
	rep := core.CompareTwinWorlds(filtered, hypothetical)
	return &AppCResult{
		V1V2OK:     len(violations) == 0,
		Violations: violations,
		Twin:       rep,
		Blocks:     rep.BlocksCompared,
	}, nil
}

// appCWorld is a twin world of Appendix C: a deterministic substrate —
// constant latency and push-all gossip, so the hypothetical world replays
// the measured one exactly except for the measurement itself (Definition
// C.1's ceteris paribus) — under a high-priced, block-filling workload (V1's
// precondition).
func appCWorld(seed int64) World {
	het := netgen.Uniform()
	het.LegacyPushFraction = 1.0
	return World{Seed: seed, Latency: lockstepLatency, Graph: netgen.ErdosRenyiNM(24, 80, seed), Het: het,
		PoolScale: poolScale,
		Traffic:   Traffic{Rate: 3.0, PriceLo: types.Gwei, PriceHi: 4 * types.Gwei, Prefill: 600, Settle: 5}}
}

// FormatAppC renders the twin-world outcome.
func FormatAppC(r *AppCResult) string {
	var b strings.Builder
	b.WriteString("Appendix C — non-interference twin-world validation\n")
	fmt.Fprintf(&b, "  V1+V2 verified in measured world: %v\n", r.V1V2OK)
	fmt.Fprintf(&b, "  blocks compared: %d, mismatching: %d → interference: %v\n",
		r.Twin.BlocksCompared, len(r.Twin.Mismatches), r.Twin.Interfered())
	return b.String()
}

// W2Result is the inactive-edge crawl baseline.
type W2Result struct {
	Report InactiveEdgeReport
}

// W2Crawl runs the FIND_NODE inactive-edge measurement (Gao et al.,
// Paphitis et al.) on a testnet-like network and scores the routing-table
// graph against the active topology — quantifying why W2-class methods
// cannot recover what TopoShot measures.
func W2Crawl(seed int64) *W2Result {
	v := newValidationNet(seed, 150, netgen.Uniform(), publicLatency, 10, nil)
	return &W2Result{Report: crawlInactive(v.Net, 4, seed)}
}

// InactiveEdgeReport contrasts a W2 FIND_NODE crawl with the active-edge
// ground truth.
type InactiveEdgeReport struct {
	InactiveEdges int
	ActiveEdges   int
	// Overlap counts inactive edges that are also active links.
	Overlap int
	// PrecisionAsActive is Overlap/InactiveEdges: how badly routing-table
	// entries over-approximate the gossip topology.
	PrecisionAsActive float64
	// RecallOfActive is Overlap/ActiveEdges.
	RecallOfActive float64
}

// crawlInactive runs the W2 baseline: build a discovery system over the
// network's nodes, crawl routing tables with FIND_NODE, and score the
// result against the active topology. The routing tables are populated
// independently of the active links (real DHT state is discovery-driven),
// holding ~272 entries per node versus ~50 active neighbors.
func crawlInactive(net *ethsim.Network, lookups int, seed int64) InactiveEdgeReport {
	var ids []types.NodeID
	for _, nd := range net.Nodes() {
		if nd.Config().Label == "supernode" {
			continue
		}
		ids = append(ids, nd.ID())
	}
	sys := discv.NewSystem(ids, 8, 3, seed)
	inactive := sys.CrawlInactiveEdges(lookups, seed+1)
	activeSet := core.EdgeSetOf(net.Edges())
	// Exclude the supernode's instrumentation links from the active-edge
	// denominator only when a supernode actually exists: a zero-value
	// sentinel would silently exclude a real node 0 on a supernode-less
	// network (node ids are opaque; nothing reserves 0).
	var superID *types.NodeID
	for _, nd := range net.Nodes() {
		if nd.Config().Label == "supernode" {
			id := nd.ID()
			superID = &id
		}
	}
	active := activeEdgesExcluding(activeSet, superID)
	overlap := 0
	for _, e := range inactive {
		if activeSet.Has(e[0], e[1]) {
			overlap++
		}
	}
	rep := InactiveEdgeReport{
		InactiveEdges: len(inactive),
		ActiveEdges:   active,
		Overlap:       overlap,
	}
	if rep.InactiveEdges > 0 {
		rep.PrecisionAsActive = float64(overlap) / float64(rep.InactiveEdges)
	}
	if rep.ActiveEdges > 0 {
		rep.RecallOfActive = float64(overlap) / float64(rep.ActiveEdges)
	}
	return rep
}

// activeEdgesExcluding counts edges with neither endpoint equal to exclude;
// a nil exclude counts every edge.
func activeEdgesExcluding(s *core.EdgeSet, exclude *types.NodeID) int {
	active := 0
	for _, e := range s.Edges() {
		if exclude != nil && (e[0] == *exclude || e[1] == *exclude) {
			continue
		}
		active++
	}
	return active
}

// FormatW2 renders the crawl comparison.
func FormatW2(r *W2Result) string {
	var b strings.Builder
	b.WriteString("W2 baseline — FIND_NODE routing-table crawl vs active topology\n")
	fmt.Fprintf(&b, "  inactive edges: %d   active edges: %d   overlap: %d\n",
		r.Report.InactiveEdges, r.Report.ActiveEdges, r.Report.Overlap)
	fmt.Fprintf(&b, "  precision as active-link predictor: %5.1f%%   recall: %5.1f%%\n",
		100*r.Report.PrecisionAsActive, 100*r.Report.RecallOfActive)
	return b.String()
}

// AblationRow reports one design-choice ablation.
type AblationRow struct {
	Name      string
	Precision float64
	Recall    float64
	Note      string
}

// Ablations exercises the design choices DESIGN.md calls out: propagation
// mode, announcement-lock duration, X calibration, and pre-processing.
// Every row builds its own net from a row-specific seed, so the six rows
// are independent simulations and run via the runner pool in fixed order.
func Ablations(seed int64) []AblationRow {
	// 1. Push-all vs push+announce propagation.
	propagation := func(lane *trace.Tracer, name string, het netgen.Heterogeneity) AblationRow {
		v := newValidationNet(seed, 80, het, publicLatency, 20, lane)
		targets := v.measurableNeighbors()
		truth := core.EdgeSetOf(v.Net.Edges())
		measured := core.NewEdgeSet()
		for _, a := range targets {
			if ok, err := v.m.MeasureOneLink(a, v.bPrime.ID()); err == nil && ok {
				measured.Add(a, v.bPrime.ID())
			}
		}
		mt := core.NewEdgeSet()
		for _, a := range targets {
			if truth.Has(a, v.bPrime.ID()) {
				mt.Add(a, v.bPrime.ID())
			}
		}
		sc := core.ScoreAgainst(measured, mt, nil)
		return AblationRow{Name: "propagation: " + name,
			Precision: sc.Precision(), Recall: sc.Recall()}
	}

	// 2. X too small vs calibrated: a short flood wait leaves txC missing
	// on distant nodes, breaking isolation (false positives appear).
	floodWait := func(lane *trace.Tracer, x float64) AblationRow {
		v := newValidationNet(seed+7, 120, netgen.Uniform(), publicLatency, 0, lane)
		params := v.m.Params()
		params.X = x
		v.m.SetParams(params)
		truth := core.EdgeSetOf(v.Net.Edges())
		rng := v.Net.Engine().Rand()
		measured, mt := core.NewEdgeSet(), core.NewEdgeSet()
		for i := 0; i < 24; i++ {
			a := v.Inst.IDs[rng.Intn(len(v.Inst.IDs))]
			b := v.Inst.IDs[rng.Intn(len(v.Inst.IDs))]
			if a == b {
				continue
			}
			if ok, err := v.m.MeasureOneLink(a, b); err == nil && ok {
				measured.Add(a, b)
			}
			if truth.Has(a, b) {
				mt.Add(a, b)
			}
		}
		sc := core.ScoreAgainst(measured, mt, nil)
		return AblationRow{
			Name:      fmt.Sprintf("flood wait X=%.1fs", x),
			Precision: sc.Precision(), Recall: sc.Recall(),
		}
	}

	// 3. Pre-processing off vs on over a future-forwarding population.
	preprocessing := func(lane *trace.Tracer, pre bool) AblationRow {
		het := netgen.Uniform()
		het.ForwardFuturesFraction = 0.15
		v := newValidationNet(seed+13, 100, het, publicLatency, 25, lane)
		targets := v.neighbors
		note := "pre-processing off"
		if pre {
			targets = v.measurableNeighbors()
			note = "pre-processing on"
		}
		truth := core.EdgeSetOf(v.Net.Edges())
		measured, mt := core.NewEdgeSet(), core.NewEdgeSet()
		for _, a := range targets {
			if a == v.Super.ID() {
				continue
			}
			if ok, err := v.m.MeasureOneLink(a, v.bPrime.ID()); err == nil && ok {
				measured.Add(a, v.bPrime.ID())
			}
			if truth.Has(a, v.bPrime.ID()) {
				mt.Add(a, v.bPrime.ID())
			}
		}
		sc := core.ScoreAgainst(measured, mt, nil)
		return AblationRow{Name: "targets: " + note,
			Precision: sc.Precision(), Recall: sc.Recall(),
			Note: fmt.Sprintf("%d targets", len(targets))}
	}

	pushAll := netgen.Uniform()
	pushAll.LegacyPushFraction = 1.0
	jobs := []func(lane *trace.Tracer) AblationRow{
		func(l *trace.Tracer) AblationRow { return propagation(l, "push+announce (default)", netgen.Uniform()) },
		func(l *trace.Tracer) AblationRow { return propagation(l, "legacy push-all", pushAll) },
		func(l *trace.Tracer) AblationRow { return floodWait(l, 0.2) },
		func(l *trace.Tracer) AblationRow { return floodWait(l, 10) },
		func(l *trace.Tracer) AblationRow { return preprocessing(l, false) },
		func(l *trace.Tracer) AblationRow { return preprocessing(l, true) },
	}
	lanes := sweepLanes("ablation", len(jobs))
	return runner.MapWorker(0, len(jobs), func(w, i int) AblationRow {
		sp := rowSpan(lanes[i], i, w, int64(i))
		defer sp.End()
		return jobs[i](lanes[i])
	})
}

// FormatAblations renders the ablation rows.
func FormatAblations(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Ablations — design choices under the serial primitive\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-36s precision=%5.1f%% recall=%5.1f%%  %s\n",
			r.Name, 100*r.Precision, 100*r.Recall, r.Note)
	}
	return b.String()
}

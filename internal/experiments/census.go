// Package experiments contains one driver per table and figure of the
// paper's evaluation (§6 and the appendices). Each driver builds its own
// workload, runs the measurement, and renders rows comparable to the
// published ones. Figures (figures.go) is the registry cmd/experiments runs
// them from.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"toposhot/internal/core"
	"toposhot/internal/graph"
	"toposhot/internal/netgen"
	"toposhot/internal/obs"
	"toposhot/internal/runner"
	"toposhot/internal/trace"
	"toposhot/internal/types"
)

// CensusConfig sizes a whole-testnet measurement campaign.
type CensusConfig struct {
	Name string
	Grow netgen.GrowConfig
	Het  netgen.Heterogeneity
	Seed int64
	// PoolScale scales mempool capacity and Z together (0.1 → 512-slot
	// pools). Policy *ratios* are unchanged, so the measurement logic is
	// exercised identically; only absolute slot counts shrink to keep the
	// full-testnet simulation tractable.
	PoolScale float64
	// GroupK is the parallel schedule's group size (the paper's K).
	GroupK int
	// EdgeBudget caps measurement transactions per parallel call (the
	// paper's ≤2000-slot discipline), scaled with the pools.
	EdgeBudget int
	// Prefill is the number of background transactions seeded before
	// measurement (the paper's mempool-refill trick for idle testnets).
	Prefill int
}

// RopstenCensus returns the Ropsten-sized campaign configuration.
func RopstenCensus(seed int64) CensusConfig {
	return CensusConfig{
		Name:       "ropsten",
		Grow:       netgen.RopstenConfig.WithSeed(seed),
		Het:        netgen.DefaultHeterogeneity(),
		Seed:       seed,
		PoolScale:  poolScale,
		GroupK:     60,
		EdgeBudget: 144,
		Prefill:    300,
	}
}

// RinkebyCensus returns the Rinkeby-sized campaign configuration.
func RinkebyCensus(seed int64) CensusConfig {
	cfg := RopstenCensus(seed)
	cfg.Name = "rinkeby"
	cfg.Grow = netgen.RinkebyConfig.WithSeed(seed)
	return cfg
}

// GoerliCensus returns the Goerli-sized campaign configuration.
func GoerliCensus(seed int64) CensusConfig {
	cfg := RopstenCensus(seed)
	cfg.Name = "goerli"
	cfg.Grow = netgen.GoerliConfig.WithSeed(seed)
	return cfg
}

// Census is a completed whole-testnet measurement.
type Census struct {
	Config CensusConfig
	// Truth is the ground-truth graph (vertices 0..n-1).
	Truth *graph.Graph
	// Measured is the TopoShot-measured graph in the same vertex space.
	Measured *graph.Graph
	// Score compares measured vs truth over eligible nodes.
	Score core.Score
	// Eligible is the number of nodes surviving pre-processing.
	Eligible int
	// DurationHours is the virtual measurement time.
	DurationHours float64
	// CostEther is the worst-case campaign cost.
	CostEther float64
	// Iterations and Calls summarize the schedule.
	Iterations, Calls int
	// MsgCount tallies delivered messages by kind.
	MsgCount map[string]int
}

// RunCensus builds the testnet, pre-processes, measures every pair with the
// parallel schedule, and scores the result.
func RunCensus(cfg CensusConfig) (*Census, error) {
	// Each census records on its own lane so concurrent campaigns
	// (PrewarmCensuses) never share a clock or interleave records.
	tr := trace.Enabled().Lane("census:"+censusKey(cfg), nil)
	span := tr.StartSpan(spanCensus,
		trace.String(attrName, cfg.Name), trace.Int(attrSeed, cfg.Seed),
		trace.Int(attrNodes, int64(cfg.Grow.N)), trace.Int(attrK, int64(cfg.GroupK)))
	defer span.End()

	bs := tr.StartSpan(spanCensusBuild)
	g := netgen.Grow(cfg.Grow)
	wv := cfg.World(g)
	wv.Lane = tr
	world := wv.Build()
	net, inst := world.Net, world.Inst
	// The prefill span ends before a measurer exists to bind the lane's clock.
	tr.SetClock(net.Now)
	bs.End()

	ps := tr.StartSpan(spanCensusPrefill)
	w := world.StartTraffic()
	ps.End()

	m := world.Measurer(wv.Params())
	// Its events go to a scope named like the lane, on the census's clock.
	m.SetObs(obs.Enabled().Scope("census:"+censusKey(cfg), nil), nil)

	pp := tr.StartSpan(spanPreprocess)
	pre := m.Preprocess(inst.IDs)
	targets := pre.EligibleNodes(inst.IDs)
	pp.End()

	res, err := m.MeasureNetwork(targets, cfg.GroupK, cfg.EdgeBudget)
	if err != nil {
		return nil, err
	}
	w.Stop()

	// Score over eligible nodes only (excluded nodes are out of scope, as
	// in the paper's validation).
	sc := tr.StartSpan(spanCensusScore)
	defer sc.End()
	truthSet := core.EdgeSetOf(net.Edges())
	eligible := make(map[types.NodeID]bool, len(targets))
	for _, id := range targets {
		eligible[id] = true
	}
	score := core.ScoreAgainst(res.Detected, truthSet, func(id types.NodeID) bool { return eligible[id] })

	// Graph of the measured topology, back in vertex space.
	mg := graph.New()
	for _, id := range targets {
		mg.AddNode(inst.Back[id])
	}
	for _, e := range res.Detected.Edges() {
		va, okA := inst.Back[e[0]]
		vb, okB := inst.Back[e[1]]
		if okA && okB {
			mg.AddEdge(va, vb)
		}
	}

	return &Census{
		Config:        cfg,
		Truth:         g,
		Measured:      mg,
		Score:         score,
		Eligible:      len(targets),
		DurationHours: res.Duration / 3600,
		CostEther:     core.Ether(m.Ledger.WorstCaseWei()),
		Iterations:    res.Iterations,
		Calls:         res.Calls,
		MsgCount:      net.MsgCounts(),
	}, nil
}

// censusCache shares one census run across the experiments that analyze the
// same testnet (Fig 6 + Tables 4/5 all use Ropsten's, etc.). The
// singleflight semantics let several experiments request the same census
// concurrently while it runs exactly once.
var censusCache runner.Cache[string, *Census]

// censusKey identifies a census run for cache sharing. The network size is
// part of the key because callers rescale Grow.N on the same named config
// (the figure ledger runs every testnet at an eighth); two scalings must not
// alias.
func censusKey(cfg CensusConfig) string {
	return fmt.Sprintf("%s/%d/n%d", cfg.Name, cfg.Seed, cfg.Grow.N)
}

// CachedCensus runs (or reuses) the named testnet's census. Concurrent
// callers with the same configuration share one underlying run.
func CachedCensus(cfg CensusConfig) (*Census, error) {
	return censusCache.Do(censusKey(cfg), func() (*Census, error) {
		return RunCensus(cfg)
	})
}

// PrewarmCensuses starts building the given censuses concurrently in the
// background. Each census is a single-engine serial simulation, so a batch
// of experiments over several testnets reaches steady state in the
// wall-clock time of the slowest census rather than their sum. Later
// CachedCensus calls join the in-flight builds. No-op (and free) when the
// runner is serial; errors surface on the eventual CachedCensus call.
func PrewarmCensuses(cfgs ...CensusConfig) {
	if runner.Parallelism() <= 1 {
		return
	}
	for _, cfg := range cfgs {
		cfg := cfg
		go func() { _, _ = CachedCensus(cfg) }()
	}
}

// FormatDegreeDistribution renders a Figure-6-style degree histogram with
// fractional shares, listing high-degree outliers separately like the
// paper's Goerli table (Figure 10).
func FormatDegreeDistribution(g *graph.Graph, highCut int) string {
	var b strings.Builder
	h := g.DegreeHistogram()
	fmt.Fprintf(&b, "degree distribution (n=%d, m=%d, avg=%.1f)\n", g.NumNodes(), g.NumEdges(), g.AverageDegree())
	keys := h.Keys()
	var high []int
	for _, d := range keys {
		if d >= highCut {
			high = append(high, d)
			continue
		}
		fmt.Fprintf(&b, "  deg %3d: %4d nodes (%4.1f%%)\n", d, h.Count(d), 100*h.Fraction(d))
	}
	if len(high) > 0 {
		sort.Ints(high)
		fmt.Fprintf(&b, "  high-degree outliers (≥%d):", highCut)
		for _, d := range high {
			fmt.Fprintf(&b, " %d×%d", h.Count(d), d)
		}
		b.WriteString("\n")
	}
	return b.String()
}

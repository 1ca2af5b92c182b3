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
	"toposhot/internal/ethsim"
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
	// Calls is the number of measurement calls the schedule made.
	Calls int
	// MsgCount tallies delivered messages by kind (bench/selfcheck_test.go
	// checks a composed census against it).
	MsgCount map[string]int
}

// RunCensus builds the testnet, pre-processes, measures every pair with the
// parallel schedule, and scores the result.
func RunCensus(cfg CensusConfig) (*Census, error) {
	// Each census records on its own lane, and logs to a scope named like it,
	// so concurrent campaigns (PrewarmCensuses) never share a clock or
	// interleave records.
	key := "census:" + censusKey(cfg)
	tr := trace.Enabled().Lane(key)
	span := tr.StartSpan(spanCensus,
		trace.String(attrName, cfg.Name), trace.Int(attrSeed, cfg.Seed),
		trace.Int(attrNodes, int64(cfg.Grow.N)), trace.Int(attrK, int64(cfg.GroupK)))
	defer span.End()
	return runCensus(cfg, netgen.Grow(cfg.Grow), tr, obs.Enabled().Scope(key))
}

// runCensus is the census body (§5.3, §6.2): it builds cfg's world over g,
// prefills it, pre-processes every node, measures every eligible pair and
// scores the detections. It records the census's phases as child spans on
// tr, which the caller has opened a census span on, and the campaign's
// events on lg. RunCensus and every region of RunScaleCensus run it.
func runCensus(cfg CensusConfig, g *graph.Graph, tr *trace.Tracer, lg *obs.Logger) (*Census, error) {
	bs := tr.StartSpan(spanCensusBuild)
	wv := cfg.World(g)
	wv.Lane = tr
	world := wv.Build()
	// The prefill span ends before a measurer exists to bind the lane's clock.
	tr.SetClock(world.Net.Now)
	bs.End()

	ps := tr.StartSpan(spanCensusPrefill)
	w := world.StartTraffic()
	ps.End()

	m := world.Measurer(wv.Params())
	m.SetObs(lg, nil)

	pp := tr.StartSpan(spanPreprocess)
	targets := world.Eligible(m)
	pp.End()

	res, score, err := world.Census(m, cfg, targets, nil, nil)
	if err != nil {
		return nil, err
	}
	w.Stop()

	sc := tr.StartSpan(spanCensusScore)
	defer sc.End()
	// Graph of the measured topology, back in g's vertex space.
	back := world.Inst.Back
	mg := graph.New()
	for _, id := range targets {
		mg.AddNode(back[id])
	}
	for _, e := range res.Detected.Edges() {
		mg.AddEdge(back[e[0]], back[e[1]])
	}

	return &Census{
		Config:        cfg,
		Truth:         g,
		Measured:      mg,
		Score:         score,
		Eligible:      len(targets),
		DurationHours: res.Duration / 3600,
		CostEther:     core.Ether(m.Ledger.WorstCaseWei()),
		Calls:         res.Calls,
		MsgCount:      world.Net.MsgCounts(),
	}, nil
}

// Eligible pre-processes every node of the world with m (§6.2.1) and returns
// the nodes that survive: a census's targets.
func (b *Built) Eligible(m *core.Measurer) []types.NodeID {
	return m.Preprocess(b.Inst.IDs).EligibleNodes(b.Inst.IDs)
}

// Census measures every pair of targets with cfg's two-round parallel
// schedule, continuing from resume when it is set and calling onBatch after
// every batch, and scores the detections over targets against the world's own
// links.
func (b *Built) Census(m *core.Measurer, cfg CensusConfig, targets []types.NodeID,
	resume *core.CampaignState, onBatch func(*core.CampaignState) error) (*core.ScheduleResult, core.Score, error) {
	res, err := m.MeasureNetworkResume(targets, cfg.GroupK, cfg.EdgeBudget, resume, onBatch)
	if err != nil {
		return nil, core.Score{}, err
	}
	return res, scoreEligible(res.Detected, b.Net, targets), nil
}

// scoreEligible scores a measured edge set against the network's live ground
// truth over the pairs with both endpoints in targets (nodes pre-processing
// excluded are out of scope, as in the paper's validation).
func scoreEligible(measured *core.EdgeSet, net *ethsim.Network, targets []types.NodeID) core.Score {
	in := make(map[types.NodeID]bool, len(targets))
	for _, id := range targets {
		in[id] = true
	}
	return core.ScoreAgainst(measured, core.EdgeSetOf(net.Edges()), func(id types.NodeID) bool { return in[id] })
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
	byKey := make(map[string]CensusConfig, len(cfgs))
	keys := make([]string, 0, len(cfgs))
	for _, cfg := range cfgs {
		byKey[censusKey(cfg)] = cfg
		keys = append(keys, censusKey(cfg))
	}
	censusCache.Prewarm(keys, func(key string) (*Census, error) { return RunCensus(byKey[key]) })
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

package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"

	"toposhot/internal/core"
	"toposhot/internal/ethsim"
	"toposhot/internal/experiments"
	"toposhot/internal/netgen"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// sizes are the input sizes of the four workloads. fullSizes is what
// BENCHMARK.json measures; smokeSizes is the toy form `go test ./bench` runs.
type sizes struct {
	CensusN int `json:"census_goerli_n"`

	ShardN       int `json:"census_sharded_n"`
	ShardRegions int `json:"census_sharded_regions"`

	GossipN      int     `json:"gossip_flood_n"`
	GossipSlices int     `json:"gossip_flood_slices"`
	GossipSlice  float64 `json:"gossip_flood_slice_virtual_s"`
	GossipRate   float64 `json:"gossip_flood_tx_per_virtual_s"`

	TrackN     int `json:"tracking_churn_n"`
	TrackTicks int `json:"tracking_churn_ticks"`
}

var (
	fullSizes = sizes{
		CensusN: 48,
		ShardN:  240, ShardRegions: 8,
		GossipN: 512, GossipSlices: 24, GossipSlice: 0.25, GossipRate: 48,
		TrackN: 32, TrackTicks: 16,
	}
	smokeSizes = sizes{
		CensusN: 24,
		ShardN:  48, ShardRegions: 2,
		GossipN: 32, GossipSlices: 24, GossipSlice: 0.25, GossipRate: 20,
		TrackN: 24, TrackTicks: 3,
	}
)

// check is one output check; a failed one is a failed operation.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// repOut is what one repetition of a workload produced, beside its timings.
type repOut struct {
	work float64
	// sim holds the simulated end-to-end metrics (precision, recall,
	// virtual_h, cost_eth); gossip_flood has none.
	sim map[string]float64
	// fingerprint lists the simulated statistics that must repeat exactly
	// for a fixed seed: across repetitions, and with telemetry on or off.
	fingerprint []string
	checks      []check
	// events is the engine's scheduled-event count over the timed section;
	// txsSent the measurement transactions sent in it. Both are zero where
	// the black box gives no handle (census_sharded).
	events  uint64
	txsSent int
}

func (o *repOut) fp(key string, v interface{}) {
	switch x := v.(type) {
	case float64:
		o.fingerprint = append(o.fingerprint, key+"="+strconv.FormatFloat(x, 'g', -1, 64))
	default:
		o.fingerprint = append(o.fingerprint, fmt.Sprintf("%s=%v", key, x))
	}
}

func (o *repOut) fpMsgs(net *ethsim.Network) {
	counts := net.MsgCounts()
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		o.fp("msgs."+k, counts[k])
	}
	o.fp("engine.seq", net.Engine().SeqCount())
}

func (o *repOut) check(name string, ok bool, format string, args ...interface{}) {
	o.checks = append(o.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// fingerprintHash shortens a fingerprint for printing; the result file keeps
// the full text.
func fingerprintHash(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// workload is one closed-loop campaign with one client, the measurement node.
type workload struct {
	name     string
	why      string
	workUnit string
	parallel int  // runner.SetParallelism for this workload
	steps    bool // reports step_p50_ms / step_p90_ms
	run      func(seed int64, sz sizes, m *meter) (*repOut, error)
}

var workloads = []workload{
	{
		name: "census_goerli", workUnit: "pairs decided", parallel: 1, steps: true,
		why: "The paper's section-6 census composed from the layers' public calls on one engine: the mixed case (txpool, ethsim and sim all hot), so any hot-path change must show here.",
		run: runCensusGoerli,
	},
	{
		name: "census_sharded", workUnit: "pairs decided", parallel: 2,
		why: "Region-sharded census through experiments.RunScaleCensus: the only use of runner fan-out and the lane-sharded heap, and the eviction-heaviest; a txpool evict/replace gain is largest here.",
		run: runCensusSharded,
	},
	{
		name: "gossip_flood", workUnit: "transactions flooded", parallel: 1, steps: true,
		why: "Background traffic only on full-size pools: zero evictions and replacements, so an eviction-path optimisation predicts no change here and slower admits or look-ups are caught.",
		run: runGossipFlood,
	},
	{
		name: "tracking_churn", workUnit: "pairs probed", parallel: 1, steps: true,
		why: "Incremental tracking under churn through experiments.RunTracking: small budgeted batches, idle gaps with janitor and expiry, and the only workload with tracker and graph on the blocking path.",
		run: runTrackingChurn,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// censusBackgroundRate and censusExpiry restate two unexported constants of
// internal/experiments; selfcheck_test.go fails if the composed census ever
// drifts from experiments.RunCensus.
const (
	censusBackgroundRate = 0.2
	censusExpiry         = 75.0
)

// censusWorld is a built, prefilled testnet with its measurer attached.
type censusWorld struct {
	net      *ethsim.Network
	inst     *netgen.Instantiated
	super    *ethsim.Supernode
	traffic  *ethsim.Workload
	measurer *core.Measurer
}

// buildCensus builds the census world from the layers' public functions,
// step for step as experiments.RunCensus does, so that every call into a
// layer can be timed from outside.
func buildCensus(cfg experiments.CensusConfig, m *meter) *censusWorld {
	end := m.span("netgen.Grow")
	g := netgen.Grow(cfg.Grow)
	end()

	end = m.span("ethsim.NewNetwork")
	netCfg := ethsim.DefaultConfig(cfg.Seed)
	netCfg.LatencyTail = 0.05
	netCfg.LatencyMax = 1.0
	net := ethsim.NewNetwork(netCfg)
	end()

	end = m.span("netgen.InstantiateScaled")
	het := cfg.Het
	het.Expiry = censusExpiry
	inst := netgen.InstantiateScaled(net, g, het, cfg.Seed, cfg.PoolScale)
	end()

	end = m.span("Supernode.ConnectAll")
	super := ethsim.NewSupernode(net)
	super.ConnectAll()
	z := int(float64(txpool.Geth.Capacity) * cfg.PoolScale)
	super.SetEstimatorPolicy(txpool.Geth.WithCapacity(z).WithExpiry(censusExpiry))
	net.StartJanitor(30)
	end()

	end = m.span("Workload.Prefill")
	w := ethsim.NewWorkload(net, censusBackgroundRate, types.Gwei/10, 2*types.Gwei)
	w.Prefill(cfg.Prefill, 5)
	w.Start(0)
	end()

	params := core.DefaultParams()
	params.Z = z
	params.SettleTime = 6
	return &censusWorld{net: net, inst: inst, super: super, traffic: w,
		measurer: core.NewMeasurer(net, super, params)}
}

// censusRun is a finished harness-composed census.
type censusRun struct {
	*censusWorld
	targets []types.NodeID
	res     *core.ScheduleResult
	score   core.Score
	events0 uint64 // engine events scheduled before the timed section
}

// composeCensus runs the single-engine census on a world built by
// buildCensus: pre-process, measure every pair, score. A traced repetition's
// cost ledger receives the probe cost attribution.
func composeCensus(cfg experiments.CensusConfig, m *meter,
	onBatch func(*core.CampaignState) error) (*censusRun, error) {
	w := buildCensus(cfg, m)
	net, meas := w.net, w.measurer
	if costs := m.costs(); costs != nil {
		meas.SetObs(meas.Obs(), costs)
	}
	events0 := net.Engine().SeqCount()
	if err := m.timed(); err != nil {
		return nil, err
	}

	end := m.span("Measurer.Preprocess")
	pre := meas.Preprocess(w.inst.IDs)
	targets := pre.EligibleNodes(w.inst.IDs)
	end()

	end = m.span("Measurer.MeasureNetworkResume")
	m.restartSteps()
	res, err := meas.MeasureNetworkResume(targets, cfg.GroupK, cfg.EdgeBudget, nil, onBatch)
	end()
	if err != nil {
		return nil, err
	}
	w.traffic.Stop()

	end = m.span("core.ScoreAgainst")
	eligible := make(map[types.NodeID]bool, len(targets))
	for _, id := range targets {
		eligible[id] = true
	}
	score := core.ScoreAgainst(res.Detected, core.EdgeSetOf(net.Edges()),
		func(id types.NodeID) bool { return eligible[id] })
	end()

	return &censusRun{censusWorld: w, targets: targets, res: res, score: score, events0: events0}, nil
}

func runCensusGoerli(seed int64, sz sizes, m *meter) (*repOut, error) {
	cfg := experiments.GoerliCensus(seed)
	cfg.Grow = cfg.Grow.WithN(sz.CensusN)

	m.begin()
	c, err := composeCensus(cfg, m, func(*core.CampaignState) error {
		m.step("MeasurePar batch")
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := m.end(); err != nil {
		return nil, err
	}

	out := &repOut{
		work: float64(c.res.PairsMeasured),
		sim: map[string]float64{
			"precision": c.score.Precision(),
			"recall":    c.score.Recall(),
			"virtual_h": c.res.Duration / 3600,
			"cost_eth":  core.Ether(c.measurer.Ledger.WorstCaseWei()),
		},
		events:  c.net.Engine().SeqCount() - c.events0,
		txsSent: c.measurer.Ledger.PendingCount() + c.measurer.Ledger.FutureCount(),
	}
	out.fpMsgs(c.net)
	out.fp("eligible", len(c.targets))
	out.fp("calls", c.res.Calls)
	out.fp("iterations", c.res.Iterations)
	out.fp("setup_fails", c.res.SetupFails)
	out.fp("detected", c.res.Detected.Len())
	out.fp("tp", c.score.TruePositives)
	out.fp("fp", c.score.FalsePositives)
	out.fp("fn", c.score.FalseNegatives)
	out.fp("virtual_s", c.res.Duration)
	out.fp("cost_eth", out.sim["cost_eth"])
	out.check("precision>=0.99", c.score.Precision() >= 0.99, "precision %.4f", c.score.Precision())
	out.check("recall>=0.85", c.score.Recall() >= 0.85, "recall %.4f", c.score.Recall())
	return out, nil
}

func runCensusSharded(seed int64, sz sizes, m *meter) (*repOut, error) {
	cfg := experiments.MainnetScaleCensus(seed)
	cfg.Grow = cfg.Grow.WithN(sz.ShardN)
	cfg.Regions = sz.ShardRegions

	// RunScaleCensus builds its worlds inside the call, where set-up cannot
	// be told from measurement. What the harness can time is a probe: one
	// region-sized replica built and prefilled through the same public calls,
	// so work moved into building a world still shows in setup_s. Set-up also
	// generates the harness's own copy of the input graph, which the output
	// check scores the measured graph against.
	m.begin()
	probe := experiments.CensusConfig{
		Grow: cfg.Grow.WithN(cfg.Grow.N / cfg.Regions), Het: cfg.Het, Seed: seed,
		PoolScale: cfg.PoolScale, Prefill: cfg.Prefill,
	}
	buildCensus(probe, m)
	end := m.span("netgen.Grow")
	truth := netgen.Grow(cfg.Grow)
	end()
	if err := m.timed(); err != nil {
		return nil, err
	}
	end = m.span("experiments.RunScaleCensus")
	sc, err := experiments.RunScaleCensus(cfg)
	end()
	if err != nil {
		return nil, err
	}
	if err := m.end(); err != nil {
		return nil, err
	}

	out := &repOut{sim: map[string]float64{
		"precision": sc.Precision,
		"recall":    sc.RecallCovered,
		"virtual_h": sc.SumDurationHours,
		"cost_eth":  sc.CostEther,
	}}
	for _, r := range sc.Regions {
		out.work += float64(r.Eligible * (r.Eligible - 1) / 2)
		out.fp(fmt.Sprintf("region%d", r.Index), fmt.Sprintf("eligible=%d detected=%d tp=%d calls=%d virtual_h=%s cost_eth=%s",
			r.Eligible, r.Detected, r.TP, r.Calls,
			strconv.FormatFloat(r.DurationHours, 'g', -1, 64), strconv.FormatFloat(r.CostEther, 'g', -1, 64)))
	}
	out.fp("covered", sc.CoveredEdges)
	out.fp("tp", sc.TP)
	out.fp("fp", sc.FP)

	tp, fp := 0, 0
	for _, e := range sc.Measured.Edges() {
		if truth.HasEdge(e[0], e[1]) {
			tp++
		} else {
			fp++
		}
	}
	out.check("rescored", tp == sc.TP && fp == sc.FP, "harness TP=%d FP=%d, reported TP=%d FP=%d", tp, fp, sc.TP, sc.FP)
	out.check("precision>=0.99", sc.Precision >= 0.99, "precision %.4f", sc.Precision)
	out.check("recall_covered>=0.75", sc.RecallCovered >= 0.75, "recall(covered) %.4f", sc.RecallCovered)
	return out, nil
}

// buildGossip builds the flood workload's world: a goerli-shaped graph with
// full-size pools and the default mix of client behaviours. No supernode, no
// measurer.
func buildGossip(seed int64, sz sizes, m *meter) (*ethsim.Network, *netgen.Instantiated) {
	end := m.span("netgen.Grow")
	g := netgen.Grow(netgen.GoerliConfig.WithSeed(seed).WithN(sz.GossipN))
	end()
	end = m.span("ethsim.NewNetwork")
	net := ethsim.NewNetwork(ethsim.DefaultConfig(seed))
	end()
	end = m.span("netgen.InstantiateScaled")
	inst := netgen.InstantiateScaled(net, g, netgen.DefaultHeterogeneity(), seed, 1.0)
	end()
	return net, inst
}

// startGossip switches on background traffic and the janitor.
func startGossip(net *ethsim.Network, sz sizes) {
	ethsim.NewWorkload(net, sz.GossipRate, types.Gwei/10, 2*types.Gwei).Start(0)
	net.StartJanitor(30)
}

func runGossipFlood(seed int64, sz sizes, m *meter) (*repOut, error) {
	m.begin()
	net, inst := buildGossip(seed, sz, m)
	events0 := net.Engine().SeqCount()
	if err := m.timed(); err != nil {
		return nil, err
	}

	end := m.span("gossip flood")
	startGossip(net, sz)
	// early is what one pool held five virtual seconds before the end:
	// every one of those transactions has had time to reach everybody.
	var early []*types.Transaction
	settle := int(5 / sz.GossipSlice)
	for i := 0; i < sz.GossipSlices; i++ {
		net.RunFor(sz.GossipSlice)
		m.step("RunFor slice")
		if i == sz.GossipSlices-settle-1 {
			early = net.Node(inst.IDs[0]).Pool().Content()
		}
	}
	end()
	if err := m.end(); err != nil {
		return nil, err
	}

	out := &repOut{events: net.Engine().SeqCount() - events0}
	out.fpMsgs(net)

	var pools []*txpool.Pool
	distinct := make(map[types.Hash]struct{})
	held, maxFill := 0, 0.0
	for _, nd := range net.Nodes() {
		if nd.Config().Unresponsive {
			continue
		}
		p := nd.Pool()
		pools = append(pools, p)
		held += p.Len()
		if fill := float64(p.Len()) / float64(p.Policy().Capacity); fill > maxFill {
			maxFill = fill
		}
		for _, tx := range p.Content() {
			distinct[tx.Hash()] = struct{}{}
		}
	}
	out.work = float64(len(distinct))
	out.fp("distinct_txs", len(distinct))
	out.fp("held_txs", held)

	worst := 1.0
	for _, tx := range early {
		n := 0
		for _, p := range pools {
			if p.Has(tx.Hash()) {
				n++
			}
		}
		if share := float64(n) / float64(len(pools)); share < worst {
			worst = share
		}
	}
	out.check("flooded", len(early) > 0 && worst >= 0.99,
		"%d transactions held 5 virtual s before the end; the least spread is in %.4f of %d responsive pools", len(early), worst, len(pools))
	// Nothing expires within the run, so a pool that never filled never evicted.
	out.check("no_pool_filled", maxFill < 1, "fullest pool at %.3f of capacity", maxFill)
	if m.tr != nil { // sums over the traced repetitions so far: zero only if every one was
		ev, rp := m.tr.counters["txpool.evicted"], m.tr.counters["txpool.replaced"]
		out.check("evicted=replaced=0", ev == 0 && rp == 0, "txpool.evicted=%d txpool.replaced=%d", ev, rp)
	}
	return out, nil
}

func runTrackingChurn(seed int64, sz sizes, m *meter) (*repOut, error) {
	cfg := experiments.GoerliTracking(seed)
	cfg.Census.Grow = cfg.Census.Grow.WithN(sz.TrackN)
	cfg.Ticks = sz.TrackTicks
	cfg.Ledger = m.costs()

	out := &repOut{}
	var events0 uint64
	var txs0 int
	cfg.OnTick = func(t *experiments.TrackingTick) error {
		// Tick 1 ends set-up (build, seeding census, first tick); the timed
		// section is every later tick.
		if t.Tick == 1 {
			events0, txs0 = t.Net.Engine().SeqCount(), t.Txs
			if err := m.timed(); err != nil {
				return err
			}
		} else {
			m.step("tracker tick")
			out.work += float64(t.Report.Probed)
		}
		if t.Tick == cfg.Ticks {
			out.fpMsgs(t.Net)
			out.events = t.Net.Engine().SeqCount() - events0
			out.txsSent = t.Txs - txs0
		}
		return nil
	}

	m.begin()
	end := m.span("experiments.RunTracking")
	tr, err := experiments.RunTracking(cfg)
	end()
	if err != nil {
		return nil, err
	}
	if err := m.end(); err != nil {
		return nil, err
	}

	out.sim = map[string]float64{
		"precision": tr.FinalScore.Precision(),
		"recall":    tr.MeanRecall,
		"virtual_h": tr.TrackerDuration / 3600,
		"cost_eth":  tr.TrackerEther,
	}
	out.fp("targets", tr.Targets)
	out.fp("census", fmt.Sprintf("txs=%d score=%v", tr.BaselineTxs, tr.CensusScore))
	for _, t := range tr.Ticks {
		out.fp(fmt.Sprintf("tick%d", t.Tick), fmt.Sprintf("%+v score=%v txs=%d virtual_s=%s",
			t.Report, t.Score, t.Txs, strconv.FormatFloat(t.Duration, 'g', -1, 64)))
	}
	out.fp("churn_events", tr.ChurnEvents)
	out.fp("cost_eth", tr.TrackerEther)
	out.check("mean_recall>=0.85", tr.MeanRecall >= 0.85, "mean recall %.4f over %d ticks", tr.MeanRecall, len(tr.Ticks))
	return out, nil
}

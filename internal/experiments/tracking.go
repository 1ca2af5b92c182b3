package experiments

import (
	"fmt"
	"math"
	"strings"

	"toposhot/internal/core"
	"toposhot/internal/ethsim"
	"toposhot/internal/graph"
	"toposhot/internal/netgen"
	"toposhot/internal/obs"
	"toposhot/internal/runner"
	"toposhot/internal/tracker"
	"toposhot/internal/types"
)

// Ledger phase labels and event names the tracking driver records.
const (
	// phaseCensusCost labels the seeding census's records in the cost ledger
	// (the per-tick phases are "tick-N").
	phaseCensusCost = "census"
	// scopeTracking is the driver's event-log scope.
	scopeTracking = "tracking"
	// msgTickDone is the per-tick structured event.
	msgTickDone = "tick-done"
)

// The churning world every tracking run follows.
const (
	// tickSeconds is the virtual idle time between campaigns (the network
	// churns during it).
	tickSeconds = 120
	// churnRemoveFrac is churn's teardown share (0.5 = steady density).
	churnRemoveFrac = 0.5
	// hintEvery feeds every k-th churn event to Tracker.Observe, modelling a
	// session crawler (à la Ethna) that tips the tracker off about *some*
	// churn; the rest must be found by the staleness sweep.
	hintEvery = 2
)

// TrackingConfig sizes an incremental-tracking experiment: one seeding
// census, then a churning network followed tick-by-tick with budgeted delta
// campaigns instead of full recomputes.
type TrackingConfig struct {
	// Census configures the network build and the seeding full census, which
	// is also the per-tick cost baseline the delta campaigns are compared to.
	Census CensusConfig
	// Ticks is the number of delta campaigns after the seeding census.
	Ticks int
	// Tracker is the delta-campaign planner configuration (budget in pairs
	// per tick, confidence half-life in ticks, staleness cutoff).
	Tracker tracker.Config
	// ChurnInterval is the mean virtual seconds between single-link churn
	// events.
	ChurnInterval float64
	// Lanes is the engine lane count (wall-clock only, never results).
	Lanes int
	// Ledger, when set, receives the run's cost attribution in place of a
	// fresh internal one — the CLI passes the live dashboard's ledger so cost
	// burn is visible mid-run. It must start empty (the census baseline is
	// read from its totals).
	Ledger *obs.Ledger
	// OnTick, when set, observes each completed tick; TrackingTick.Checkpoint
	// snapshots the run at that tick (the CLI writes resumable checkpoints
	// from it). An error aborts the run.
	OnTick func(t *TrackingTick) error
	// Resume, when set, skips the network build and seeding census and
	// continues the checkpointed run; its Tracking tail must be set.
	Resume *Checkpoint
}

// TrackingResume is the -track checkpoint tail (Checkpoint.Tracking): what a
// continuation needs beyond the census world — the tracker snapshot and the
// seeding-census baselines and spend that the summary arithmetic needs but
// the continuation cannot re-measure. Its JSON field names are the file
// format.
type TrackingResume struct {
	Tracker   *tracker.State `json:"State"`
	TicksDone int
	// EventIndex continues the churn-hint parity across the restart (the
	// restored churn log itself restarts empty).
	EventIndex int
	// TrackingTotals carries the seeding-census baselines verbatim and the
	// tracker spend before the checkpoint, so the summary arithmetic stays
	// cumulative across restarts (the continuation's ledger starts empty).
	TrackingTotals
}

// TrackingTotals is a tracking run's spend record: the seeding census's
// probe transactions, worst-case cost, virtual duration and score against
// the pre-churn truth, then the tracker's totals across all ticks. Embedded
// untagged, its fields are flattened into the JSON of both TrackingResume
// and Tracking.
type TrackingTotals struct {
	BaselineTxs      int
	BaselineEther    float64
	BaselineDuration float64
	CensusScore      core.Score
	TrackerTxs       int
	TrackerEther     float64
	TrackerDuration  float64
}

// TrackingTick is one completed delta campaign.
type TrackingTick struct {
	Tick   int
	Report tracker.TickReport
	// Score compares the post-tick belief with the live ground truth over
	// tracked pairs.
	Score core.Score
	// Txs is the cumulative tracker probe-transaction count; Duration the
	// virtual seconds this tick's probes took; Ether and TotalDuration the
	// cumulative spend (both carried across resumes).
	Txs           int
	Duration      float64
	Ether         float64
	TotalDuration float64

	// Net is the live network, for OnTick; nil in the stored results.
	Net *ethsim.Network `json:"-"`
	// checkpoint backs Checkpoint during OnTick; nil in the stored results.
	checkpoint func(*TrackingTick) (*Checkpoint, error)
}

// Checkpoint snapshots the run as it stands after this tick — the census
// world and a TrackingResume tail a continuation starts from. It is valid
// only inside OnTick and does its work only when called.
func (t *TrackingTick) Checkpoint() (*Checkpoint, error) { return t.checkpoint(t) }

// Tracking is a completed incremental-tracking run.
type Tracking struct {
	Config  TrackingConfig
	Targets int
	TrackingTotals
	ChurnEvents int
	Ticks       []TrackingTick
	// Belief is the final tracked edge set; FinalState its serialized form.
	Belief     *core.EdgeSet
	FinalState *tracker.State
	// Back maps NodeIDs to the generated graph's vertex ids (edge output).
	Back map[types.NodeID]int
	// FinalScore is the last tick's score; MeanRecall/MinRecall summarize
	// the per-tick recall trajectory.
	FinalScore core.Score
	MeanRecall float64
	MinRecall  float64
	// CostLedger attributes every probe transaction this run sent: the
	// seeding census under phase "census" (fresh runs only), each delta
	// campaign under "tick-N". Its records are cuts of the measurers' own
	// core.Ledger, so the cost tables FormatTrackingCost renders are the
	// attribution, not a side tally.
	CostLedger *obs.Ledger
}

// CostReductionX is the transaction-cost ratio of re-running the seeding
// census every tick versus the tracker's delta campaigns.
func (t *Tracking) CostReductionX() float64 {
	if t.TrackerTxs == 0 {
		return math.Inf(1)
	}
	// Config.Ticks, not len(Ticks): a resumed run holds only the continuation
	// ticks but its spend totals are cumulative.
	return float64(t.Config.Ticks*t.BaselineTxs) / float64(t.TrackerTxs)
}

// VirtualReductionX is the same ratio in virtual measurement time.
func (t *Tracking) VirtualReductionX() float64 {
	if t.TrackerDuration == 0 {
		return math.Inf(1)
	}
	return float64(t.Config.Ticks) * t.BaselineDuration / t.TrackerDuration
}

// RecallLoss is the seeding census's recall minus the tracked mean recall —
// what staying incremental costs in coverage.
func (t *Tracking) RecallLoss() float64 {
	return t.CensusScore.Recall() - t.MeanRecall
}

// GoerliTracking returns the Goerli-shaped tracking campaign bench/'s
// tracking_churn workload and the tests run (rescaled via Census.Grow.WithN
// as usual).
func GoerliTracking(seed int64) TrackingConfig {
	return TrackingConfig{
		Census:        GoerliCensus(seed),
		Ticks:         12,
		Tracker:       tracker.Config{Budget: 72, HalfLife: 6, MinConfidence: 0.25},
		ChurnInterval: 20,
	}
}

// RunTracking seeds a tracker with one full census, starts peer churn, and
// then follows the evolving topology with budgeted delta campaigns, scoring
// the belief graph against live ground truth after every tick. Each tick
// also cross-checks the belief's incremental O(Δ) statistics against a batch
// recompute (bit-for-bit, runner-parallel) — the Dynamic-equivalence
// invariant, enforced end to end.
func RunTracking(cfg TrackingConfig) (*Tracking, error) {
	if cfg.Ticks <= 0 {
		return nil, fmt.Errorf("tracking: Ticks must be positive, got %d", cfg.Ticks)
	}

	var (
		world     *Built
		targets   []types.NodeID
		trk       *tracker.Tracker
		probe     *tracker.GroupedProber
		startTick int
		churnSeen int
		// Tracker spend before this run's ledger (a resumed run's, carried).
		baseTxs, baseEther = 0, 0.0
	)
	out := &Tracking{Config: cfg, CostLedger: cfg.Ledger}
	if out.CostLedger == nil {
		out.CostLedger = obs.NewLedger()
	}
	led := out.CostLedger

	params := cfg.Census.World(nil).Params()

	if ck := cfg.Resume; ck != nil {
		r := ck.Tracking
		if r == nil {
			return nil, fmt.Errorf("tracking: resume: not a tracking checkpoint")
		}
		var err error
		if world, err = RestoreCensusWorld(ck, cfg.Lanes); err != nil {
			return nil, fmt.Errorf("tracking: %w", err)
		}
		if len(world.Net.Churns()) == 0 {
			return nil, fmt.Errorf("tracking: restored engine has no churn process")
		}
		probe = tracker.NewGroupedProber(world.Measurer(params))
		probe.MaxPairs = cfg.Census.EdgeBudget
		trk, err = tracker.Restore(r.Tracker, cfg.Tracker, probe)
		if err != nil {
			return nil, fmt.Errorf("tracking: restore tracker: %w", err)
		}
		targets = trk.Targets()
		startTick, churnSeen = r.TicksDone, r.EventIndex
		out.TrackingTotals = r.TrackingTotals
		baseTxs, baseEther = r.TrackerTxs, r.TrackerEther
	} else {
		// Fresh run: build RunCensus's world and seed the tracker with a full
		// census — the per-tick baseline being beaten.
		wv := cfg.Census.World(netgen.Grow(cfg.Census.Grow))
		wv.Lanes = cfg.Lanes
		world = wv.Build()
		world.StartTraffic()

		m := world.Measurer(params)
		targets = world.Eligible(m)
		if len(targets) < 2 {
			return nil, fmt.Errorf("tracking: only %d eligible nodes", len(targets))
		}

		// The seeding census attributes its spend to the run ledger under one
		// phase. Attribution starts at attach, so the pre-processing probes
		// above stay out of the per-tick baseline.
		m.SetObs(m.Obs(), led)
		m.SetPhase(phaseCensusCost)
		res, score, err := world.Census(m, cfg.Census, targets, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("tracking: seeding census: %w", err)
		}
		out.BaselineTxs = led.Totals().Txs()
		out.BaselineEther = core.Ether(m.Ledger.WorstCaseWei())
		out.BaselineDuration = res.Duration
		out.CensusScore = score

		// The tracker probes on its own measurer so the delta-campaign ledger
		// is cleanly separable from the seeding census's.
		probe = tracker.NewGroupedProber(world.Measurer(params))
		probe.MaxPairs = cfg.Census.EdgeBudget
		trk, err = tracker.New(cfg.Tracker, targets, res.Detected, probe)
		if err != nil {
			return nil, err
		}

		// Churn starts only now: the census seeded a stable graph.
		world.Net.StartChurn(ethsim.ChurnConfig{
			Interval:   cfg.ChurnInterval,
			RemoveFrac: churnRemoveFrac,
			Population: targets,
		})
	}
	out.Targets = len(targets)
	net := world.Net

	// The tracker's measurer feeds the same run ledger, phase-labelled per tick.
	pm := probe.Measurer()
	pm.SetObs(pm.Obs(), led)
	lg := obs.Enabled().Scope(scopeTracking, nil)
	lg.SetClock(net.Now)

	churn := net.Churns()[0]
	ledger := probe.Measurer().Ledger
	cursor := 0 // churn-log read position (resets with the log on restore)
	recallSum, minRecall := 0.0, math.Inf(1)

	// drainHints feeds every hintEvery-th unread churn event to the tracker
	// (parity continues across checkpoints via churnSeen). It runs both
	// before a tick — the idle-window churn — and after it — churn raised
	// while the probes themselves ran — so at checkpoint time no event is
	// pending outside the tracker's (serialized) state.
	drainHints := func() {
		for _, ev := range churn.Events(cursor) {
			if churnSeen%hintEvery == 0 {
				trk.Observe(ev.A, ev.B)
			}
			churnSeen++
		}
		cursor = churn.NumEvents()
	}

	// checkpoint is TrackingTick.Checkpoint: the world plus the resume tail as
	// they stand after tick tt.
	checkpoint := func(tt *TrackingTick) (*Checkpoint, error) {
		ck, err := world.Checkpoint(cfg.Census, trk.Targets())
		if err != nil {
			return nil, err
		}
		tot := out.TrackingTotals
		tot.TrackerTxs, tot.TrackerEther, tot.TrackerDuration = tt.Txs, tt.Ether, tt.TotalDuration
		ck.Tracking = &TrackingResume{Tracker: trk.State(), TicksDone: tt.Tick, EventIndex: churnSeen, TrackingTotals: tot}
		return ck, nil
	}

	for tick := startTick; tick < cfg.Ticks; tick++ {
		net.RunFor(tickSeconds)
		drainHints()

		t0 := net.Now()
		pm.SetPhase(fmt.Sprintf("tick-%d", tick+1))
		rep, err := trk.Tick()
		if err != nil {
			return nil, fmt.Errorf("tracking: tick %d: %w", tick+1, err)
		}
		drainHints()

		out.TrackerDuration += net.Now() - t0
		tt := TrackingTick{
			Tick:          tick + 1,
			Report:        rep,
			Score:         scoreEligible(trk.BeliefEdges(), net, targets),
			Txs:           baseTxs + ledger.PendingCount() + ledger.FutureCount(),
			Duration:      net.Now() - t0,
			Ether:         baseEther + core.Ether(ledger.WorstCaseWei()),
			TotalDuration: out.TrackerDuration,
			Net:           net,
			checkpoint:    checkpoint,
		}
		if err := verifyBeliefIncremental(trk.Belief()); err != nil {
			return nil, fmt.Errorf("tracking: tick %d: %w", tick+1, err)
		}
		if cfg.OnTick != nil {
			if err := cfg.OnTick(&tt); err != nil {
				return nil, fmt.Errorf("tracking: tick %d checkpoint: %w", tick+1, err)
			}
		}
		lg.Info(msgTickDone,
			obs.Int("tick", int64(tt.Tick)), obs.Int("planned", int64(rep.Planned)),
			obs.Int("urgent", int64(rep.Urgent)), obs.Int("changed", int64(rep.Changed)),
			obs.Int("failed", int64(rep.Failed)), obs.Float("recall", tt.Score.Recall()),
			obs.Int("cum_txs", int64(tt.Txs)))
		tt.Net, tt.checkpoint = nil, nil
		out.Ticks = append(out.Ticks, tt)
		recallSum += tt.Score.Recall()
		if r := tt.Score.Recall(); r < minRecall {
			minRecall = r
		}
	}

	out.TrackerTxs = baseTxs + ledger.PendingCount() + ledger.FutureCount()
	out.TrackerEther = baseEther + core.Ether(ledger.WorstCaseWei())
	out.ChurnEvents = churnSeen
	out.Belief = trk.BeliefEdges()
	out.FinalState = trk.State()
	out.Back = world.Inst.Back
	if n := len(out.Ticks); n > 0 {
		out.FinalScore = out.Ticks[n-1].Score
		out.MeanRecall = recallSum / float64(n)
		out.MinRecall = minRecall
	}
	return out, nil
}

// verifyBeliefIncremental cross-checks the belief Dynamic's incrementally
// maintained statistics against a from-scratch batch recompute of its
// snapshot, bit-for-bit. The comparisons are independent, so they fan out on
// the shared worker pool.
func verifyBeliefIncremental(d *graph.Dynamic) error {
	snap := d.Snapshot()
	checks := []struct {
		name      string
		inc, ref  float64
		exactInts [2]int
		isInt     bool
	}{
		{name: "nodes", exactInts: [2]int{d.NumNodes(), snap.NumNodes()}, isInt: true},
		{name: "edges", exactInts: [2]int{d.NumEdges(), snap.NumEdges()}, isInt: true},
		{name: "components", exactInts: [2]int{d.NumComponents(), len(snap.ConnectedComponents())}, isInt: true},
		{name: "avgdeg", inc: d.AverageDegree(), ref: snap.AverageDegree()},
		{name: "clustering", inc: d.ClusteringCoefficient(), ref: snap.ClusteringCoefficient()},
		{name: "transitivity", inc: d.Transitivity(), ref: snap.Transitivity()},
		{name: "assortativity", inc: d.DegreeAssortativity(), ref: snap.DegreeAssortativity()},
	}
	_, err := runner.MapErr(0, len(checks), func(i int) (struct{}, error) {
		c := checks[i]
		if c.isInt {
			if c.exactInts[0] != c.exactInts[1] {
				return struct{}{}, fmt.Errorf("belief %s: incremental %d != batch %d",
					c.name, c.exactInts[0], c.exactInts[1])
			}
			return struct{}{}, nil
		}
		if math.Float64bits(c.inc) != math.Float64bits(c.ref) {
			return struct{}{}, fmt.Errorf("belief %s: incremental %v != batch %v (bit mismatch)",
				c.name, c.inc, c.ref)
		}
		return struct{}{}, nil
	})
	return err
}

// FormatTracking renders the per-tick trajectory and the cost/recall summary.
func FormatTracking(t *Tracking) string {
	var b strings.Builder
	fmt.Fprintf(&b, "incremental tracking: %s n=%d seed=%d — %d targets, %d ticks, budget %d pairs/tick\n",
		t.Config.Census.Name, t.Config.Census.Grow.N, t.Config.Census.Seed,
		t.Targets, len(t.Ticks), t.Config.Tracker.Budget)
	fmt.Fprintf(&b, "seeding census: %d txs, %.4f ETH, %.2f virtual h, %v\n",
		t.BaselineTxs, t.BaselineEther, t.BaselineDuration/3600, t.CensusScore)
	fmt.Fprintf(&b, "%5s %7s %7s %7s %7s %8s %8s %8s\n",
		"tick", "planned", "urgent", "changed", "failed", "recall", "prec", "cum-txs")
	for _, tt := range t.Ticks {
		fmt.Fprintf(&b, "%5d %7d %7d %7d %7d %8.4f %8.4f %8d\n",
			tt.Tick, tt.Report.Planned, tt.Report.Urgent, tt.Report.Changed, tt.Report.Failed,
			tt.Score.Recall(), tt.Score.Precision(), tt.Txs)
	}
	fmt.Fprintf(&b, "churn: %d events over %d ticks\n", t.ChurnEvents, len(t.Ticks))
	fmt.Fprintf(&b, "tracker: %d txs, %.4f ETH, %.2f virtual h of probing\n",
		t.TrackerTxs, t.TrackerEther, t.TrackerDuration/3600)
	fmt.Fprintf(&b, "vs census-per-tick: %.1fx fewer txs, %.1fx less virtual time; recall loss %.4f (mean %.4f, min %.4f)\n",
		t.CostReductionX(), t.VirtualReductionX(), t.RecallLoss(), t.MeanRecall, t.MinRecall)
	return b.String()
}

// FormatTrackingCost renders the per-phase probe-cost table from the run's
// attribution ledger — the numbers are aggregated from per-record
// attribution, which RunTracking cross-checked against the measurers' own
// counters before returning.
func FormatTrackingCost(t *Tracking) string {
	if t.CostLedger.Len() == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("cost attribution (aggregated from the probe ledger):\n")
	fmt.Fprintf(&b, "  %-10s %8s %6s %9s %8s %8s %8s %10s\n",
		"phase", "records", "pairs", "detected", "pending", "futures", "txs", "fee-ETH")
	row := func(name string, c obs.CostTotals) {
		fmt.Fprintf(&b, "  %-10s %8d %6d %9d %8d %8d %8d %10.4f\n",
			name, c.Records, c.Pairs, c.Detected, c.Pending, c.Futures, c.Txs(), c.FeeEther())
	}
	for _, p := range t.CostLedger.ByPhase() {
		row(p.Phase, p.CostTotals)
	}
	row("total", t.CostLedger.Totals())
	return b.String()
}

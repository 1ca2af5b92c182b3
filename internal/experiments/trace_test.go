package experiments

import (
	"slices"
	"testing"

	"toposhot/internal/core"
	"toposhot/internal/netgen"
	"toposhot/internal/trace"
	"toposhot/internal/types"
)

type offerEv struct {
	node, from types.NodeID
	status     string
	at         float64
	tx         *types.Transaction
}

// fpCensus builds the seeded N=200 world and runs the K=20 census over it.
// A non-nil trail installs the offer hook, recording up to 3 000 offers per
// transaction hash; the hook only observes, so the census is the same run
// either way.
func fpCensus(t *testing.T, trail map[types.Hash][]offerEv) (*core.ScheduleResult, *core.EdgeSet, types.NodeID) {
	t.Helper()
	cfg := RopstenCensus(42)
	cfg.Grow.N = 200
	cfg.Het = netgen.Uniform()
	cfg.GroupK = 20
	cfg.Prefill = 300

	world := cfg.World(netgen.Grow(cfg.Grow)).Build()
	net := world.Net
	if trail != nil {
		net.OnOffer = func(node, from types.NodeID, tx *types.Transaction, status string) {
			h := tx.Hash()
			if len(trail[h]) < 3000 {
				trail[h] = append(trail[h], offerEv{node, from, status, net.Now(), tx})
			}
		}
	}
	world.StartTraffic()
	m := world.Measurer(cfg.World(nil).Params())
	res, err := m.MeasureNetwork(world.Inst.IDs, cfg.GroupK, cfg.EdgeBudget)
	if err != nil {
		t.Fatal(err)
	}
	return res, core.EdgeSetOf(net.Edges()), world.Super.ID()
}

// TestTraceFalsePositive is the regression guard for the drain-rate fix:
// isolation must hold at this scale and schedule (K=20, n=200). The offer
// trail that explains a false positive costs more than the census itself to
// record, so it is recorded only when there is one to explain: the same
// seeded world is rebuilt with the hook on and the first few trails printed.
func TestTraceFalsePositive(t *testing.T) {
	t.Parallel() // one serial engine for 18 s; it shares the wait with the figure ledger
	res, truth, superID := fpCensus(t, nil)
	sc := core.ScoreAgainst(res.Detected, truth, func(id types.NodeID) bool { return id != superID })
	t.Logf("score %v", sc)
	if sc.FalsePositives > 0 {
		trail := make(map[types.Hash][]offerEv)
		res, truth, _ = fpCensus(t, trail)
		logFalsePositiveTrails(t, res, truth, trail)
	}
	if sc.Precision() < 0.99 {
		t.Errorf("precision regressed: %v", sc)
	}
	if sc.Recall() < 0.95 {
		t.Errorf("recall regressed: %v", sc)
	}
}

// TestCensusSpanTree: RunCensus and every region of RunScaleCensus run the
// one census body, so each of their lanes carries the same span tree: a
// census span whose children are the build, the prefill, pre-processing,
// core's network campaign and the scoring, in that order.
func TestCensusSpanTree(t *testing.T) {
	prev := trace.Enabled()
	tr := trace.New(trace.Options{Level: trace.LevelMeasure, Deterministic: true, Capacity: 1 << 16})
	trace.Enable(tr)
	defer trace.Enable(prev)

	cfg := GoerliCensus(7)
	cfg.Grow = cfg.Grow.WithN(16)
	if _, err := RunCensus(cfg); err != nil {
		t.Fatal(err)
	}
	scfg := scaleTestConfig(7)
	scfg.Grow, scfg.Regions = scfg.Grow.WithN(40), 2
	if _, err := RunScaleCensus(scfg); err != nil {
		t.Fatal(err)
	}

	want := []string{spanCensusBuild, spanCensusPrefill, spanPreprocess, core.SpanNetwork, spanCensusScore}
	lanes := map[string]bool{"census:" + censusKey(cfg): true, "scale:scaletest/7/r0": true, "scale:scaletest/7/r1": true}
	for _, lane := range tr.Snapshot().Lanes {
		if !lanes[lane.Name] {
			continue
		}
		delete(lanes, lane.Name)
		var census uint64
		var children []string
		for _, r := range lane.Records {
			switch {
			case r.Kind != trace.KindSpan:
			case r.Name == spanCensus && r.Parent == 0:
				census = r.ID
			case census != 0 && r.Parent == census:
				children = append(children, r.Name)
			}
		}
		if census == 0 || lane.Dropped > 0 || !slices.Equal(children, want) {
			t.Errorf("lane %s: census span %d (%d records dropped) with children %v, want %v",
				lane.Name, census, lane.Dropped, children, want)
		}
	}
	if len(lanes) > 0 {
		t.Errorf("lanes missing from the trace: %v", lanes)
	}
}

// logFalsePositiveTrails prints, for up to three falsely detected edges, where
// txA was admitted (the leak path) and what its sender's sibling transactions
// did on those nodes.
func logFalsePositiveTrails(t *testing.T, res *core.ScheduleResult, truth *core.EdgeSet, trace map[types.Hash][]offerEv) {
	shown := 0
	for _, e := range res.Detected.Edges() {
		if truth.Has(e[0], e[1]) || shown >= 3 {
			continue
		}
		shown++
		h := res.DetectedVia[e]
		t.Logf("FP edge %v-%v via txA %v; admissions in trail (len %d):", e[0], e[1], h, len(trace[h]))
		for _, ev := range trace[h] {
			if ev.status == "underpriced" || ev.status == "known" {
				continue
			}
			t.Logf("  t=%9.2f node=%v from=%v status=%s", ev.at, ev.node, ev.from, ev.status)
		}
		acct := trace[h][0].tx.From
		// Watch the nodes that admitted txA (the leak path).
		watch := map[types.NodeID]bool{}
		for _, ev := range trace[h] {
			if ev.status != "underpriced" && ev.status != "known" {
				watch[ev.node] = true
			}
		}
		for ch, evs := range trace {
			if len(evs) == 0 || evs[0].tx.From != acct || ch == h {
				continue
			}
			t.Logf("sibling %v price=%d trail on leak nodes:", ch, evs[0].tx.GasPrice)
			for _, ev := range evs {
				if watch[ev.node] {
					t.Logf("  t=%9.2f node=%v from=%v status=%s", ev.at, ev.node, ev.from, ev.status)
				}
			}
		}
	}
}

package main

import (
	"reflect"
	"sort"
	"testing"

	"toposhot/internal/core"
	"toposhot/internal/ethsim"
	"toposhot/internal/experiments"
)

// TestComposedCensusMatchesRunCensus keeps census_goerli honest: the census
// the harness composes from public calls must be the campaign
// experiments.RunCensus runs, or its timings describe something the product
// never does.
func TestComposedCensusMatchesRunCensus(t *testing.T) {
	cfg := experiments.GoerliCensus(5)
	cfg.Grow = cfg.Grow.WithN(32)

	want, err := experiments.RunCensus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	got, err := composeCensus(cfg, &meter{}, func(*core.CampaignState) error { batches++; return nil })
	if err != nil {
		t.Fatal(err)
	}

	if got.score != want.Score {
		t.Errorf("score %v, RunCensus %v", got.score, want.Score)
	}
	var edges [][2]int
	for _, e := range got.res.Detected.Edges() {
		a, b := got.inst.Back[e[0]], got.inst.Back[e[1]]
		if a > b {
			a, b = b, a
		}
		edges = append(edges, [2]int{a, b})
	}
	sort.Slice(edges, func(i, j int) bool {
		return edges[i][0] < edges[j][0] || (edges[i][0] == edges[j][0] && edges[i][1] < edges[j][1])
	})
	if wantEdges := want.Measured.Edges(); !reflect.DeepEqual(edges, wantEdges) {
		t.Errorf("detected %d edges, RunCensus %d; the sets differ", len(edges), len(wantEdges))
	}
	if msgs := got.net.MsgCounts(); !reflect.DeepEqual(msgs, want.MsgCount) {
		t.Errorf("messages %v, RunCensus %v", msgs, want.MsgCount)
	}
	if h := got.res.Duration / 3600; h != want.DurationHours {
		t.Errorf("virtual duration %v h, RunCensus %v h", h, want.DurationHours)
	}
	if eth := core.Ether(got.measurer.Ledger.WorstCaseWei()); eth != want.CostEther {
		t.Errorf("cost %v ETH, RunCensus %v ETH", eth, want.CostEther)
	}
	if len(got.targets) != want.Eligible || got.res.Calls != want.Calls || batches != want.Calls {
		t.Errorf("eligible %d calls %d batches %d, RunCensus eligible %d calls %d",
			len(got.targets), got.res.Calls, batches, want.Eligible, want.Calls)
	}
}

// TestRunForSlicesEqualOneRun: gossip_flood advances the clock in slices to
// get step timings; that must simulate exactly what one long RunFor does.
func TestRunForSlicesEqualOneRun(t *testing.T) {
	sz := smokeSizes
	state := func(net *ethsim.Network) []interface{} {
		held := 0
		for _, nd := range net.Nodes() {
			held += nd.Pool().Len()
		}
		return []interface{}{net.MsgCounts(), net.Engine().SeqCount(), net.Now(), held}
	}

	sliced, _ := buildGossip(3, sz, &meter{})
	startGossip(sliced, sz)
	for i := 0; i < sz.GossipSlices; i++ {
		sliced.RunFor(sz.GossipSlice)
	}
	whole, _ := buildGossip(3, sz, &meter{})
	startGossip(whole, sz)
	whole.RunFor(sz.GossipSlice * float64(sz.GossipSlices))

	if a, b := state(sliced), state(whole); !reflect.DeepEqual(a, b) {
		t.Errorf("%d slices left %v, one run left %v", sz.GossipSlices, a, b)
	}
	if state(sliced)[3].(int) == 0 {
		t.Error("no transaction reached any pool: the comparison is vacuous")
	}
}

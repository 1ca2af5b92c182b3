package strategy

import (
	"toposhot/internal/core"
	"toposhot/internal/types"
)

// dethnaRepeats is the number of OR-ed marks per target.
const dethnaRepeats = 2

// DEthna implements DEthna-style marked-transaction inference
// (arXiv:2402.03881): inject a unique, freshly-sendered "mark" transaction
// directly at a target node a and watch, at M, *when* every other peer first
// evidences possession of the mark (push delivery or hash announcement). The
// gossip relay never returns a transaction to the peer it arrived from, so a
// itself stays silent and the earliest evidence always comes from one of a's
// direct neighbors: it relayed the mark one flush interval after a's
// broadcast. Peers whose first evidence lands within one hop (the vantage's
// Hop) of that earliest arrival are claimed as a's neighbors. Each mark is
// watched for X/4, a quarter of TopoShot's flood wait.
//
// The window cannot be exact: a one-hop neighbor that drew the announce path
// (announce → request → reply, three extra link latencies) can evidence later
// than a fast two-hop chain, so DEthna trades TopoShot's guaranteed precision
// for a per-node cost of dethnaRepeats pending transactions — no futures, no
// eviction. Repeated marks re-randomize the push/announce draw and are OR-ed, the
// same passive recall heuristic as §5.2.3.
type DEthna struct {
	v core.Vantage
	p core.Params

	mint   accountMinter
	ledger *core.Ledger

	// neighbors holds the claimed one-hop sets per probed target.
	neighbors map[types.NodeID]map[types.NodeID]bool
	probed    map[types.NodeID]bool
}

// NewDEthna wires the strategy to a vantage, watching each mark p.X/4.
func NewDEthna(v core.Vantage, p core.Params) *DEthna {
	return &DEthna{
		v: v, p: p,
		mint:      minter(types.SpaceDEthna),
		ledger:    core.NewLedger(),
		neighbors: make(map[types.NodeID]map[types.NodeID]bool),
		probed:    make(map[types.NodeID]bool),
	}
}

// Name implements Strategy.
func (d *DEthna) Name() string { return "dethna" }

// Prepare probes every node referenced by the pair list once (marks are
// per-target, so a node appearing in many pairs costs no extra probes).
func (d *DEthna) Prepare(pairs [][2]types.NodeID) error {
	if err := reachPairs(d.v, pairs); err != nil {
		return err
	}
	for _, pr := range pairs {
		for _, id := range pr {
			if err := d.probeTarget(id); err != nil {
				return err
			}
		}
	}
	return nil
}

// probeTarget runs the dethnaRepeats-marked inference for one target,
// memoizing.
func (d *DEthna) probeTarget(a types.NodeID) error {
	if d.probed[a] {
		return nil
	}
	if err := reach(d.v, a); err != nil {
		return err
	}
	d.probed[a] = true
	d.v.Retire()
	set := make(map[types.NodeID]bool)
	d.neighbors[a] = set
	window := d.v.Hop()
	for r := 0; r < dethnaRepeats; r++ {
		sender := d.mint.fresh()
		mark := types.NewTransaction(sender, d.mint.fresh(), 0, probePrice, 0)
		checkFrom := d.v.Now()
		d.ledger.RecordPending(mark)
		if err := d.v.Inject(a, mark); err != nil {
			return err
		}
		d.v.Wait(d.p.X / 4)
		times := core.FirstEvidence(d.v.Sightings(mark.Hash(), checkFrom))
		if len(times) == 0 {
			continue
		}
		t1 := times[0].At
		for _, pt := range times {
			if pt.Peer != a && pt.At <= t1+window {
				set[pt.Peer] = true
			}
		}
	}
	return nil
}

// MeasurePair claims the link when either endpoint's inferred neighbor set
// contains the other (a link is reachable from both of its ends).
func (d *DEthna) MeasurePair(a, b types.NodeID) (Claim, error) {
	if err := d.probeTarget(a); err != nil {
		return Claim{}, err
	}
	if err := d.probeTarget(b); err != nil {
		return Claim{}, err
	}
	if d.neighbors[a][b] || d.neighbors[b][a] {
		return Claim{Detected: true, Verdict: "marked-one-hop"}, nil
	}
	return Claim{Verdict: "unmarked"}, nil
}

// Ledger implements Strategy: dethnaRepeats pending transactions per probed
// target.
func (d *DEthna) Ledger() *core.Ledger { return d.ledger }

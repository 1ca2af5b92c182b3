package strategy

import (
	"toposhot/internal/core"
	"toposhot/internal/ethsim"
	"toposhot/internal/types"
)

// DEthna's mark schedule: dethnaRepeats OR-ed marks per target, each watched
// for dethnaSettle virtual seconds.
const (
	dethnaRepeats = 2
	dethnaSettle  = 2.5
)

// DEthna implements DEthna-style marked-transaction inference
// (arXiv:2402.03881): inject a unique, freshly-sendered "mark" transaction
// directly at a target node a and watch, at the supernode, *when* every other
// peer first evidences possession of the mark (push delivery or hash
// announcement). The gossip relay never returns a transaction to the peer it
// arrived from, so a itself stays silent and the earliest evidence always
// comes from one of a's direct neighbors: it relayed the mark one flush
// interval after a's broadcast. Peers whose first evidence lands within a
// short window of that earliest arrival are claimed as a's neighbors.
//
// The window cannot be exact: a one-hop neighbor that drew the announce path
// (announce → request → reply, three extra link latencies) can evidence later
// than a fast two-hop chain, so DEthna trades TopoShot's guaranteed precision
// for a per-node cost of dethnaRepeats pending transactions — no futures, no
// eviction. Repeated marks re-randomize the push/announce draw and are OR-ed, the
// same passive recall heuristic as §5.2.3.
type DEthna struct {
	net   *ethsim.Network
	super *ethsim.Supernode

	mint    accountMinter
	pending int

	// neighbors holds the claimed one-hop sets per probed target.
	neighbors map[types.NodeID]map[types.NodeID]bool
	probed    map[types.NodeID]bool
}

// NewDEthna wires the strategy to a network and supernode.
func NewDEthna(net *ethsim.Network, super *ethsim.Supernode) *DEthna {
	return &DEthna{
		net: net, super: super,
		mint:      minter(types.SpaceDEthna),
		neighbors: make(map[types.NodeID]map[types.NodeID]bool),
		probed:    make(map[types.NodeID]bool),
	}
}

// Name implements Strategy.
func (d *DEthna) Name() string { return "dethna" }

// hopWindow resolves the one-hop attribution window. The earliest evidence is
// a push-path neighbor (a's flush + one hop + the neighbor's flush + one
// hop); the slowest same-hop sibling differs by push/announce path choice and
// latency jitter, while the fastest two-hop chain trails its relay by at
// least another flush interval plus a hop. Half a flush interval plus one
// typical hop splits those populations as well as timing alone can.
func (d *DEthna) hopWindow() float64 {
	cfg := d.net.Config()
	return cfg.FlushInterval/2 + cfg.LatencyBase + cfg.LatencyTail
}

// Prepare probes every node referenced by the pair list once (marks are
// per-target, so a node appearing in many pairs costs no extra probes).
func (d *DEthna) Prepare(pairs [][2]types.NodeID) error {
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
	if d.net.Node(a) == nil {
		return UnknownNodeError{ID: a}
	}
	d.probed[a] = true
	set := make(map[types.NodeID]bool)
	d.neighbors[a] = set
	window := d.hopWindow()
	for r := 0; r < dethnaRepeats; r++ {
		sender := d.mint.fresh()
		mark := types.NewTransaction(sender, d.mint.fresh(), 0, probePrice, 0)
		checkFrom := d.net.Now()
		d.super.Inject(a, mark)
		d.pending++
		d.net.RunFor(dethnaSettle)
		times := core.FirstEvidence(d.super.Sightings(mark.Hash(), checkFrom))
		if len(times) == 0 {
			continue
		}
		t1 := times[0].At
		for _, pt := range times {
			if pt.Peer == a || pt.Peer == d.super.ID() {
				continue
			}
			if pt.At <= t1+window {
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

// Cost implements Strategy: dethnaRepeats pending transactions per probed
// target.
func (d *DEthna) Cost() Cost { return Cost{PendingTxs: d.pending} }

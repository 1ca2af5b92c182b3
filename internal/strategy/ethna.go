package strategy

import (
	"math"

	"toposhot/internal/core"
	"toposhot/internal/ethsim"
	"toposhot/internal/gossip"
	"toposhot/internal/types"
)

// Ethna's sweep: each sample is watched for ethnaSettle virtual seconds, the
// time its flood takes to reach every node, and degree inversion searches
// peer counts up to ethnaMaxDegree.
const (
	ethnaSettle    = 2.5
	ethnaMaxDegree = 256
)

// Ethna implements Ethna-style degree inference (arXiv:2010.01373) from the
// message redundancy a supernode observes. A relaying node with d peers
// pushes each transaction whole to ⌈√d⌉ of them and announces only the hash
// to the rest, so over many flooded sample transactions the fraction of
// *pushes* among a peer's first evidences at the supernode estimates
// r = ⌈√d⌉/d — invertible to a degree estimate d̂.
//
// Ethna infers degrees, not links. Its MeasurePair answers through a
// Chung-Lu plausibility bound — claim a–b when d̂a·d̂b/(2m̂) ≥ ½ — which on
// any sparse network essentially never fires: the honest head-to-head
// outcome is near-zero recall with vacuous precision, at the lowest probe
// cost of all methods (Samples pending transactions for the whole campaign,
// amortized over every pair).
type Ethna struct {
	net   *ethsim.Network
	super *ethsim.Supernode

	// Samples is the number of flooded sample transactions.
	Samples int

	mint    accountMinter
	pending int

	prepared bool
	// est maps node id → estimated degree (supernode link excluded);
	// estTotal is their sum (2m̂ for the Chung-Lu bound).
	est      map[types.NodeID]int
	estTotal int
}

// NewEthna wires the strategy to a network and supernode.
func NewEthna(net *ethsim.Network, super *ethsim.Supernode) *Ethna {
	return &Ethna{
		net: net, super: super,
		Samples: 24,
		mint:    minter(types.SpaceEthna),
		est:     make(map[types.NodeID]int),
	}
}

// Name implements Strategy.
func (e *Ethna) Name() string { return "ethna" }

// Prepare floods the sample transactions and fits per-node degrees. The
// sweep is campaign-global — pair arguments only trigger validation.
func (e *Ethna) Prepare(pairs [][2]types.NodeID) error {
	for _, pr := range pairs {
		for _, id := range pr {
			if e.net.Node(id) == nil {
				return UnknownNodeError{ID: id}
			}
		}
	}
	e.sweep()
	return nil
}

// sweep injects Samples transactions at rotating entry nodes and tallies,
// per peer, how often its first evidence at the supernode was a push.
func (e *Ethna) sweep() {
	if e.prepared {
		return
	}
	e.prepared = true
	var entries []types.NodeID
	for _, nd := range e.net.Nodes() {
		if nd.ID() == e.super.ID() {
			continue
		}
		entries = append(entries, nd.ID())
	}
	if len(entries) == 0 {
		return
	}
	pushes := make(map[types.NodeID]int)
	seen := make(map[types.NodeID]int)
	for s := 0; s < e.Samples; s++ {
		sender := e.mint.fresh()
		tx := types.NewTransaction(sender, e.mint.fresh(), 0, probePrice, 0)
		checkFrom := e.net.Now()
		// Rotate the entry node so no peer is systematically the silent
		// origin (a node never relays back to the peer it received from, so
		// the entry contributes no evidence for its own sample).
		e.super.Inject(entries[s%len(entries)], tx)
		e.pending++
		e.net.RunFor(ethnaSettle)
		for _, pt := range core.FirstEvidence(e.super.Sightings(tx.Hash(), checkFrom)) {
			seen[pt.Peer]++
			if pt.Pushed {
				pushes[pt.Peer]++
			}
		}
	}
	// Fit degrees in creation order (deterministic iteration).
	for _, nd := range e.net.Nodes() {
		id := nd.ID()
		if id == e.super.ID() || seen[id] == 0 {
			continue
		}
		r := float64(pushes[id]) / float64(seen[id])
		// invert r ≈ ⌈√d⌉/d over the peer count d (supernode link included),
		// then drop the supernode link from the reported degree.
		d := invertPushRatio(r, ethnaMaxDegree)
		e.est[id] = d - 1
		e.estTotal += d - 1
	}
}

// invertPushRatio returns the peer count d ∈ [1, max] whose push share
// ⌈√d⌉/d lies closest to the observed ratio (smallest d wins ties).
func invertPushRatio(r float64, max int) int {
	best, bestDiff := 1, math.Inf(1)
	for d := 1; d <= max; d++ {
		share := float64(gossip.PushCount(d, false)) / float64(d)
		if diff := math.Abs(share - r); diff < bestDiff {
			best, bestDiff = d, diff
		}
	}
	return best
}

// MeasurePair applies the Chung-Lu bound to the fitted degrees.
func (e *Ethna) MeasurePair(a, b types.NodeID) (Claim, error) {
	if e.net.Node(a) == nil {
		return Claim{}, UnknownNodeError{ID: a}
	}
	if e.net.Node(b) == nil {
		return Claim{}, UnknownNodeError{ID: b}
	}
	e.sweep()
	if e.estTotal > 0 {
		p := float64(e.est[a]) * float64(e.est[b]) / float64(e.estTotal)
		if p >= 0.5 {
			return Claim{Detected: true, Verdict: "degree-likely"}, nil
		}
	}
	return Claim{Verdict: "degree-unlikely"}, nil
}

// MeanAbsDegreeError scores the fitted degrees against the network's ground
// truth, excluding each node's supernode link; it returns the mean absolute
// error over estimated nodes, and 0 when nothing was estimated.
func (e *Ethna) MeanAbsDegreeError() float64 {
	sum, n := 0, 0
	for _, nd := range e.net.Nodes() {
		d, ok := e.est[nd.ID()]
		if !ok {
			continue
		}
		truth := nd.Degree()
		if e.net.Connected(nd.ID(), e.super.ID()) {
			truth--
		}
		diff := d - truth
		if diff < 0 {
			diff = -diff
		}
		sum += diff
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Cost implements Strategy: Samples pending transactions for the whole
// campaign.
func (e *Ethna) Cost() Cost { return Cost{PendingTxs: e.pending} }

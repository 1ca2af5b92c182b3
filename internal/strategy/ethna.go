package strategy

import (
	"math"

	"toposhot/internal/core"
	"toposhot/internal/gossip"
	"toposhot/internal/types"
)

// ethnaMaxDegree bounds the peer counts degree inversion searches.
const ethnaMaxDegree = 256

// Ethna implements Ethna-style degree inference (arXiv:2010.01373) from the
// message redundancy M observes. A relaying node with d peers pushes each
// transaction whole to ⌈√d⌉ of them and announces only the hash to the rest,
// so over many flooded sample transactions the fraction of *pushes* among a
// peer's first evidences at M estimates r = ⌈√d⌉/d — invertible to a degree
// estimate d̂. Each sample is watched for X/4, the time its flood takes to
// reach every node.
//
// Ethna infers degrees, not links. Its MeasurePair answers through a
// Chung-Lu plausibility bound — claim a–b when d̂a·d̂b/(2m̂) ≥ ½ — which on
// any sparse network essentially never fires: the honest head-to-head
// outcome is near-zero recall with vacuous precision, at the lowest probe
// cost of all methods (Samples pending transactions for the whole campaign,
// amortized over every pair).
type Ethna struct {
	v core.Vantage
	p core.Params

	// Samples is the number of flooded sample transactions.
	Samples int

	mint   accountMinter
	ledger *core.Ledger

	prepared bool
	// est maps node id → estimated degree (M's link excluded); estTotal is
	// their sum (2m̂ for the Chung-Lu bound).
	est      map[types.NodeID]int
	estTotal int
}

// NewEthna wires the strategy to a vantage, watching each sample p.X/4.
func NewEthna(v core.Vantage, p core.Params) *Ethna {
	return &Ethna{
		v: v, p: p,
		Samples: 24,
		mint:    minter(types.SpaceEthna),
		ledger:  core.NewLedger(),
		est:     make(map[types.NodeID]int),
	}
}

// Name implements Strategy.
func (e *Ethna) Name() string { return "ethna" }

// Prepare floods the sample transactions and fits per-node degrees. The
// sweep is campaign-global — pair arguments only trigger validation.
func (e *Ethna) Prepare(pairs [][2]types.NodeID) error {
	if err := reachPairs(e.v, pairs); err != nil {
		return err
	}
	return e.sweep()
}

// sweep injects Samples transactions at M's peers in rotation and tallies,
// per peer, how often its first evidence at M was a push.
func (e *Ethna) sweep() error {
	if e.prepared {
		return nil
	}
	e.prepared = true
	entries := e.v.Peers()
	if len(entries) == 0 {
		return nil
	}
	e.v.Retire()
	pushes := make(map[types.NodeID]int)
	seen := make(map[types.NodeID]int)
	for s := 0; s < e.Samples; s++ {
		sender := e.mint.fresh()
		tx := types.NewTransaction(sender, e.mint.fresh(), 0, probePrice, 0)
		checkFrom := e.v.Now()
		// Rotate the entry node so no peer is systematically the silent
		// origin (a node never relays back to the peer it received from, so
		// the entry contributes no evidence for its own sample).
		e.ledger.RecordPending(tx)
		if err := e.v.Inject(entries[s%len(entries)], tx); err != nil {
			return err
		}
		e.v.Wait(e.p.X / 4)
		for _, pt := range core.FirstEvidence(e.v.Sightings(tx.Hash(), checkFrom)) {
			seen[pt.Peer]++
			if pt.Pushed {
				pushes[pt.Peer]++
			}
		}
	}
	for _, id := range entries {
		if seen[id] == 0 {
			continue
		}
		r := float64(pushes[id]) / float64(seen[id])
		// invert r ≈ ⌈√d⌉/d over the peer count d (M's link included), then
		// drop M's link from the reported degree.
		d := invertPushRatio(r, ethnaMaxDegree)
		e.est[id] = d - 1
		e.estTotal += d - 1
	}
	return nil
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
	if err := reach(e.v, a, b); err != nil {
		return Claim{}, err
	}
	if err := e.sweep(); err != nil {
		return Claim{}, err
	}
	if e.estTotal > 0 {
		p := float64(e.est[a]) * float64(e.est[b]) / float64(e.estTotal)
		if p >= 0.5 {
			return Claim{Detected: true, Verdict: "degree-likely"}, nil
		}
	}
	return Claim{Verdict: "degree-unlikely"}, nil
}

// Degrees returns the fitted degree of every peer the sweep heard from, M's
// link excluded. The map is the strategy's own: read it, do not keep it.
func (e *Ethna) Degrees() map[types.NodeID]int { return e.est }

// Ledger implements Strategy: Samples pending transactions for the whole
// campaign.
func (e *Ethna) Ledger() *core.Ledger { return e.ledger }

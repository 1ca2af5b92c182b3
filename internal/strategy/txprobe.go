package strategy

import (
	"toposhot/internal/core"
	"toposhot/internal/types"
)

// TxProbe ports TxProbe's Bitcoin topology-inference protocol onto an
// Ethereum network: to test the link A–B it sends conflicting ("double
// spend" — same sender and nonce) transactions tx1 to A and tx1' to B, then
// a child transaction txA (next nonce) to A, and watches whether txA shows
// up at B. Under Bitcoin's UTXO model txA is an orphan on B's side of the
// network and stops propagating; under Ethereum's account model txA is a
// perfectly valid pending transaction everywhere — nonce 1 is executable on
// top of *either* conflicting nonce-0 transaction — so it floods the whole
// network and the method reports links that do not exist (Appendix A).
//
// It waits as TopoShot does: X for the conflicting pair to propagate, then
// SettleTime for the marker to reach B.
type TxProbe struct {
	v core.Vantage
	p core.Params

	mint   accountMinter
	ledger *core.Ledger
}

// NewTxProbe wires the baseline to a vantage, waiting p.X and p.SettleTime.
func NewTxProbe(v core.Vantage, p core.Params) *TxProbe {
	return &TxProbe{v: v, p: p, mint: minter(types.SpaceTxProbe), ledger: core.NewLedger()}
}

// Name implements Strategy.
func (p *TxProbe) Name() string { return "txprobe" }

// Prepare implements Strategy; TxProbe probes per pair, so it only validates.
func (p *TxProbe) Prepare(pairs [][2]types.NodeID) error { return reachPairs(p.v, pairs) }

// MeasurePair runs the TxProbe protocol against nodes a and b.
func (p *TxProbe) MeasurePair(a, b types.NodeID) (Claim, error) {
	if err := reach(p.v, a, b); err != nil {
		return Claim{}, err
	}
	p.v.Retire()
	sender := p.mint.fresh()
	// The "double spend": same sender+nonce, different receivers.
	tx1 := types.NewTransaction(sender, p.mint.fresh(), 0, probePrice, 0)
	tx1p := types.NewTransaction(sender, p.mint.fresh(), 0, probePrice, 0)
	p.ledger.RecordPending(tx1)
	p.ledger.RecordPending(tx1p)
	if err := p.v.Inject(a, tx1); err != nil {
		return Claim{}, err
	}
	if err := p.v.Inject(b, tx1p); err != nil {
		return Claim{}, err
	}
	p.v.Wait(p.p.X)

	// The marker transaction: child of tx1, sent to A only.
	txA := types.NewTransaction(sender, p.mint.fresh(), 1, probePrice, 0)
	checkFrom := p.v.Now()
	p.ledger.RecordPending(txA)
	if err := p.v.Inject(a, txA); err != nil {
		return Claim{}, err
	}
	p.v.Wait(p.p.SettleTime)
	for _, s := range p.v.Sightings(txA.Hash(), checkFrom) {
		if s.Peer == b {
			return Claim{Detected: true, Verdict: "marker-possessed"}, nil
		}
	}
	return Claim{Verdict: "marker-absent"}, nil
}

// Ledger implements Strategy: three pending-class transactions per pair.
func (p *TxProbe) Ledger() *core.Ledger { return p.ledger }

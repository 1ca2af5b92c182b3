package strategy

import (
	"toposhot/internal/ethsim"
	"toposhot/internal/types"
)

// TxProbe's waits, in virtual seconds: txProbeX lets the conflicting pair
// propagate, txProbeSettle lets the marker reach B.
const (
	txProbeX      = 10
	txProbeSettle = 6
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
type TxProbe struct {
	net   *ethsim.Network
	super *ethsim.Supernode

	mint    accountMinter
	pending int
}

// NewTxProbe wires the baseline to a network and supernode.
func NewTxProbe(net *ethsim.Network, super *ethsim.Supernode) *TxProbe {
	return &TxProbe{net: net, super: super, mint: minter(types.SpaceTxProbe)}
}

// Name implements Strategy.
func (p *TxProbe) Name() string { return "txprobe" }

// Prepare implements Strategy; TxProbe probes per pair.
func (p *TxProbe) Prepare(pairs [][2]types.NodeID) error { return nil }

// MeasurePair runs the TxProbe protocol against nodes a and b.
func (p *TxProbe) MeasurePair(a, b types.NodeID) (Claim, error) {
	if p.net.Node(a) == nil {
		return Claim{}, UnknownNodeError{ID: a}
	}
	if p.net.Node(b) == nil {
		return Claim{}, UnknownNodeError{ID: b}
	}
	sender := p.mint.fresh()
	// The "double spend": same sender+nonce, different receivers.
	tx1 := types.NewTransaction(sender, p.mint.fresh(), 0, probePrice, 0)
	tx1p := types.NewTransaction(sender, p.mint.fresh(), 0, probePrice, 0)
	p.super.Inject(a, tx1)
	p.super.Inject(b, tx1p)
	p.pending += 2
	p.net.RunFor(txProbeX)

	// The marker transaction: child of tx1, sent to A only.
	txA := types.NewTransaction(sender, p.mint.fresh(), 1, probePrice, 0)
	checkFrom := p.net.Now()
	p.super.Inject(a, txA)
	p.pending++
	p.net.RunFor(txProbeSettle)
	for _, s := range p.super.Sightings(txA.Hash(), checkFrom) {
		if s.Peer == b {
			return Claim{Detected: true, Verdict: "marker-possessed"}, nil
		}
	}
	return Claim{Verdict: "marker-absent"}, nil
}

// Cost implements Strategy: three pending-class transactions per pair.
func (p *TxProbe) Cost() Cost { return Cost{PendingTxs: p.pending} }

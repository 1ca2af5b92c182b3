// Package strategy frames topology inference as a pluggable measurement
// pipeline — probe plan → inject → observe → verdict — so competing methods
// run head-to-head through the same vantage (core.Vantage): the simulator's
// supernode on virtual time, or a live node over loopback on wall time.
//
// Four built-in strategies cover the paper's comparison space:
//
//   - toposhot — the paper's replacement/eviction primitive (core.Measurer):
//     exact but expensive (thousands of future transactions per pair).
//   - dethna — DEthna-style marked transactions (arXiv:2402.03881): inject a
//     unique mark at a target and attribute its one-hop spread from per-peer
//     possession times at the supernode. Cheap (a handful of pending
//     transactions per node) but timing-noisy.
//   - txprobe — TxProbe's conflict/marker protocol (arXiv:1812.00942), whose
//     UTXO-orphan isolation collapses under Ethereum's account model: the
//     marker stays valid everywhere, floods, and yields false positives
//     (Appendix A).
//   - ethna — Ethna-style degree inference (arXiv:2010.01373) from message
//     redundancy: the push/announce ratio a peer shows the supernode estimates
//     ⌈√d⌉/d. It recovers degrees, not links; its link claims go through a
//     Chung-Lu plausibility bound that essentially never fires.
//
// Each strategy mints probe accounts in its own namespace
// (types.NamespacedAddress), so strategies sharing one network can never
// collide on a sender and entangle nonce state mid-comparison.
package strategy

import (
	"fmt"

	"toposhot/internal/core"
	"toposhot/internal/types"
)

// Span and event names recorded by the strategy layer (trace-spanname lint
// rule: StartSpan/Event names must be constants).
const (
	// SpanCampaign wraps one RunPairs campaign of a single strategy.
	SpanCampaign = "strategy-campaign"
	// SpanProbe wraps one pair measurement; it carries the method, the pair,
	// and the strategy's verdict.
	SpanProbe = "strategy-probe"
)

// Attribute keys on strategy spans.
const (
	// AttrMethod carries the strategy name on campaign and probe spans.
	AttrMethod = "method"
	// AttrVerdict carries the per-pair verdict string on probe spans.
	AttrVerdict = "verdict"
	attrNodeA   = "a"
	attrNodeB   = "b"
	attrPairs   = "pairs"
	attrClaimed = "claimed"
)

// Claim is one strategy's answer about one undirected node pair.
type Claim struct {
	// Detected reports whether the strategy claims the link exists.
	Detected bool
	// Verdict is the method-specific classification string recorded on the
	// probe span (e.g. "detected", "marker-possessed", "marked-one-hop").
	Verdict string
}

// Strategy is one topology-inference method bound to a vantage: it sees the
// network only through the peers of the measurement node M. Implementations
// are single-goroutine, like the simulation engine they drive; run concurrent
// strategies on independent same-seed networks (engine-per-goroutine,
// DESIGN.md §9).
type Strategy interface {
	// Name returns the method's stable identifier (table rows, trace attrs).
	Name() string
	// Prepare runs the whole-campaign probe phase over the pairs about to be
	// measured, after refusing, with an UnknownNodeError and before any probe
	// is sent, a pair the vantage cannot reach. Per-node methods (dethna,
	// ethna) do their injection and observation here and answer MeasurePair
	// from the gathered evidence; per-pair methods only validate.
	Prepare(pairs [][2]types.NodeID) error
	// MeasurePair returns the strategy's claim about the undirected link a–b.
	MeasurePair(a, b types.NodeID) (Claim, error)
	// Ledger returns the method's spend account: every probe transaction
	// it mints is recorded there, priced by the §5.2.2 rule (pending
	// transactions at gas × price, futures free).
	Ledger() *core.Ledger
}

// UnknownNodeError reports a probe pair referencing a node the vantage cannot
// reach.
type UnknownNodeError struct {
	ID types.NodeID
}

// Error implements error.
func (e UnknownNodeError) Error() string {
	return fmt.Sprintf("strategy: unknown node %v", e.ID)
}

// reach returns an UnknownNodeError for the first of ids v cannot reach.
func reach(v core.Vantage, ids ...types.NodeID) error {
	for _, id := range ids {
		if !v.Reaches(id) {
			return UnknownNodeError{ID: id}
		}
	}
	return nil
}

// reachPairs is reach over every endpoint of pairs.
func reachPairs(v core.Vantage, pairs [][2]types.NodeID) error {
	for _, pr := range pairs {
		if err := reach(v, pr[0], pr[1]); err != nil {
			return err
		}
	}
	return nil
}

// probePrice is the gas price of the rival methods' probe transactions (marks,
// samples, conflicts): high enough to clear every target's admission floor.
const probePrice = types.Gwei

// accountMinter mints fresh probe accounts inside one strategy's namespace.
type accountMinter struct {
	space uint64
	seq   uint64
}

func minter(space uint64) accountMinter { return accountMinter{space: space} }

// fresh returns an address never seen by the network or any other strategy.
func (m *accountMinter) fresh() types.Address {
	m.seq++
	return types.NamespacedAddress(m.space, m.seq)
}

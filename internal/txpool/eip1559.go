package txpool

import (
	"sort"

	"toposhot/internal/types"
)

// EIP-1559 support (Appendix E of the paper). Under the fee-market upgrade a
// transaction carries a max fee (fee cap) and a priority fee (tip); the
// chain sets a per-block base fee. The appendix's observations, which this
// file implements:
//
//   - the mempool uses the MAX FEE for admission, replacement and eviction
//     decisions (a dynamic-fee transaction's GasPrice field here *is* its
//     fee cap — see types.Transaction.FeeCap);
//   - a pending transaction whose max fee falls below the base fee becomes
//     underpriced and is dropped;
//   - TopoShot therefore keeps working as long as the measurement
//     transactions' max fees stay above the base fee.

// SetBaseFee records the current base fee and drops buffered transactions
// whose fee caps fall below it — the "negative priority fee" rule of
// Appendix E. It returns the dropped transactions.
func (p *Pool) SetBaseFee(baseFee uint64) []*types.Transaction {
	p.baseFee = baseFee
	if baseFee == 0 {
		return nil
	}
	var drop []*types.Transaction
	for i := p.oldest; i != 0; i = p.entries.at(i).next {
		if p.entries.at(i).price < baseFee { // the fee cap
			drop = append(drop, p.object(i))
		}
	}
	// Drop in hash order: the removal sequence feeds DropObserver and the
	// returned slice, both of which must be identical across runs.
	sort.Slice(drop, func(i, j int) bool {
		hi, hj := drop[i].Hash(), drop[j].Hash()
		return string(hi[:]) < string(hj[:])
	})
	for _, tx := range drop {
		p.repartitionAfterRemove(p.find(tx))
		if p.DropObserver != nil {
			p.DropObserver(tx, "base-fee-underpriced")
		}
	}
	return drop
}

// BaseFee returns the base fee the pool last observed.
func (p *Pool) BaseFee() uint64 { return p.baseFee }

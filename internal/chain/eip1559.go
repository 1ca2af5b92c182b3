package chain

import (
	"sort"

	"toposhot/internal/ethsim"
	"toposhot/internal/types"
)

// EIP-1559 block production (Appendix E), which a Miner with
// MinerConfig.BaseFee set runs. The base fee adjusts ±1/8 per block toward a
// gas-usage target of half the limit; blocks include transactions whose fee
// caps clear the base fee, ordered by effective tip.

// BaseFeeChangeDenominator is EIP-1559's adjustment divisor (8 → ±12.5%).
const BaseFeeChangeDenominator = 8

// ElasticityMultiplier relates the gas limit to the usage target (2 → the
// target is half the limit).
const ElasticityMultiplier = 2

// NextBaseFee computes the base fee of the block after one with the given
// usage, per the EIP-1559 update rule.
func NextBaseFee(baseFee, gasUsed, gasLimit uint64) uint64 {
	target := gasLimit / ElasticityMultiplier
	if target == 0 {
		return baseFee
	}
	switch {
	case gasUsed == target:
		return baseFee
	case gasUsed > target:
		delta := baseFee * (gasUsed - target) / target / BaseFeeChangeDenominator
		if delta < 1 {
			delta = 1
		}
		return baseFee + delta
	default:
		delta := baseFee * (target - gasUsed) / target / BaseFeeChangeDenominator
		if delta > baseFee {
			return 0
		}
		return baseFee - delta
	}
}

// PackBlock1559 selects the node's pending transactions whose fee caps
// clear the base fee, ordered by effective tip (descending), under the gas
// limit, preserving per-sender nonce order.
func PackBlock1559(node *ethsim.Node, number, gasLimit, baseFee uint64, now float64) *types.Block {
	b := &types.Block{Number: number, Time: now, GasLimit: gasLimit}
	pending := node.Pool().Pending()
	eligible := pending[:0:0]
	for _, tx := range pending {
		if tx.FeeCap() >= baseFee {
			eligible = append(eligible, tx)
		}
	}
	sort.SliceStable(eligible, func(i, j int) bool {
		return eligible[i].EffectiveTip(baseFee) > eligible[j].EffectiveTip(baseFee)
	})
	nextNonce := make(map[types.Address]uint64)
	for _, tx := range eligible {
		if n, ok := nextNonce[tx.From]; !ok || tx.Nonce < n {
			nextNonce[tx.From] = tx.Nonce
		}
	}
	for _, tx := range eligible {
		if b.GasUsed+tx.Gas > b.GasLimit {
			break
		}
		if tx.Nonce != nextNonce[tx.From] {
			continue // out-of-order under this ordering; next block's problem
		}
		b.Txs = append(b.Txs, tx)
		b.GasUsed += tx.Gas
		nextNonce[tx.From] = tx.Nonce + 1
	}
	return b
}

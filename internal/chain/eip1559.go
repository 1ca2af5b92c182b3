package chain

import (
	"sort"

	"toposhot/internal/ethsim"
	"toposhot/internal/types"
)

// EIP-1559 block production (Appendix E). The base fee adjusts ±1/8 per
// block toward a gas-usage target of half the limit; blocks include
// transactions whose fee caps clear the base fee, ordered by effective tip.

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

// Miner1559 drives EIP-1559 block production: like Miner, but each block
// carries the running base fee, packs by effective tip, and pushes base-fee
// updates into every pool (dropping newly underpriced transactions, the
// Appendix-E "negative priority fee" rule). Its events follow Miner's
// encoding: argument 0 is a round, argument n applies block n.
type Miner1559 struct {
	net    *ethsim.Network
	cfg    MinerConfig
	chain  *Chain
	ids    []types.NodeID
	next   int
	stop   bool
	stopAt float64

	baseFee uint64
	// fees[n-1] is the base fee block n leaves behind, pushed into the pools
	// when block n is applied.
	fees []uint64
}

// NewMiner1559 registers miners producing EIP-1559 blocks starting from the
// given base fee.
func NewMiner1559(net *ethsim.Network, cfg MinerConfig, miners []types.NodeID, initialBaseFee uint64) *Miner1559 {
	ids := append([]types.NodeID(nil), miners...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return &Miner1559{net: net, cfg: cfg, chain: NewChain(), ids: ids, baseFee: initialBaseFee}
}

// Chain returns the produced chain.
func (m *Miner1559) Chain() *Chain { return m.chain }

// BaseFee returns the current base fee.
func (m *Miner1559) BaseFee() uint64 { return m.baseFee }

// Start schedules recurring production until Stop or stopAt (0 = unbounded).
func (m *Miner1559) Start(stopAt float64) {
	if len(m.ids) == 0 {
		return
	}
	m.stopAt = stopAt
	m.net.Engine().AfterHandler(m.cfg.Interval, m, 0)
}

// Stop halts production.
func (m *Miner1559) Stop() { m.stop = true }

// HandleEvent runs one production round (arg 0) or applies block arg and its
// successor base fee to every pool.
func (m *Miner1559) HandleEvent(arg uint64) {
	if arg != 0 {
		b, fee := m.chain.blocks[arg-1], m.fees[arg-1]
		for _, nd := range m.net.Nodes() {
			nd.Pool().RemoveConfirmed(b.Txs)
			nd.Pool().SetBaseFee(fee)
		}
		return
	}
	if m.stop || (m.stopAt > 0 && m.net.Now() >= m.stopAt) {
		return
	}
	m.ProduceBlock()
	m.net.Engine().AfterHandler(m.cfg.Interval, m, 0)
}

// ProduceBlock mines one EIP-1559 block on the next miner in rotation.
func (m *Miner1559) ProduceBlock() *types.Block {
	id := m.ids[m.next%len(m.ids)]
	m.next++
	node := m.net.Node(id)
	if node == nil {
		return nil
	}
	b := PackBlock1559(node, uint64(m.chain.Height()+1), m.cfg.GasLimit, m.baseFee, m.net.Now())
	m.chain.append(b)
	m.baseFee = NextBaseFee(m.baseFee, b.GasUsed, b.GasLimit)
	m.fees = append(m.fees, m.baseFee)
	m.net.Engine().AfterHandler(m.cfg.BroadcastDelay, m, b.Number)
	return b
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

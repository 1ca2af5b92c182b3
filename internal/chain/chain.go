// Package chain adds block production to a simulated Ethereum network.
//
// Miners pack the highest-priced pending transactions from their own mempool
// under the block gas limit at fixed intervals; produced blocks are applied
// network-wide (block gossip is far faster than the ~13 s inter-block time,
// so it is modelled as a short broadcast delay). The package also provides
// the twin-world replay machinery behind the Appendix-C non-interference
// theorem: two networks driven by the same seed and workload, one with the
// measurement running and one without, whose per-block included-transaction
// sets are compared.
package chain

import (
	"sort"

	"toposhot/internal/ethsim"
	"toposhot/internal/types"
)

// Chain is an append-only record of produced blocks.
type Chain struct {
	blocks []*types.Block
}

// NewChain returns an empty chain.
func NewChain() *Chain { return &Chain{} }

// Append adds a block to the chain (reconstruction/filtering helpers).
func (c *Chain) Append(b *types.Block) { c.blocks = append(c.blocks, b) }

// Blocks returns the produced blocks in order.
func (c *Chain) Blocks() []*types.Block { return c.blocks }

// Height returns the number of produced blocks.
func (c *Chain) Height() int { return len(c.blocks) }

// BlocksIn returns blocks with timestamps in [t1, t2].
func (c *Chain) BlocksIn(t1, t2 float64) []*types.Block {
	var out []*types.Block
	for _, b := range c.blocks {
		if b.Time >= t1 && b.Time <= t2 {
			out = append(out, b)
		}
	}
	return out
}

// MinerConfig parameterizes block production.
type MinerConfig struct {
	// Interval is the seconds between blocks (~13 s on mainnet).
	Interval float64
	// GasLimit is the per-block gas limit.
	GasLimit uint64
	// BroadcastDelay is the time for a block to reach the whole network.
	BroadcastDelay float64
	// BaseFee, when non-zero, makes the miner an EIP-1559 one (Appendix E)
	// with this first base fee: blocks pack by effective tip above the
	// running base fee, which moves per NextBaseFee and reaches every pool
	// with its block. Zero keeps legacy gas-price packing.
	BaseFee uint64
}

// Miner drives block production on a network. Each round, the next miner
// node (round-robin over the registered miners) packs a block from its own
// mempool, by PackBlock or, with a base fee configured, PackBlock1559. It is
// the sim.Handler of its own events: argument 0 is a production round,
// argument n applies block n network-wide.
type Miner struct {
	net   *ethsim.Network
	cfg   MinerConfig
	chain *Chain
	ids   []types.NodeID
	next  int
	stop  bool

	baseFee uint64 // the next block's base fee; 0 on a legacy miner
	// fees[n-1] is the base fee block n leaves behind, pushed into the pools
	// when block n is applied (EIP-1559 only).
	fees []uint64
}

// NewMiner registers the given nodes as miners producing into a new chain.
func NewMiner(net *ethsim.Network, cfg MinerConfig, miners []types.NodeID) *Miner {
	ids := append([]types.NodeID(nil), miners...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return &Miner{net: net, cfg: cfg, chain: NewChain(), ids: ids, baseFee: cfg.BaseFee}
}

// Chain returns the chain being produced.
func (m *Miner) Chain() *Chain { return m.chain }

// BaseFee returns the base fee the next block will carry (0 on a legacy
// miner).
func (m *Miner) BaseFee() uint64 { return m.baseFee }

// Start schedules recurring block production until Stop.
func (m *Miner) Start() {
	if len(m.ids) == 0 {
		return
	}
	m.net.Engine().AfterHandler(m.cfg.Interval, m, 0)
}

// Stop halts production after the current round.
func (m *Miner) Stop() { m.stop = true }

// HandleEvent runs one production round (arg 0) or applies block arg. A
// round schedules its successor only after produceBlock has scheduled the
// block's application, so the two keep their relative sequence numbers.
func (m *Miner) HandleEvent(arg uint64) {
	if arg != 0 {
		m.apply(arg)
		return
	}
	if m.stop {
		return
	}
	m.produceBlock()
	m.net.Engine().AfterHandler(m.cfg.Interval, m, 0)
}

// produceBlock mines one block (which may be empty) on the next miner in
// rotation and schedules its application after the broadcast delay.
func (m *Miner) produceBlock() {
	id := m.ids[m.next%len(m.ids)]
	m.next++
	node := m.net.Node(id)
	if node == nil {
		return
	}
	number := uint64(m.chain.Height() + 1)
	var b *types.Block
	if m.cfg.BaseFee == 0 {
		b = PackBlock(node, number, m.cfg.GasLimit, m.net.Now())
	} else {
		b = PackBlock1559(node, number, m.cfg.GasLimit, m.baseFee, m.net.Now())
		m.baseFee = NextBaseFee(m.baseFee, b.GasUsed, b.GasLimit)
		m.fees = append(m.fees, m.baseFee)
	}
	m.chain.Append(b)
	m.net.Engine().AfterHandler(m.cfg.BroadcastDelay, m, b.Number)
}

// apply removes block n's transactions from every pool and, on an EIP-1559
// miner, sets the base fee the block leaves behind (dropping newly
// underpriced transactions, the Appendix-E "negative priority fee" rule).
func (m *Miner) apply(n uint64) {
	b := m.chain.blocks[n-1]
	for _, nd := range m.net.Nodes() {
		nd.Pool().RemoveConfirmed(b.Txs)
		if m.cfg.BaseFee != 0 {
			nd.Pool().SetBaseFee(m.fees[n-1])
		}
	}
}

// PackBlock builds a block from a node's pending transactions in descending
// gas-price order under the gas limit — the miner priority rule the
// Appendix-C proof relies on. Nonce order within a sender is preserved by
// the pool's Pending() tie-breaking plus a per-sender sequencing pass here.
func PackBlock(node *ethsim.Node, number, gasLimit uint64, now float64) *types.Block {
	b := &types.Block{Number: number, Time: now, GasLimit: gasLimit}
	pending := node.Pool().Pending()
	// Per-sender next-expected nonce so we never pack out of order even if
	// a lower nonce is priced lower.
	nextNonce := make(map[types.Address]uint64)
	for _, tx := range pending {
		if n, ok := nextNonce[tx.From]; !ok || tx.Nonce < n {
			nextNonce[tx.From] = tx.Nonce
		}
	}
	deferred := make(map[types.Address][]*types.Transaction)
	tryPack := func(tx *types.Transaction) bool {
		if b.GasUsed+tx.Gas > b.GasLimit {
			return false
		}
		b.Txs = append(b.Txs, tx)
		b.GasUsed += tx.Gas
		nextNonce[tx.From] = tx.Nonce + 1
		return true
	}
	for _, tx := range pending {
		if b.GasUsed+tx.Gas > b.GasLimit {
			break
		}
		if tx.Nonce != nextNonce[tx.From] {
			deferred[tx.From] = append(deferred[tx.From], tx)
			continue
		}
		if !tryPack(tx) {
			break
		}
		// Unblock any deferred same-sender transactions now in order.
		q := deferred[tx.From]
		for len(q) > 0 {
			idx := -1
			for i, d := range q {
				if d.Nonce == nextNonce[tx.From] {
					idx = i
					break
				}
			}
			if idx < 0 {
				break
			}
			if !tryPack(q[idx]) {
				break
			}
			q = append(q[:idx], q[idx+1:]...)
		}
		deferred[tx.From] = q
	}
	return b
}

// TxSetEqual reports whether two blocks include exactly the same transaction
// set (order-insensitive) — the Definition-C.1 comparison.
func TxSetEqual(a, b *types.Block) bool {
	if len(a.Txs) != len(b.Txs) {
		return false
	}
	seen := make(map[types.Hash]int, len(a.Txs))
	for _, tx := range a.Txs {
		seen[tx.Hash()]++
	}
	for _, tx := range b.Txs {
		seen[tx.Hash()]--
		if seen[tx.Hash()] < 0 {
			return false
		}
	}
	return true
}

package chain

import (
	"errors"
	"testing"

	"toposhot/internal/ethsim"
	"toposhot/internal/sim"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

func tx(from uint64, nonce, price uint64) *types.Transaction {
	return types.NewTransaction(types.AddressFromUint64(from), types.AddressFromUint64(from+999), nonce, price, 0)
}

func buildMiningNet(seed int64) (*ethsim.Network, []types.NodeID) {
	cfg := ethsim.DefaultConfig(seed)
	cfg.LatencyTail = 0.02
	cfg.LatencyMax = 0.5
	net := ethsim.NewNetwork(cfg)
	var ids []types.NodeID
	for i := 0; i < 4; i++ {
		ids = append(ids, net.AddNode(ethsim.NodeConfig{Policy: txpool.Geth.WithCapacity(256)}).ID())
	}
	for i := 0; i+1 < len(ids); i++ {
		_ = net.Connect(ids[i], ids[i+1])
	}
	return net, ids
}

func TestPackBlockPriceOrder(t *testing.T) {
	net, ids := buildMiningNet(1)
	nd := net.Node(ids[0])
	nd.SubmitLocal(tx(1, 0, 10))
	nd.SubmitLocal(tx(2, 0, 30))
	nd.SubmitLocal(tx(3, 0, 20))
	b := PackBlock(nd, 1, 2*types.TxGasTransfer, 0)
	if len(b.Txs) != 2 {
		t.Fatalf("packed %d txs", len(b.Txs))
	}
	if b.Txs[0].GasPrice != 30 || b.Txs[1].GasPrice != 20 {
		t.Fatalf("pack order wrong: %d, %d", b.Txs[0].GasPrice, b.Txs[1].GasPrice)
	}
	if !b.Full() {
		t.Fatal("block with no residual gas should be full")
	}
}

func TestPackBlockKeepsNonceOrder(t *testing.T) {
	net, ids := buildMiningNet(2)
	nd := net.Node(ids[0])
	// Same sender: nonce 0 priced lower than nonce 1. The block must never
	// include nonce 1 before nonce 0.
	nd.SubmitLocal(tx(7, 0, 10))
	nd.SubmitLocal(tx(7, 1, 99))
	nd.SubmitLocal(tx(8, 0, 50))
	b := PackBlock(nd, 1, 3*types.TxGasTransfer, 0)
	seen := make(map[types.Address]uint64)
	for _, btx := range b.Txs {
		if prev, ok := seen[btx.From]; ok && btx.Nonce != prev+1 {
			t.Fatalf("nonce order broken: %d after %d", btx.Nonce, prev)
		}
		seen[btx.From] = btx.Nonce
	}
	if len(b.Txs) != 3 {
		t.Fatalf("packed %d txs, want 3", len(b.Txs))
	}
}

func TestMinerAppliesBlocksNetworkWide(t *testing.T) {
	net, ids := buildMiningNet(3)
	nd := net.Node(ids[0])
	high := tx(1, 0, 1000)
	nd.SubmitLocal(high)
	net.RunFor(3)
	m := NewMiner(net, MinerConfig{GasLimit: 10 * types.TxGasTransfer}, ids[:2])
	m.Start()
	net.RunFor(15)
	m.Stop()
	if m.Chain().Height() < 1 {
		t.Fatal("no blocks produced")
	}
	if _, ok := included(m.Chain(), high); !ok {
		t.Fatal("high-priced tx not included")
	}
	for _, id := range ids {
		if net.Node(id).Pool().Has(high.Hash()) {
			t.Fatalf("included tx still in pool of %v", id)
		}
	}
}

// TestRunningMinerBlocksCheckpoint: the network serializes only its own
// events, so a world with pending miner events must fail Checkpoint (naming
// the foreign handler) rather than silently drop block production.
func TestRunningMinerBlocksCheckpoint(t *testing.T) {
	net, ids := buildMiningNet(4)
	net.RunFor(5)
	if _, err := net.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint before mining: %v", err)
	}
	NewMiner(net, MinerConfig{GasLimit: 10 * types.TxGasTransfer}, ids[:1]).Start()
	if _, err := net.Checkpoint(); !errors.Is(err, sim.ErrForeignHandler) {
		t.Fatalf("Checkpoint with a running miner: err = %v, want sim.ErrForeignHandler", err)
	}
}

// included reports the number of the first block of c that carries tx.
func included(c *Chain, tx *types.Transaction) (uint64, bool) {
	for _, b := range c.Blocks() {
		for _, btx := range b.Txs {
			if btx.Equal(tx) {
				return b.Number, true
			}
		}
	}
	return 0, false
}

func TestChainQueries(t *testing.T) {
	c := NewChain()
	if len(c.Blocks()) != 0 || c.Height() != 0 {
		t.Fatal("empty chain state wrong")
	}
	b1 := &types.Block{Number: 1, Time: 10, Txs: []*types.Transaction{tx(1, 0, 5)}}
	b2 := &types.Block{Number: 2, Time: 23}
	c.Append(b1)
	c.Append(b2)
	if c.Blocks()[1] != b2 || c.Height() != 2 {
		t.Fatal("append/blocks wrong")
	}
	if n, ok := included(c, b1.Txs[0]); !ok || n != 1 {
		t.Fatalf("included lookup = %d, %v", n, ok)
	}
	in := c.BlocksIn(5, 15)
	if len(in) != 1 || in[0] != b1 {
		t.Fatalf("BlocksIn = %v", in)
	}
}

func TestTxSetEqual(t *testing.T) {
	a := &types.Block{Txs: []*types.Transaction{tx(1, 0, 5), tx(2, 0, 6)}}
	b := &types.Block{Txs: []*types.Transaction{tx(2, 0, 6), tx(1, 0, 5)}} // reordered
	if !TxSetEqual(a, b) {
		t.Fatal("order-insensitive equality failed")
	}
	c := &types.Block{Txs: []*types.Transaction{tx(1, 0, 5)}}
	if TxSetEqual(a, c) {
		t.Fatal("different sets reported equal")
	}
	d := &types.Block{Txs: []*types.Transaction{tx(1, 0, 5), tx(1, 0, 5)}}
	if TxSetEqual(a, d) {
		t.Fatal("multiset mismatch reported equal")
	}
}

func TestChainAppend(t *testing.T) {
	b := &types.Block{Number: 1, Txs: []*types.Transaction{tx(1, 0, 5)}}
	c := NewChain()
	c.Append(b)
	if c.Height() != 1 {
		t.Fatal("height wrong")
	}
	if _, ok := included(c, b.Txs[0]); !ok {
		t.Fatal("index missing")
	}
}

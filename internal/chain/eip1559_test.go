package chain

import (
	"testing"

	"toposhot/internal/ethsim"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

func TestNextBaseFee(t *testing.T) {
	const limit = uint64(1000)
	// At target: unchanged.
	if got := NextBaseFee(800, 500, limit); got != 800 {
		t.Fatalf("at target: %d", got)
	}
	// Full block: +12.5%.
	if got := NextBaseFee(800, 1000, limit); got != 900 {
		t.Fatalf("full block: %d, want 900", got)
	}
	// Empty block: −12.5%.
	if got := NextBaseFee(800, 0, limit); got != 700 {
		t.Fatalf("empty block: %d, want 700", got)
	}
	// Tiny base fee still moves by at least 1 upward.
	if got := NextBaseFee(1, 1000, limit); got != 2 {
		t.Fatalf("minimum delta: %d", got)
	}
	// Never underflows.
	if got := NextBaseFee(0, 0, limit); got != 0 {
		t.Fatalf("zero base fee: %d", got)
	}
}

func TestPackBlock1559FiltersAndOrders(t *testing.T) {
	cfg := ethsim.DefaultConfig(5)
	net := ethsim.NewNetwork(cfg)
	nd := net.AddNode(ethsim.NodeConfig{Policy: txpool.Geth.WithCapacity(64)})
	baseFee := uint64(100)
	under := types.NewDynamicFeeTransaction(types.AddressFromUint64(1), types.AddressFromUint64(9), 0, 90, 5, 0)
	lowTip := types.NewDynamicFeeTransaction(types.AddressFromUint64(2), types.AddressFromUint64(9), 0, 500, 1, 0)
	highTip := types.NewDynamicFeeTransaction(types.AddressFromUint64(3), types.AddressFromUint64(9), 0, 500, 50, 0)
	nd.SubmitLocal(under)
	nd.SubmitLocal(lowTip)
	nd.SubmitLocal(highTip)
	b := PackBlock1559(nd, 1, 2*types.TxGasTransfer, baseFee, 0)
	if len(b.Txs) != 2 {
		t.Fatalf("packed %d txs", len(b.Txs))
	}
	if b.Txs[0].Hash() != highTip.Hash() {
		t.Fatal("high-tip tx not first")
	}
	for _, tx := range b.Txs {
		if tx.Hash() == under.Hash() {
			t.Fatal("under-base-fee tx included")
		}
	}
}

func TestMiner1559AdjustsBaseFeeAndDrops(t *testing.T) {
	cfg := ethsim.DefaultConfig(6)
	cfg.LatencyTail = 0.02
	cfg.LatencyMax = 0.5
	net := ethsim.NewNetwork(cfg)
	var ids []types.NodeID
	for i := 0; i < 3; i++ {
		ids = append(ids, net.AddNode(ethsim.NodeConfig{Policy: txpool.Geth.WithCapacity(256)}).ID())
	}
	_ = net.Connect(ids[0], ids[1])
	_ = net.Connect(ids[1], ids[2])
	// Saturate with high-cap traffic so blocks run full and the fee climbs.
	w := ethsim.NewWorkload(net, 20, 10*types.Gwei, 20*types.Gwei)
	w.Prefill(100, 2)
	w.Start(0)
	m := NewMiner(net, MinerConfig{Interval: 5, GasLimit: 21000 * 10, BroadcastDelay: 0.5, BaseFee: types.Gwei},
		ids[:1])
	m.Start()
	net.RunFor(60)
	m.Stop()
	w.Stop()
	if m.BaseFee() <= types.Gwei {
		t.Fatalf("base fee did not rise under full blocks: %d", m.BaseFee())
	}
	if m.Chain().Height() < 5 {
		t.Fatalf("blocks = %d", m.Chain().Height())
	}
	// Pools must have learned the base fee.
	if got := net.Node(ids[2]).Pool().Snapshot().BaseFee; got == 0 {
		t.Fatal("base fee not propagated to pools")
	}
}

package chain

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"toposhot/internal/ethsim"
	"toposhot/internal/types"
)

// minedWorld is buildMiningNet under steady background traffic, so blocks
// carry transactions and the per-block counts are sensitive to when each
// block is packed and when it is applied.
func minedWorld(seed int64) (*ethsim.Network, []types.NodeID) {
	net, ids := buildMiningNet(seed)
	w := ethsim.NewWorkload(net, 4, types.Gwei, 4*types.Gwei)
	w.Prefill(40, 2)
	w.Start(0)
	return net, ids
}

// TestMinerScheduleGolden pins block numbers, block times and per-block
// transaction counts (plus the EIP-1559 miner's base-fee sequence) on a fixed
// seed. The expectations were recorded before the miners became sim.Handlers,
// so the handler events must reproduce the same rounds, the same draws and
// the same equal-time ordering of block application against traffic. Both
// modes share one miner, so each also checks what the other's mode must not
// change: a legacy miner leaves every pool's base fee at 0, and an EIP-1559
// miner fires OnBlock once per applied block, in block order.
func TestMinerScheduleGolden(t *testing.T) {
	cfg := MinerConfig{Interval: 5, GasLimit: 40 * types.TxGasTransfer, BroadcastDelay: 0.5}

	plain := func(stopAt float64) string {
		net, ids := minedWorld(11)
		m := NewMiner(net, cfg, ids[:2])
		var applied []string
		m.OnBlock = func(b *types.Block) {
			applied = append(applied, fmt.Sprintf("%d@%.6f", b.Number, net.Now()))
		}
		m.Start(stopAt)
		net.RunFor(42)
		for _, nd := range net.Nodes() {
			if fee := nd.Pool().Snapshot().BaseFee; fee != 0 {
				t.Errorf("legacy miner left node %d's pool at base fee %d", nd.ID(), fee)
			}
		}
		var sb strings.Builder
		for _, b := range m.Chain().Blocks() {
			fmt.Fprintf(&sb, "%d@%.6f:%d ", b.Number, b.Time, len(b.Txs))
		}
		return sb.String() + "| applied " + strings.Join(applied, " ")
	}
	dynamic := func(stopAt float64) string {
		net, ids := minedWorld(12)
		cfg := cfg
		cfg.BaseFee = types.Gwei
		m := NewMiner(net, cfg, ids[:1])
		var applied []uint64
		m.OnBlock = func(b *types.Block) { applied = append(applied, b.Number) }
		m.Start(stopAt)
		var sb strings.Builder
		for i := 0; i < 6; i++ {
			net.RunFor(7)
			fmt.Fprintf(&sb, "h%d/fee%d/pool%d ", m.Chain().Height(), m.BaseFee(), net.Node(ids[3]).Pool().Snapshot().BaseFee)
		}
		var due []uint64
		for _, b := range m.Chain().Blocks() {
			if b.Time+cfg.BroadcastDelay <= net.Now() {
				due = append(due, b.Number)
			}
		}
		if !slices.Equal(applied, due) {
			t.Errorf("EIP-1559 miner fired OnBlock for blocks %v, want %v", applied, due)
		}
		for _, b := range m.Chain().Blocks() {
			fmt.Fprintf(&sb, "%d@%.6f:%d ", b.Number, b.Time, len(b.Txs))
		}
		return strings.TrimSpace(sb.String())
	}

	for _, tc := range []struct{ name, got, want string }{
		{"fixed", plain(0),
			"1@7.000000:40 2@12.000000:40 3@17.000000:22 4@22.000000:23 5@27.000000:13 6@32.000000:17 7@37.000000:21 8@42.000000:28 " +
				"| applied 1@7.500000 2@12.500000 3@17.500000 4@22.500000 5@27.500000 6@32.500000 7@37.500000 8@42.500000"},
		{"fixed-stopAt", plain(22),
			"1@7.000000:40 2@12.000000:40 3@17.000000:22 | applied 1@7.500000 2@12.500000 3@17.500000"},
		{"1559", dynamic(0),
			"h1/fee1125000000/pool1125000000 h2/fee1265625000/pool1265625000 h4/fee1297018432/pool1297018432 " +
				"h5/fee1280805702/pool1280805702 h7/fee1225270768/pool1264795631 h8/fee1171665172/pool1171665172 " +
				"1@7.000000:40 2@12.000000:40 3@17.000000:19 4@22.000000:25 5@27.000000:18 6@32.000000:18 7@37.000000:15 8@42.000000:13"},
		{"1559-stopAt", dynamic(22),
			"h1/fee1125000000/pool1125000000 h2/fee1265625000/pool1265625000 h3/fee1257714844/pool1257714844 " +
				"h3/fee1257714844/pool1257714844 h3/fee1257714844/pool1257714844 h3/fee1257714844/pool1257714844 " +
				"1@7.000000:40 2@12.000000:40 3@17.000000:19"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s schedule moved:\n got: %s\nwant: %s", tc.name, tc.got, tc.want)
		}
	}
}

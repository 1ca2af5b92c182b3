package chain

import (
	"fmt"
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

// runStopping advances net by d, stopping m when the clock reaches stopAt if
// that falls inside the span (0 = never).
func runStopping(net *ethsim.Network, m *Miner, d, stopAt float64) {
	end := net.Now() + d
	if now := net.Now(); stopAt > now && stopAt < end {
		net.RunFor(stopAt - now)
		m.Stop()
	}
	net.RunFor(end - net.Now())
}

// TestMinerScheduleGolden pins block numbers, block times and per-block
// transaction counts (plus the EIP-1559 miner's base-fee sequence) on a fixed
// seed. The expectations were recorded before the miners became sim.Handlers,
// so the handler events must reproduce the same rounds, the same draws and
// the same equal-time ordering of block application against traffic. Both
// modes share one miner, so each also checks what the other's mode must not
// change: a legacy miner leaves every pool's base fee at 0. The "-stop" cases
// stop the miner at virtual time 20, between the rounds at 17 and 22.
func TestMinerScheduleGolden(t *testing.T) {
	cfg := MinerConfig{Interval: 5, GasLimit: 40 * types.TxGasTransfer, BroadcastDelay: 0.5}

	plain := func(stopAt float64) string {
		net, ids := minedWorld(11)
		m := NewMiner(net, cfg, ids[:2])
		m.Start()
		runStopping(net, m, 42, stopAt)
		for _, nd := range net.Nodes() {
			if fee := nd.Pool().Snapshot().BaseFee; fee != 0 {
				t.Errorf("legacy miner left node %d's pool at base fee %d", nd.ID(), fee)
			}
		}
		var sb strings.Builder
		for _, b := range m.Chain().Blocks() {
			fmt.Fprintf(&sb, "%d@%.6f:%d ", b.Number, b.Time, len(b.Txs))
		}
		return strings.TrimSpace(sb.String())
	}
	dynamic := func(stopAt float64) string {
		net, ids := minedWorld(12)
		cfg := cfg
		cfg.BaseFee = types.Gwei
		m := NewMiner(net, cfg, ids[:1])
		m.Start()
		var sb strings.Builder
		for i := 0; i < 6; i++ {
			runStopping(net, m, 7, stopAt)
			fmt.Fprintf(&sb, "h%d/fee%d/pool%d ", m.Chain().Height(), m.BaseFee(), net.Node(ids[3]).Pool().Snapshot().BaseFee)
		}
		for _, b := range m.Chain().Blocks() {
			fmt.Fprintf(&sb, "%d@%.6f:%d ", b.Number, b.Time, len(b.Txs))
		}
		return strings.TrimSpace(sb.String())
	}

	for _, tc := range []struct{ name, got, want string }{
		{"fixed", plain(0),
			"1@7.000000:40 2@12.000000:40 3@17.000000:22 4@22.000000:23 5@27.000000:13 6@32.000000:17 7@37.000000:21 8@42.000000:28"},
		{"fixed-stop", plain(20),
			"1@7.000000:40 2@12.000000:40 3@17.000000:22"},
		{"1559", dynamic(0),
			"h1/fee1125000000/pool1125000000 h2/fee1265625000/pool1265625000 h4/fee1297018432/pool1297018432 " +
				"h5/fee1280805702/pool1280805702 h7/fee1225270768/pool1264795631 h8/fee1171665172/pool1171665172 " +
				"1@7.000000:40 2@12.000000:40 3@17.000000:19 4@22.000000:25 5@27.000000:18 6@32.000000:18 7@37.000000:15 8@42.000000:13"},
		{"1559-stop", dynamic(20),
			"h1/fee1125000000/pool1125000000 h2/fee1265625000/pool1265625000 h3/fee1257714844/pool1257714844 " +
				"h3/fee1257714844/pool1257714844 h3/fee1257714844/pool1257714844 h3/fee1257714844/pool1257714844 " +
				"1@7.000000:40 2@12.000000:40 3@17.000000:19"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s schedule moved:\n got: %s\nwant: %s", tc.name, tc.got, tc.want)
		}
	}
}

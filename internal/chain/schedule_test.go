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
// seed: the rounds, the draws and the equal-time ordering of block
// application against traffic. The EIP-1559 checks every 17.5 s, so the one
// at 54.5 falls between block 4's packing and its application and its pools
// still hold block 3's fee. Both modes share one miner, so each also checks
// what the other's mode must not change: a legacy miner leaves every pool's
// base fee at 0. The "-stop" cases stop the miner at virtual time 50,
// between the rounds at 41 and 54.
func TestMinerScheduleGolden(t *testing.T) {
	cfg := MinerConfig{GasLimit: 80 * types.TxGasTransfer}

	plain := func(stopAt float64) string {
		net, ids := minedWorld(11)
		m := NewMiner(net, cfg, ids[:2])
		m.Start()
		runStopping(net, m, 108, stopAt)
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
			runStopping(net, m, 17.5, stopAt)
			fmt.Fprintf(&sb, "h%d/fee%d/pool%d ", m.Chain().Height(), m.BaseFee(), net.Node(ids[3]).Pool().Snapshot().BaseFee)
		}
		for _, b := range m.Chain().Blocks() {
			fmt.Fprintf(&sb, "%d@%.6f:%d ", b.Number, b.Time, len(b.Txs))
		}
		return strings.TrimSpace(sb.String())
	}

	for _, tc := range []struct{ name, got, want string }{
		{"fixed", plain(0),
			"1@15.000000:80 2@28.000000:62 3@41.000000:51 4@54.000000:48 5@67.000000:48 6@80.000000:50 7@93.000000:55 8@106.000000:44"},
		{"fixed-stop", plain(50),
			"1@15.000000:80 2@28.000000:62 3@41.000000:51"},
		{"1559", dynamic(0),
			"h1/fee1125000000/pool1125000000 h2/fee1219921875/pool1219921875 h4/fee1235027939/pool1212297364 " +
				"h5/fee1281341486/pool1281341486 h6/fee1345408560/pool1345408560 h8/fee1357969211/pool1357969211 " +
				"1@15.000000:80 2@28.000000:67 3@41.000000:38 4@54.000000:46 5@67.000000:52 6@80.000000:56 7@93.000000:44 8@106.000000:39"},
		{"1559-stop", dynamic(50),
			"h1/fee1125000000/pool1125000000 h2/fee1219921875/pool1219921875 h3/fee1212297364/pool1212297364 " +
				"h3/fee1212297364/pool1212297364 h3/fee1212297364/pool1212297364 h3/fee1212297364/pool1212297364 " +
				"1@15.000000:80 2@28.000000:67 3@41.000000:38"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s schedule moved:\n got: %s\nwant: %s", tc.name, tc.got, tc.want)
		}
	}
}

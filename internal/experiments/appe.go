package experiments

import (
	"fmt"
	"strings"

	"toposhot/internal/chain"
	"toposhot/internal/core"
	"toposhot/internal/ethsim"
	"toposhot/internal/netgen"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// AppEResult is the EIP-1559 experiment (Appendix E): TopoShot on a network
// whose miners run the fee market and whose mempools drop transactions
// underpriced against the base fee.
type AppEResult struct {
	// Score compares measured links vs truth over the sampled pairs.
	Score core.Score
	// BaseFeeStart and BaseFeeEnd bracket the base-fee trajectory.
	BaseFeeStart, BaseFeeEnd uint64
	// UnderpricedDropObserved reports whether the Appendix-E drop rule
	// actually fired during the run (sanity that the mechanism is live).
	UnderpricedDropObserved bool
	PairsMeasured           int
}

// AppE runs TopoShot on an EIP-1559 network. Per the appendix, the mempool
// keys its decisions on the max fee, so as long as the measurement
// transactions' max fees stay above the base fee the method is unaffected —
// the experiment validates exactly that: precision and recall match the
// legacy-fee runs.
func AppE(seed int64) (*AppEResult, error) {
	built := appEWorld(seed).Build()
	net, super, inst := built.Net, built.Super, built.Inst
	w := built.StartTraffic()

	dropSeen := false
	for _, nd := range net.Nodes() {
		nd.Pool().DropObserver = func(tx *types.Transaction, reason string) {
			if reason == "base-fee-underpriced" {
				dropSeen = true
			}
		}
	}

	const initialBaseFee = types.Gwei / 4
	miners := chain.NewMiner(net, chain.MinerConfig{
		Interval:       13,
		GasLimit:       21000 * 20,
		BroadcastDelay: 1,
		BaseFee:        initialBaseFee,
	}, []types.NodeID{inst.IDs[0], inst.IDs[1]})
	miners.Start()
	net.RunFor(40)

	params := built.World.Params()
	// 1559-native measurement pricing: dynamic-fee transactions whose caps
	// track well above the base fee (never dropped as underpriced) with a
	// 1-wei priority fee (never attractive to miners).
	params.DynamicFeeTip = 1
	m := built.Measurer(params)

	truth := core.EdgeSetOf(net.Edges())
	rng := net.Engine().Rand()
	measured, measuredTruth := core.NewEdgeSet(), core.NewEdgeSet()
	pairs := 0
	// Half true edges, half random non-edges.
	edges := truth.Edges()
	for pairs < 16 {
		var a, b types.NodeID
		if pairs%2 == 0 {
			e := edges[rng.Intn(len(edges))]
			a, b = e[0], e[1]
			if a == super.ID() || b == super.ID() {
				continue
			}
		} else {
			a = inst.IDs[rng.Intn(len(inst.IDs))]
			b = inst.IDs[rng.Intn(len(inst.IDs))]
			if a == b || truth.Has(a, b) {
				continue
			}
		}
		p := m.Params()
		p.Y = 3 * miners.BaseFee() // cap comfortably above the moving base fee
		m.SetParams(p)
		ok, err := m.MeasureOneLink(a, b)
		if err != nil {
			return nil, err
		}
		if ok {
			measured.Add(a, b)
		}
		if truth.Has(a, b) {
			measuredTruth.Add(a, b)
		}
		pairs++
	}
	miners.Stop()
	w.Stop()

	return &AppEResult{
		Score:                   core.ScoreAgainst(measured, measuredTruth, nil),
		BaseFeeStart:            initialBaseFee,
		BaseFeeEnd:              miners.BaseFee(),
		UnderpricedDropObserved: dropSeen,
		PairsMeasured:           pairs,
	}, nil
}

// appEWorld is the EIP-1559 testnet: a 60-node random graph under
// dynamic-fee background traffic — fee caps 1–4 Gwei, modest tips.
func appEWorld(seed int64) World {
	w := testnet(seed, netgen.ErdosRenyiNM(60, 180, seed), netgen.Uniform(), poolScale, 300)
	w.Traffic.Rate, w.Traffic.PriceLo, w.Traffic.PriceHi = 2.5, types.Gwei, 4*types.Gwei
	return w
}

// FormatAppE renders the EIP-1559 outcome.
func FormatAppE(r *AppEResult) string {
	var b strings.Builder
	b.WriteString("Appendix E — TopoShot under EIP-1559\n")
	fmt.Fprintf(&b, "  pairs measured: %d   score: %v\n", r.PairsMeasured, r.Score)
	fmt.Fprintf(&b, "  base fee: %d → %d wei (fee market live)\n", r.BaseFeeStart, r.BaseFeeEnd)
	fmt.Fprintf(&b, "  underpriced-drop rule observed: %v\n", r.UnderpricedDropObserved)
	return b.String()
}

// FloodResult quantifies the §5.1 zero-R flaw: on clients that accept
// same-price replacements, an attacker replaces one buffered transaction
// over and over, amplifying network traffic without committing any
// additional Ether.
type FloodResult struct {
	Client string
	// Replacements that a single funded slot accepted.
	Replacements int
	// PropagationMessages carried those replacements across the network.
	PropagationMessages int
	// CommittedWei is the attacker's maximum on-chain exposure (one slot).
	CommittedWei uint64
}

// FloodExploit replays the bug-report scenario against one client policy on
// a small network: 50 same-price replacements of one transaction. A
// measurable client (R > 0) rejects every one; a zero-R client accepts and
// re-gossips them all.
func FloodExploit(policy txpool.Policy, seed int64) FloodResult {
	world := floodWorld(policy, seed).Build()
	net, super, ids := world.Net, world.Super, world.Inst.IDs

	attacker := types.AddressFromUint64(0xbad)
	price := types.Gwei
	base := types.NewTransaction(attacker, types.AddressFromUint64(1), 0, price, 0)
	super.Inject(ids[0], base)
	net.RunFor(3)
	mc := net.MsgCounts()
	before := mc["txs"] + mc["announce"]

	replaced := 0
	const attempts = 50
	for i := 0; i < attempts; i++ {
		// Same sender, nonce and price; only the payload value changes.
		v := types.NewTransaction(attacker, types.AddressFromUint64(1), 0, price, uint64(i+2))
		super.Inject(ids[0], v)
		net.RunFor(1.5)
		if net.Node(ids[0]).Pool().Contains(v) {
			replaced++
		}
	}
	net.RunFor(3)
	after := net.MsgCounts()
	return FloodResult{
		Client:              policy.Name,
		Replacements:        replaced,
		PropagationMessages: after["txs"] + after["announce"] - before,
		CommittedWei:        base.Fee(),
	}
}

// floodWorld is the exploit's network: ten local nodes of one client with
// 256-slot pools, each linked to the next and the third next around a ring.
func floodWorld(policy txpool.Policy, seed int64) World {
	w := World{Seed: seed, Latency: localLatency}
	for i := 0; i < 10; i++ {
		w.Nodes = append(w.Nodes, ethsim.NodeConfig{Policy: policy.WithCapacity(256), MaxPeers: 16})
		w.Links = append(w.Links, [2]int{i, (i + 1) % 10}, [2]int{i, (i + 3) % 10})
	}
	return w
}

// FormatFlood renders flood results for a set of clients.
func FormatFlood(rows []FloodResult) string {
	var b strings.Builder
	b.WriteString("§5.1 zero-R flooding exploit — 50 same-price replacement attempts\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-12s accepted=%2d/50  gossip messages=%5d  committed=%d wei\n",
			r.Client, r.Replacements, r.PropagationMessages, r.CommittedWei)
	}
	return b.String()
}

package experiments

import (
	"fmt"

	"toposhot/internal/core"
	"toposhot/internal/ethsim"
	"toposhot/internal/graph"
	"toposhot/internal/netgen"
	"toposhot/internal/trace"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// censusBackgroundRate is the network-wide background tx arrival rate
// during census measurement (txs/second).
const censusBackgroundRate = 0.2

// censusExpiry is the scaled unconfirmed-transaction drain time during
// censuses. On a live testnet measurement leftovers (txC floods, plants)
// leave the mempool within minutes — mined by the underloaded testnet's
// miners or dropped by Geth's 3-hour expiry; the simulated campaign has no
// miners, so this drain is modelled as a scaled expiry. It is several times
// one batch's duration, so every measurement transaction comfortably
// outlives the batch that needs it.
const censusExpiry = 75.0

// poolScale is the pool scale of every world but the full-size local ones:
// 512-slot pools keep whole-testnet simulations tractable, and every policy
// ratio stays the paper's.
const poolScale = 0.1

// World is one simulated Ethereum world, declared as a value: Geth-like
// pools gossiping over a topology, a measurement supernode peered with every
// node, and background traffic. Every driver in this package measures a
// World. The fields are in the order Build uses them, which is the engine's
// draw order, so Build has one fixed order and one hook, Join.
type World struct {
	Seed    int64   // seeds the engine and salts Graph's node sampling
	Latency Latency // one-hop delivery profile
	// Lane, when non-nil, is the trace lane of the network and its measurers;
	// nil leaves them on the process-default tracer's root lane.
	Lane *trace.Tracer
	// The topology: Graph's vertices as nodes drawn from the Het population
	// (netgen.InstantiateScaled), or else Nodes, connected by index in Links.
	Graph *graph.Graph
	Het   netgen.Heterogeneity
	Nodes []ethsim.NodeConfig
	Links [][2]int
	// PoolScale scales every pool's capacity (0 = full size), the price
	// estimator's and so the default Z included. Expiry, when non-zero, is
	// every pool's unconfirmed-transaction lifetime.
	PoolScale, Expiry float64
	// Join, when set, adds a driver's own nodes (the validation net's B′)
	// before the supernode joins, so it peers with them too.
	Join func(*Built)
	// Janitor, when non-zero, is the interval of the pool-expiry tick.
	Janitor float64
	// Traffic is what StartTraffic runs. A world with traffic (Rate > 0) gives
	// the supernode's price estimator the pools' policy, so the estimate
	// feels the targets' eviction pressure; an idle world keeps the default.
	Traffic Traffic
}

// Latency is a one-hop delivery profile over ethsim's 50 ms base: an
// exponential straggler tail of mean Tail seconds capped at Max, and
// congestion spikes of up to SpikeMax seconds with probability SpikeProb.
type Latency struct{ Tail, Max, SpikeProb, SpikeMax float64 }

var (
	publicLatency = Latency{Tail: 0.05, Max: 1.0} // public nodes over a multi-hour campaign
	// internetLatency adds congestion spikes: straggling setup deliveries
	// interfere with later nodes' setups (§6.1, Figure 4b).
	internetLatency = Latency{Tail: 0.15, Max: 3.0, SpikeProb: 0.30, SpikeMax: 5.0}
	testnetLatency  = Latency{Tail: 0.1, Max: 3.0}  // ethsim.DefaultConfig's
	localLatency    = Latency{Tail: 0.02, Max: 0.5} // nodes on one host (Appendix B)
	lockstepLatency = Latency{Max: 0.05}            // constant: twin worlds replay exactly
)

// Traffic is background load: Prefill transactions given Settle seconds to
// gossip (the paper's mempool refill for idle testnets), then Poisson
// arrivals at Rate tx/s, priced uniformly in [PriceLo, PriceHi).
type Traffic struct {
	Rate             float64
	PriceLo, PriceHi uint64
	Prefill          int
	Settle           float64
}

// Built is a World after Build: the network, the measurement supernode, and
// in Inst the node of every Graph vertex or Nodes index.
type Built struct {
	World World // zero for a restored world
	Net   *ethsim.Network
	Super *ethsim.Supernode
	Inst  *netgen.Instantiated
}

// testnet is the world of every census-shaped campaign and of the §6.1
// validation nets: g's public nodes, pools scaled by scale whose leftovers
// expire after censusExpiry, and background traffic after prefill seeded
// transactions.
func testnet(seed int64, g *graph.Graph, het netgen.Heterogeneity, scale float64, prefill int) World {
	return World{Seed: seed, Latency: publicLatency, Graph: g, Het: het, PoolScale: scale, Expiry: censusExpiry,
		Janitor: 30, Traffic: Traffic{Rate: censusBackgroundRate, PriceLo: types.Gwei / 10, PriceHi: 2 * types.Gwei,
			Prefill: prefill, Settle: 5}}
}

// World is the census's world over g; its measurer takes World(nil).Params(),
// restored or not.
func (cfg CensusConfig) World(g *graph.Graph) World {
	return testnet(cfg.Seed, g, cfg.Het, cfg.PoolScale, cfg.Prefill)
}

// policy is p at the world's pool scale and expiry.
func (w World) policy(p txpool.Policy) txpool.Policy {
	if w.PoolScale > 0 && w.PoolScale != 1 {
		p = p.WithCapacity(int(float64(p.Capacity) * w.PoolScale))
	}
	if w.Expiry > 0 {
		p = p.WithExpiry(w.Expiry)
	}
	return p
}

// Params returns the measurement defaults with Z = the world's pool slots.
func (w World) Params() core.Params {
	p := core.DefaultParams()
	p.Z = w.policy(txpool.Geth).Capacity
	return p
}

// Build makes the world: network, topology, Join, the supernode peered with
// every node, its estimator's policy, the janitor.
func (w World) Build() *Built {
	cfg := ethsim.DefaultConfig(w.Seed)
	cfg.LatencyTail, cfg.LatencyMax = w.Latency.Tail, w.Latency.Max
	cfg.SpikeProb, cfg.SpikeMax = w.Latency.SpikeProb, w.Latency.SpikeMax
	b := &Built{World: w, Net: ethsim.NewNetwork(cfg)}
	if w.Lane != nil {
		b.Net.SetTracer(w.Lane)
	}
	if w.Graph != nil {
		het := w.Het
		het.Expiry = w.Expiry
		b.Inst = netgen.InstantiateScaled(b.Net, w.Graph, het, w.Seed, w.PoolScale)
	} else {
		b.Inst = &netgen.Instantiated{Back: make(map[types.NodeID]int, len(w.Nodes))}
		for i, nc := range w.Nodes {
			nc.Policy = w.policy(nc.Policy)
			id := b.Net.AddNode(nc).ID()
			b.Inst.IDs, b.Inst.Back[id] = append(b.Inst.IDs, id), i
		}
		for _, l := range w.Links {
			_ = b.Net.Connect(b.Inst.IDs[l[0]], b.Inst.IDs[l[1]])
		}
	}
	if w.Join != nil {
		w.Join(b)
	}
	b.Super = ethsim.NewSupernode(b.Net)
	b.Super.ConnectAll()
	if w.Traffic.Rate > 0 {
		b.Super.SetEstimatorPolicy(w.policy(txpool.Geth))
	}
	if w.Janitor > 0 {
		b.Net.StartJanitor(w.Janitor)
	}
	return b
}

// StartTraffic prefills the pools and starts the background workload, which
// runs until the returned workload is stopped (an idle world only prefills).
// It is Build's last step, kept apart so a caller can time the two.
func (b *Built) StartTraffic() *ethsim.Workload {
	t := b.World.Traffic
	wl := ethsim.NewWorkload(b.Net, t.Rate, t.PriceLo, t.PriceHi)
	wl.Prefill(t.Prefill, t.Settle)
	wl.Start(0)
	return wl
}

// Measurer returns a measurer with params on the supernode, recording on the
// world's trace lane.
func (b *Built) Measurer(params core.Params) *core.Measurer {
	m := core.NewMeasurer(b.Net, b.Super, params)
	if b.World.Lane != nil {
		m.SetTracer(b.World.Lane)
	}
	return m
}

// RestoreCensusWorld rebuilds the world a checkpoint was taken of: the
// network from the blob, the measurer supernode by its index, the vertex
// mapping from Back. It is the one restore path of every resumable
// campaign. Background traffic is engine state, so the restored world is
// already running; StartTraffic is for fresh worlds only.
func RestoreCensusWorld(ck *Checkpoint) (*Built, error) {
	net, err := ethsim.RestoreNetwork(ck.Blob)
	if err != nil {
		return nil, fmt.Errorf("restore engine: %w", err)
	}
	supers := net.Supernodes()
	if ck.Super < 0 || ck.Super >= len(supers) {
		return nil, fmt.Errorf("restore: supernode index %d out of range (have %d)", ck.Super, len(supers))
	}
	inst := &netgen.Instantiated{IDs: make([]types.NodeID, len(ck.Back)), Back: make(map[types.NodeID]int, len(ck.Back))}
	// Back must map the network's nodes one to one onto vertices 0..n-1: a
	// file is outside input, and a repeat would leave a vertex without a node.
	for _, p := range ck.Back {
		switch _, dup := inst.Back[p.ID]; {
		case p.V < 0 || p.V >= len(inst.IDs):
			return nil, fmt.Errorf("restore: vertex %d out of range (have %d)", p.V, len(inst.IDs))
		case net.Node(p.ID) == nil || dup || inst.IDs[p.V] != 0:
			return nil, fmt.Errorf("restore: entry %v→%d is not a node or repeats one", p.ID, p.V)
		}
		inst.IDs[p.V], inst.Back[p.ID] = p.ID, p.V
	}
	return &Built{Net: net, Super: supers[ck.Super], Inst: inst}, nil
}

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

// CensusWorld is the simulated testnet every census-shaped campaign (the
// census, its sharded and tracked forms, the strategy head-to-head, the
// toposhot CLI) measures: the instantiated topology with a supernode joined
// to every node. It holds no measurer — each campaign brings its own.
type CensusWorld struct {
	Net   *ethsim.Network
	Super *ethsim.Supernode
	Inst  *netgen.Instantiated

	prefill int
}

// poolSlots is the scaled mempool capacity; node pools, the supernode's
// estimator and the future count Z all share it.
func (cfg CensusConfig) poolSlots() int {
	return int(float64(txpool.Geth.Capacity) * cfg.PoolScale)
}

// MeasureParams returns the measurement parameters matched to the world's
// scaled pools: the defaults with Z = the pool capacity.
func (cfg CensusConfig) MeasureParams() core.Params {
	params := core.DefaultParams()
	params.Z = cfg.poolSlots()
	return params
}

// BuildCensusWorld instantiates g as a census world: public nodes with a
// modest straggler latency tail (multi-hour campaign conditions), pools and
// the supernode's estimator scaled by cfg.PoolScale, and a janitor expiring
// leftovers after censusExpiry so a long campaign stays in steady state. Only
// cfg.Het, cfg.PoolScale and cfg.Prefill are read; seed and lanes are
// separate because a sharded census salts the seed per region.
//
// The order of calls here and in StartTraffic is the engine's draw order —
// moving one moves every simulated result. A non-nil tr puts the network on
// that trace lane; nil leaves NewNetwork's self-wiring to the process-default
// tracer's root lane.
func BuildCensusWorld(cfg CensusConfig, g *graph.Graph, seed int64, lanes int, tr *trace.Tracer) *CensusWorld {
	netCfg := ethsim.DefaultConfig(seed)
	netCfg.LatencyTail = 0.05
	netCfg.LatencyMax = 1.0
	netCfg.Lanes = lanes
	net := ethsim.NewNetwork(netCfg)
	if tr != nil {
		net.SetTracer(tr)
	}
	het := cfg.Het
	het.Expiry = censusExpiry
	inst := netgen.InstantiateScaled(net, g, het, seed, cfg.PoolScale)
	super := ethsim.NewSupernode(net)
	super.ConnectAll()
	super.SetEstimatorPolicy(txpool.Geth.WithCapacity(cfg.poolSlots()).WithExpiry(censusExpiry))
	net.StartJanitor(30)
	return &CensusWorld{Net: net, Super: super, Inst: inst, prefill: cfg.Prefill}
}

// RestoreCensusWorld rebuilds the world a checkpoint was taken of, on lanes
// engine lanes: the network from the blob, the measurer supernode by its
// index, the vertex mapping from Back. It is the one restore path of every
// resumable campaign. Background traffic is engine state, so the restored
// world is already running; StartTraffic is for fresh worlds only.
func RestoreCensusWorld(ck *Checkpoint, lanes int) (*CensusWorld, error) {
	net, err := ethsim.RestoreNetworkLanes(ck.Blob, lanes)
	if err != nil {
		return nil, fmt.Errorf("restore engine: %w", err)
	}
	supers := net.Supernodes()
	if ck.Super < 0 || ck.Super >= len(supers) {
		return nil, fmt.Errorf("restore: supernode index %d out of range (have %d)", ck.Super, len(supers))
	}
	inst := &netgen.Instantiated{Net: net, IDs: make([]types.NodeID, len(ck.Back)), Back: make(map[types.NodeID]int, len(ck.Back))}
	for _, p := range ck.Back {
		if p.V < 0 || p.V >= len(inst.IDs) {
			return nil, fmt.Errorf("restore: vertex %d out of range (have %d)", p.V, len(inst.IDs))
		}
		inst.IDs[p.V], inst.Back[p.ID] = p.ID, p.V
	}
	return &CensusWorld{Net: net, Super: supers[ck.Super], Inst: inst}, nil
}

// StartTraffic seeds the pools with the configured prefill (the paper's
// mempool-refill trick for idle testnets) and starts the background workload,
// which runs until the returned workload is stopped.
func (w *CensusWorld) StartTraffic() *ethsim.Workload {
	wl := ethsim.NewWorkload(w.Net, censusBackgroundRate, types.Gwei/10, 2*types.Gwei)
	wl.Prefill(w.prefill, 5)
	wl.Start(0)
	return wl
}

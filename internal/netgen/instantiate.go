package netgen

import (
	"math/rand"

	"toposhot/internal/ethsim"
	"toposhot/internal/graph"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// Heterogeneity describes the non-default node population that limits
// TopoShot's recall in the wild (§6.1 lists the three culprits).
type Heterogeneity struct {
	// CustomPoolFraction of nodes run an enlarged mempool; their capacity is
	// the default multiplied by a factor in [CustomPoolFactorMin,
	// CustomPoolFactorMax] (min defaults to 1.5 when zero).
	CustomPoolFraction  float64
	CustomPoolFactorMin float64
	CustomPoolFactorMax float64
	// CustomBumpFraction of nodes run a non-default replacement threshold
	// drawn from {15%, 20%, 25%}.
	CustomBumpFraction float64
	// NoForwardFraction of nodes never relay transactions.
	NoForwardFraction float64
	// ForwardFuturesFraction of nodes relay future transactions (filtered
	// out by pre-processing).
	ForwardFuturesFraction float64
	// UnresponsiveFraction of nodes answer nothing.
	UnresponsiveFraction float64
	// ParityFraction of nodes run Parity instead of Geth.
	ParityFraction float64
	// LegacyPushFraction of nodes push to all peers (no announcements).
	LegacyPushFraction float64
	// Expiry, when non-zero, overrides every node's unconfirmed-transaction
	// lifetime (campaigns scale it alongside pool capacity).
	Expiry float64
}

// DefaultHeterogeneity resembles the Ropsten population that held TopoShot's
// validated recall near 97% at large Z (Figure 4a): a few percent of nodes
// with bigger pools, custom bumps, or no forwarding.
func DefaultHeterogeneity() Heterogeneity {
	return Heterogeneity{
		CustomPoolFraction:     0.02,
		CustomPoolFactorMax:    2.0,
		CustomBumpFraction:     0.01,
		NoForwardFraction:      0.01,
		ForwardFuturesFraction: 0.005,
		UnresponsiveFraction:   0.005,
		ParityFraction:         0.0,
		LegacyPushFraction:     0.1,
	}
}

// Uniform returns a population of all-default Geth nodes.
func Uniform() Heterogeneity { return Heterogeneity{} }

// Instantiated maps graph vertices to simulator node ids.
type Instantiated struct {
	Net  *ethsim.Network
	IDs  []types.NodeID // vertex v → IDs[v]
	Back map[types.NodeID]int
}

// Instantiate realizes a topology as a simulated network: one node per
// vertex with a configuration sampled from the heterogeneity profile, and
// one Connect call per edge. The network's seed plus salt drives sampling.
func Instantiate(net *ethsim.Network, g *graph.Graph, het Heterogeneity, salt int64) *Instantiated {
	return InstantiateScaled(net, g, het, salt, 1)
}

// InstantiateScaled is Instantiate with every node's mempool capacity
// multiplied by scale — whole-testnet campaigns use 1/10-scale pools to
// stay tractable while preserving all policy ratios.
func InstantiateScaled(net *ethsim.Network, g *graph.Graph, het Heterogeneity, salt int64, scale float64) *Instantiated {
	rng := rand.New(rand.NewSource(net.Config().Seed ^ salt))
	nodes := g.Nodes()
	inst := &Instantiated{Net: net, IDs: make([]types.NodeID, len(nodes)), Back: make(map[types.NodeID]int)}
	for i, v := range nodes {
		cfg := ethsim.NodeConfig{Policy: txpool.Geth, MaxPeers: g.Degree(v) + 8}
		if rng.Float64() < het.ParityFraction {
			cfg.Policy = txpool.Parity
		}
		if scale > 0 && scale != 1 {
			cfg.Policy = cfg.Policy.WithCapacity(int(float64(cfg.Policy.Capacity) * scale))
		}
		if het.Expiry > 0 {
			cfg.Policy = cfg.Policy.WithExpiry(het.Expiry)
		}
		if rng.Float64() < het.CustomPoolFraction {
			lo := het.CustomPoolFactorMin
			if lo == 0 {
				lo = 1.5
			}
			factor := lo + rng.Float64()*(het.CustomPoolFactorMax-lo)
			if factor < 1 {
				factor = 1
			}
			cfg.Policy = cfg.Policy.WithCapacity(int(float64(cfg.Policy.Capacity) * factor))
		}
		if rng.Float64() < het.CustomBumpFraction {
			bumps := []uint64{150, 200, 250}
			cfg.Policy = cfg.Policy.WithBumpMil(bumps[rng.Intn(len(bumps))])
		}
		if rng.Float64() < het.NoForwardFraction {
			cfg.NoForward = true
		}
		if rng.Float64() < het.ForwardFuturesFraction {
			cfg.ForwardFutures = true
		}
		if rng.Float64() < het.UnresponsiveFraction {
			cfg.Unresponsive = true
		}
		if rng.Float64() < het.LegacyPushFraction {
			cfg.LegacyPushAll = true
		}
		nd := net.AddNode(cfg)
		inst.IDs[i] = nd.ID()
		inst.Back[nd.ID()] = v
	}
	vertexIndex := make(map[int]int, len(nodes))
	for i, v := range nodes {
		vertexIndex[v] = i
	}
	for _, e := range g.Edges() {
		_ = net.Connect(inst.IDs[vertexIndex[e[0]]], inst.IDs[vertexIndex[e[1]]])
	}
	return inst
}

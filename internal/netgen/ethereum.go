package netgen

import (
	"math/rand"

	"toposhot/internal/graph"
)

// GrowConfig parameterizes the Ethereum-style topology grower, which mimics
// how real nodes form active links: each node discovers a (large, effectively
// global at testnet scale — §6.2.2's analysis) candidate buffer, dials a
// bounded number of outbound peers from it, deduplicates, and respects the
// acceptor's maxpeers cap.
type GrowConfig struct {
	// N is the node count.
	N int
	// Seed drives all sampling.
	Seed int64
	// DialLo/DialHi bound the per-node outbound dial budget (Geth derives
	// ~maxpeers/3 outbound slots).
	DialLo, DialHi int
	// PeersLo/PeersHi bound the per-node maxpeers acceptance cap.
	PeersLo, PeersHi int
	// LeafFraction of nodes are barely-connected clients (1–3 dials, small
	// cap) — the degree-1 population visible in Figures 6 and 8.
	LeafFraction float64
	// Monitors is the number of crawler-style nodes that dial everyone
	// (Goerli's degree-697/711 nodes).
	Monitors int
	// MonitorFraction is the share of the network each monitor reaches.
	MonitorFraction float64
}

// Testnet presets sized after the paper's measured snapshots.
var (
	// RopstenConfig targets n≈588, m≈7500 (avg degree ≈ 25.5).
	RopstenConfig = GrowConfig{
		N: 588, DialLo: 6, DialHi: 22, PeersLo: 25, PeersHi: 60,
		LeafFraction: 0.10, Monitors: 4, MonitorFraction: 0.25,
	}
	// RinkebyConfig targets n≈446, m≈15380 (avg degree ≈ 69): a dense,
	// heavily-used testnet.
	RinkebyConfig = GrowConfig{
		N: 446, DialLo: 20, DialHi: 50, PeersLo: 60, PeersHi: 180,
		LeafFraction: 0.06, Monitors: 2, MonitorFraction: 0.30,
	}
	// GoerliConfig targets n≈1025, m≈18530 (avg degree ≈ 36), with two
	// globally-connected crawlers of degree ≈ 700.
	GoerliConfig = GrowConfig{
		N: 1025, DialLo: 8, DialHi: 26, PeersLo: 30, PeersHi: 80,
		LeafFraction: 0.08, Monitors: 2, MonitorFraction: 0.69,
	}
	// MainnetConfig targets the 2021 mainnet population the paper sizes its
	// cost extrapolation against (§6.4): tens of thousands of reachable
	// nodes, Geth-default maxpeers, a visible leaf population of light
	// clients, and a handful of crawler/monitor services each covering a few
	// percent of the network. The SoA engine (DESIGN.md §5) exists to make
	// this preset simulable on one machine.
	MainnetConfig = GrowConfig{
		N: 50_000, DialLo: 8, DialHi: 17, PeersLo: 25, PeersHi: 50,
		LeafFraction: 0.12, Monitors: 8, MonitorFraction: 0.03,
	}
)

// WithSeed returns a copy of the config using the given seed.
func (c GrowConfig) WithSeed(seed int64) GrowConfig {
	c.Seed = seed
	return c
}

// WithN returns a copy of the config sized to n nodes.
func (c GrowConfig) WithN(n int) GrowConfig {
	c.N = n
	return c
}

// Grow builds a topology under the config. Vertices are 0..N-1.
func Grow(cfg GrowConfig) *graph.Graph {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.New()
	n := cfg.N
	dials := make([]int, n)
	caps := make([]int, n)
	for v := 0; v < n; v++ {
		g.AddNode(v)
		if rng.Float64() < cfg.LeafFraction {
			dials[v] = 1 + rng.Intn(2)
			caps[v] = 3 + rng.Intn(5)
			continue
		}
		dials[v] = cfg.DialLo + rng.Intn(max(1, cfg.DialHi-cfg.DialLo+1))
		caps[v] = cfg.PeersLo + rng.Intn(max(1, cfg.PeersHi-cfg.PeersLo+1))
	}
	// Monitors: huge caps, dial a large share of the network.
	monitorDials := int(cfg.MonitorFraction * float64(n))
	for i := 0; i < cfg.Monitors && i < n; i++ {
		v := n - 1 - i
		dials[v] = monitorDials
		caps[v] = n
	}

	// Dial rounds: every node attempts its outbound budget against uniform
	// candidates (the discovery buffer is effectively global at testnet
	// scale); acceptors enforce their caps; duplicates dedup (the behaviour
	// §6.2.2 credits with low modularity).
	order := rng.Perm(n)
	for _, v := range order {
		attempts := 0
		budget := dials[v]
		for budget > 0 && attempts < 50*dials[v]+100 {
			attempts++
			u := rng.Intn(n)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			if g.Degree(u) >= caps[u] || g.Degree(v) >= caps[v] {
				if g.Degree(v) >= caps[v] {
					break
				}
				continue
			}
			g.AddEdge(u, v)
			budget--
		}
	}
	// Connect stragglers (isolated vertices) to a random accepting peer so
	// the overlay is a single component, as a live gossip network must be.
	for v := 0; v < n; v++ {
		if g.Degree(v) == 0 {
			for {
				u := rng.Intn(n)
				if u != v {
					g.AddEdge(u, v)
					break
				}
			}
		}
	}
	return g
}

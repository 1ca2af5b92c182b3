package experiments

import (
	"toposhot/internal/ethsim"
	"toposhot/internal/mainnet"
	"toposhot/internal/netgen"
	"toposhot/internal/txpool"
)

// pinRecipes builds each world TestWorldStatePins digests from the World
// value its driver declares, up to the moment the pin is taken.
func pinRecipes() map[string]func() *ethsim.Network {
	const seed = 7
	started := func(w World) *ethsim.Network {
		b := w.Build()
		b.StartTraffic()
		return b.Net
	}
	census := func(lanes int) func() *ethsim.Network {
		return func() *ethsim.Network {
			cfg := GoerliCensus(seed)
			cfg.Grow = cfg.Grow.WithN(48)
			w := cfg.World(netgen.Grow(cfg.Grow))
			w.Lanes = lanes
			return started(w)
		}
	}
	return map[string]func() *ethsim.Network{
		"census":        census(0),
		"census-lanes4": census(4),
		"validation": func() *ethsim.Network {
			het := netgen.Heterogeneity{CustomPoolFraction: 0.14, CustomPoolFactorMin: 1.1,
				CustomPoolFactorMax: 1.85, NoForwardFraction: 0.03}
			return newValidationNet(seed, 150, het, publicLatency, 60, nil).Net
		},
		"validation-4b": func() *ethsim.Network {
			return newValidationNet(seed, 170, netgen.Uniform(), internetLatency, 40, nil).Net
		},
		"appe":   func() *ethsim.Network { return started(appEWorld(seed)) },
		"appc":   func() *ethsim.Network { return started(appCWorld(seed)) },
		"table6": func() *ethsim.Network { return started(table6World(mainnet.Config{RegularNodes: 40, Seed: seed})) },
		"fig7":   func() *ethsim.Network { return started(fig7World(seed+1000*3120+1000, 3120, 1000, nil)) },
		"table8": func() *ethsim.Network { return started(table8World(seed, [][2]int{{0, 1}, {0, 2}, {1, 2}}, nil)) },
		"flood":  func() *ethsim.Network { return floodWorld(txpool.Geth, seed).Build().Net },
	}
}

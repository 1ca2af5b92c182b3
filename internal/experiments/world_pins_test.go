package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// worldPins are the SHA-256 digests of Network.Checkpoint() for every world
// recipe the drivers use, taken right after the world is built and its
// traffic started (and, for the mined worlds, before their miners start: a
// pending miner event refuses a checkpoint). The rendered figures are too
// coarse to notice a draw-order slip — a Fig 7 row is 0 % or 100 % — while
// the checkpoint holds every pool, peer list, pending event and RNG draw
// count, so a slip in a recipe's configuration or draw order moves its
// digest. They were re-recorded once, for checkpoint layout v3, as the
// parent's blobs less the fields v3 dropped; at v2 the census pin had a twin
// on four engine lanes, which differed only in the lane tags.
var worldPins = map[string]string{
	"census":        "f107abcf6844fef0c16e76ff6c9149c9083bfcb10f754e064090b29f87cdeeb0",
	"validation":    "780df75040d8cf0d40184222fd2402a10d49ba83ca734b81fbc5ad65dd0f7967",
	"validation-4b": "af386ff4205b36188118f2ba8484a0959ca3597bfad040311b521a11ea90818b",
	"appe":          "8380b9fda56695b8db739d92b4e2e13547d39d00c46547db9d4b37b7738922e3",
	"appc":          "b3d845ff52d269d8463268547e473d8be43dc25d66a9e56bb23a81af3fc2a5f8",
	"table6":        "234ffa59b04fbd4b44138698af19f4bb984418319451fcbb17b983064c581ecf",
	"fig7":          "0786716934887022fecab07db005bbf3aa88b11d634fa55be7130b46c1d1b0c5",
	"table8":        "f882aed668047dd3091c48298409ffddae15873228385f62f6dde18c5b79ee31",
	"flood":         "84bcd361eb941ba97694cd54b0bc5db6e184ec6cb935250542343ad13a8e74fb",
}

func TestWorldStatePins(t *testing.T) {
	recipes := pinRecipes()
	if len(recipes) != len(worldPins) {
		t.Fatalf("%d recipes, %d pins", len(recipes), len(worldPins))
	}
	for name, want := range worldPins {
		build, ok := recipes[name]
		if !ok {
			t.Errorf("%s: no recipe", name)
			continue
		}
		blob, err := build().Checkpoint()
		if err != nil {
			t.Errorf("%s: checkpoint: %v", name, err)
			continue
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: world state sha256 = %s, want %s", name, got, want)
		}
	}
}

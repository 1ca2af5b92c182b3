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
// digest.
var worldPins = map[string]string{
	"census":        "d1a7c32b23579593d0cd30e1e6f421e633532ce92ba3bdcd91a81ffb1dce734b",
	"census-lanes4": "4654d757f98ff47daa3a322bd89a39fff38cf954396c2c788ad36f3751fc82e2",
	"validation":    "634457f1ad66baaa3c0c807f6ed96d7e98b414398d520c040d48a19e368dd8a8",
	"validation-4b": "e7500e5ab7fa1570da87feacbc07ebe46a0783b2f2fe4cdf626c2d3850016401",
	"appe":          "ceebf4f69ea55ba3a8a43a5b072bc01287589282d3cba226924bb09d170e9aab",
	"appc":          "623c17926f0b75c4a69e9010d22316464d0c947a22a873e0e161a0705026e335",
	"table6":        "ff136cf98ccf08afdf056778fafdbd73bb3948991c892e8a15c319ca1f96d315",
	"fig7":          "c5058283c30c99f43e05e5a8754b3bdb3e002c14dc13956ac4f7564fd45e1085",
	"table8":        "78741eb0ce79731d835cbaf66701fd51dffc5a239b0a8bc2d4aa87331463612f",
	"flood":         "b29fc6d1e73192af2eeacc5a42ea313814366f9b781c388e21d3f17161339b0b",
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

package experiments

import (
	"slices"
	"testing"

	"toposhot/internal/ethsim"
	"toposhot/internal/gossip"
	"toposhot/internal/strategy"
	"toposhot/internal/types"
)

// shadowVantage is a supernode whose every Sightings answer is checked
// against a full log of every delivery and announcement of every hash, kept
// by a recorder chained onto the node's exported hooks: the log the
// supernode kept before the watch and retirement rules.
type shadowVantage struct {
	*ethsim.Supernode
	t     testing.TB
	full  map[types.Hash][]gossip.Sighting
	reads int
}

func newShadowVantage(t testing.TB, net *ethsim.Network, s *ethsim.Supernode) *shadowVantage {
	v := &shadowVantage{Supernode: s, t: t, full: make(map[types.Hash][]gossip.Sighting)}
	nd := net.Node(s.ID())
	onTx, onHash := nd.OnTxDelivered, nd.OnHashAnnounced
	nd.OnTxDelivered = func(from types.NodeID, tx *types.Transaction, at float64) {
		h := tx.Hash()
		v.full[h] = append(v.full[h], gossip.Sighting{At: at, Peer: from, Pushed: true})
		onTx(from, tx, at)
	}
	nd.OnHashAnnounced = func(from types.NodeID, h types.Hash, at float64) {
		v.full[h] = append(v.full[h], gossip.Sighting{At: at, Peer: from})
		onHash(from, h, at)
	}
	return v
}

func (v *shadowVantage) Sightings(h types.Hash, since float64) []gossip.Sighting {
	got := v.Supernode.Sightings(h, since)
	var want []gossip.Sighting
	for _, s := range v.full[h] {
		if s.At >= since {
			want = append(want, s)
		}
	}
	if !slices.Equal(got, want) {
		v.t.Errorf("Sightings(%v, %v) = %v, the full log has %v", h, since, got, want)
	}
	v.reads++
	return got
}

// TestCompareSightingsMatchFullLog runs Compare's four campaigns with each
// strategy probing through a shadowed supernode: every read of the bounded
// log answers what the full log would, and every row equals Compare's.
func TestCompareSightingsMatchFullLog(t *testing.T) {
	cfg := smallCompareConfig()
	rows, err := Compare(7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range strategy.Methods() {
		world, truth, pairs := compareReplica(7, cfg, nil)
		v := newShadowVantage(t, world.Net, world.Super)
		s, err := strategy.NewMethodAt(m, v, cfg.Strategy)
		if err != nil {
			t.Fatal(err)
		}
		out, err := strategy.RunPairs(nil, nil, world.Net, s, pairs)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if v.reads == 0 {
			t.Errorf("%s read no sightings", m)
		}
		r := rows[i]
		if sc := out.Score(truth); sc != r.Score || out.Cost != r.Cost || out.VirtualSeconds != r.VirtualSeconds {
			t.Errorf("%s through the shadow: %v %+v %v s, Compare's row: %v %+v %v s",
				m, sc, out.Cost, out.VirtualSeconds, r.Score, r.Cost, r.VirtualSeconds)
		}
	}
}

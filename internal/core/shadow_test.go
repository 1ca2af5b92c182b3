package core

import (
	"slices"
	"testing"

	"toposhot/internal/ethsim"
	"toposhot/internal/gossip"
	"toposhot/internal/netgen"
	"toposhot/internal/types"
)

// shadowVantage is a supernode whose every Sightings answer is checked
// against a full log: every delivery and announcement of every hash, kept
// by a recorder chained onto the node's exported hooks. It is the log the
// supernode kept before the watch and retirement rules.
type shadowVantage struct {
	*ethsim.Supernode
	t    testing.TB
	full map[types.Hash][]gossip.Sighting
	// reads counts Sightings calls, answered the ones with a sighting.
	reads, answered int
}

func newShadowVantage(t testing.TB, s *ethsim.Supernode) *shadowVantage {
	v := &shadowVantage{Supernode: s, t: t, full: make(map[types.Hash][]gossip.Sighting)}
	nd := s.Node()
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
	if len(got) > 0 {
		v.answered++
	}
	return got
}

// TestSightingsMatchFullLog: over a census of a small world under live
// background traffic — Preprocess, the two-round schedule and one-link
// probes — every read of the bounded log answers what the full log would.
func TestSightingsMatchFullLog(t *testing.T) {
	net := ethsim.NewNetwork(ethsim.DefaultConfig(11))
	inst := netgen.Instantiate(net, netgen.ErdosRenyiNM(14, 30, 11), netgen.Uniform(), 11)
	super := ethsim.NewSupernode(net)
	super.ConnectAll()
	w := ethsim.NewWorkload(net, 20, types.Gwei/10, 2*types.Gwei)
	w.Prefill(600, 5)
	w.Start(1e9)
	params := DefaultParams()
	params.SettleTime = 8
	m := NewMeasurer(net, super, params)
	v := newShadowVantage(t, super)
	m.v = v

	eligible := m.Preprocess(inst.IDs).EligibleNodes(inst.IDs)
	if _, err := m.MeasureNetwork(eligible, 4, 500); err != nil {
		t.Fatal(err)
	}
	for _, b := range eligible[1:4] {
		if _, err := m.MeasureOneLink(eligible[0], b); err != nil {
			t.Fatal(err)
		}
	}
	if v.answered == 0 {
		t.Fatalf("none of %d reads saw a sighting", v.reads)
	}
	t.Logf("%d reads, %d with sightings; the full log holds %d hashes", v.reads, v.answered, len(v.full))
}

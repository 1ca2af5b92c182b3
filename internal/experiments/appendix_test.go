package experiments

import (
	"testing"

	"toposhot/internal/core"
	"toposhot/internal/ethsim"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// TestAppATxProbeFalsePositives is the Appendix-A claim on the interleaved
// per-pair loop: on one shared network TxProbe's marker floods under the
// account model and claims links that do not exist, while TopoShot stays
// exact on the same pairs.
func TestAppATxProbeFalsePositives(t *testing.T) {
	r, err := AppA(7)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pairs != 20 {
		t.Fatalf("measured %d pairs, want 20", r.Pairs)
	}
	if r.TopoShot.FalsePositives != 0 {
		t.Errorf("TopoShot FPs = %d", r.TopoShot.FalsePositives)
	}
	if r.TopoShot.Recall() != 1 {
		t.Errorf("TopoShot recall = %v", r.TopoShot.Recall())
	}
	if r.TxProbe.FalsePositives == 0 {
		t.Error("TxProbe unexpectedly clean (account-model flooding absent)")
	}
}

// lineNet wires n capped-pool nodes into a line, optionally with a supernode
// joined to all of them.
func lineNet(t *testing.T, seed int64, n int, withSuper bool) *ethsim.Network {
	t.Helper()
	net := ethsim.NewNetwork(ethsim.DefaultConfig(seed))
	pol := txpool.Geth.WithCapacity(256)
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = net.AddNode(ethsim.NodeConfig{Policy: pol, MaxPeers: 50}).ID()
	}
	for i := 0; i+1 < n; i++ {
		if err := net.Connect(ids[i], ids[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if withSuper {
		ethsim.NewSupernode(net).ConnectAll()
	}
	return net
}

func TestCrawlInactiveOverApproximates(t *testing.T) {
	rep := crawlInactive(lineNet(t, 4, 60, true), 4, 4)
	if rep.InactiveEdges == 0 {
		t.Fatal("crawl found nothing")
	}
	// Routing tables are discovery-driven, so they vastly over-approximate
	// the sparse line topology.
	if rep.InactiveEdges <= rep.ActiveEdges {
		t.Fatalf("inactive (%d) should exceed active (%d)", rep.InactiveEdges, rep.ActiveEdges)
	}
	if rep.ActiveEdges != 59 {
		t.Fatalf("ActiveEdges = %d, want 59 (supernode links excluded)", rep.ActiveEdges)
	}
	if rep.PrecisionAsActive > 0.5 {
		t.Fatalf("routing tables too precise (%v): W2 distinction lost", rep.PrecisionAsActive)
	}
}

// TestActiveEdgesExcludingNodeZero is the regression for the node-0 sentinel
// bug: the old code used `superID := types.NodeID(0)` as "no supernode",
// silently dropping a real node 0's edges from the active count.
func TestActiveEdgesExcludingNodeZero(t *testing.T) {
	s := core.NewEdgeSet()
	s.Add(0, 1)
	s.Add(1, 2)
	if got := activeEdgesExcluding(s, nil); got != 2 {
		t.Fatalf("nil exclusion counted %d edges, want 2 (node 0 is a real node)", got)
	}
	zero := types.NodeID(0)
	if got := activeEdgesExcluding(s, &zero); got != 1 {
		t.Fatalf("excluding node 0 counted %d edges, want 1", got)
	}
}

// TestCrawlInactiveNoSupernode checks that a supernode-less network keeps
// every active edge in the denominator.
func TestCrawlInactiveNoSupernode(t *testing.T) {
	rep := crawlInactive(lineNet(t, 6, 12, false), 2, 6)
	if rep.ActiveEdges != 11 {
		t.Fatalf("ActiveEdges = %d, want 11 (no supernode to exclude)", rep.ActiveEdges)
	}
}

package mainnet

import (
	"testing"

	"toposhot/internal/ethsim"
	"toposhot/internal/types"
)

// build connects a 60-regular-node Topology on a bare network.
func build(seed int64) *Scenario {
	net := ethsim.NewNetwork(ethsim.DefaultConfig(seed))
	nodes, links := Topology(Config{RegularNodes: 60, Seed: seed})
	ids := make([]types.NodeID, len(nodes))
	for i, nc := range nodes {
		ids[i] = net.AddNode(nc).ID()
	}
	for _, l := range links {
		if err := net.Connect(ids[l[0]], ids[l[1]]); err != nil {
			panic(err)
		}
	}
	return NewScenario(net)
}

func TestBuildPopulation(t *testing.T) {
	sc := build(1)
	for s, want := range ServiceCounts {
		if got := len(sc.Members[s]); got != want {
			t.Errorf("%s backends = %d, want %d", s, got, want)
		}
	}
	if len(sc.Regular) != 60 {
		t.Errorf("regulars = %d", len(sc.Regular))
	}
}

func TestBuildBiasGroundTruth(t *testing.T) {
	sc := build(2)
	conn := func(a, b types.NodeID) bool { return sc.Net.Connected(a, b) }

	// SrvR1 fully meshed with pools and itself.
	if !conn(sc.Members[SrvR1][0], sc.Members[SrvM1][0]) {
		t.Error("SrvR1–SrvM1 missing")
	}
	if !conn(sc.Members[SrvR1][0], sc.Members[SrvR1][1]) {
		t.Error("SrvR1–SrvR1 missing")
	}
	// SrvR2 connects to no critical node.
	r2 := sc.Members[SrvR2][0]
	for _, s := range []string{SrvR1, SrvM1, SrvM2, SrvM3, SrvM4} {
		for _, id := range sc.Members[s] {
			if conn(r2, id) {
				t.Errorf("SrvR2 connected to %s backend", s)
			}
		}
	}
	// SrvM1 backends never peer with each other.
	m1 := sc.Members[SrvM1]
	for i := 0; i < len(m1); i++ {
		for j := i + 1; j < len(m1); j++ {
			if conn(m1[i], m1[j]) {
				t.Fatalf("SrvM1 backends %d and %d peered", i, j)
			}
		}
	}
	// Pools interconnect across pools.
	if !conn(sc.Members[SrvM2][0], sc.Members[SrvM3][0]) {
		t.Error("SrvM2–SrvM3 missing")
	}
}

func TestDiscoveryFindsAllBackends(t *testing.T) {
	sc := build(3)
	found := sc.DiscoverCriticalNodes()
	for s, want := range ServiceCounts {
		if got := len(found[s]); got != want {
			t.Errorf("discovered %s = %d, want %d", s, got, want)
		}
		// Every discovered id must actually be a member.
		members := make(map[types.NodeID]bool)
		for _, id := range sc.Members[s] {
			members[id] = true
		}
		for _, id := range found[s] {
			if !members[id] {
				t.Errorf("discovered impostor %v for %s", id, s)
			}
		}
	}
}

func TestFrontendVersionsDistinct(t *testing.T) {
	sc := build(4)
	seen := make(map[string]bool)
	for s := range ServiceCounts {
		for _, v := range sc.FrontendVersions(s) {
			if seen[v] {
				t.Fatalf("duplicate version string %q", v)
			}
			seen[v] = true
		}
	}
}

func TestTable6PairsCoverNarrative(t *testing.T) {
	// Every pair type the paper reports must be present.
	want := map[[2]string]bool{
		{SrvR1, SrvM1}: true, {SrvR2, SrvR1}: true, {SrvM1, SrvM1}: true,
	}
	for _, p := range Table6Pairs {
		delete(want, [2]string{p[0], p[1]})
	}
	if len(want) != 0 {
		t.Fatalf("missing pairs: %v", want)
	}
}

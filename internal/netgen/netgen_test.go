package netgen

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"toposhot/internal/ethsim"
	"toposhot/internal/graph"
	"toposhot/internal/runner"
)

// TestModels pins one small edge list per random model, in the "u v" form
// the CLI tools read: ER with n=24, m=60; BA with n=24 and 3 edges per new
// node; CM over the ER list's degree sequence; all at seed 7.
func TestModels(t *testing.T) {
	er := ErdosRenyiNM(24, 60, 7)
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"er_n24_m60.edges", er},
		{"ba_n24_d6.edges", BarabasiAlbert(24, 3, 7)},
		{"cm_of_er.edges", Configuration(DegreeSequence(er), 7)},
	} {
		var b bytes.Buffer
		for _, e := range c.g.Edges() {
			fmt.Fprintf(&b, "%d %d\n", e[0], e[1])
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), want) {
			t.Errorf("%s drifted\n--- want\n%s--- got\n%s", c.name, want, b.Bytes())
		}
	}
}

func TestErdosRenyiNM(t *testing.T) {
	g := ErdosRenyiNM(100, 300, 1)
	if g.NumNodes() != 100 || g.NumEdges() != 300 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	// Requesting more edges than possible clamps.
	g = ErdosRenyiNM(4, 100, 1)
	if g.NumEdges() != 6 {
		t.Fatalf("clamped m = %d", g.NumEdges())
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := ErdosRenyiNM(50, 120, 9)
	b := ErdosRenyiNM(50, 120, 9)
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		t.Fatal("seeded generators diverged")
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatal("seeded generators diverged")
		}
	}
}

func TestConfigurationPreservesDegreesApproximately(t *testing.T) {
	base := ErdosRenyiNM(80, 320, 2)
	degs := DegreeSequence(base)
	g := Configuration(degs, 2)
	if g.NumNodes() != 80 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	// Stub matching discards collisions; realized edges within 15% of target.
	if float64(g.NumEdges()) < 0.85*float64(base.NumEdges()) {
		t.Fatalf("too many discarded edges: %d vs %d", g.NumEdges(), base.NumEdges())
	}
}

func TestBarabasiAlbertShape(t *testing.T) {
	g := BarabasiAlbert(200, 5, 3)
	if g.NumNodes() != 200 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	avg := g.AverageDegree()
	if math.Abs(avg-10) > 2 {
		t.Fatalf("avg degree = %v, want ≈ 2k = 10", avg)
	}
	// Preferential attachment must produce hubs well above the average.
	if h := maxDegree(g); h < 20 {
		t.Fatalf("max degree = %d, expected hubs", h)
	}
}

// maxDegree returns the largest vertex degree of g.
func maxDegree(g *graph.Graph) int {
	keys := g.DegreeHistogram().Keys()
	return keys[len(keys)-1]
}

func TestGrowTestnetPresets(t *testing.T) {
	cases := []struct {
		name  string
		cfg   GrowConfig
		wantN int
		wantM float64 // target edges ±40%
	}{
		{"ropsten", RopstenConfig, 588, 7496},
		{"rinkeby", RinkebyConfig, 446, 15380},
		{"goerli", GoerliConfig, 1025, 18530},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := Grow(c.cfg.WithSeed(5))
			if g.NumNodes() != c.wantN {
				t.Fatalf("n = %d, want %d", g.NumNodes(), c.wantN)
			}
			m := float64(g.NumEdges())
			if m < 0.6*c.wantM || m > 1.4*c.wantM {
				t.Fatalf("m = %v, want within 40%% of %v", m, c.wantM)
			}
			// A gossip overlay must be connected.
			if comps := g.ConnectedComponents(); len(comps) != 1 {
				t.Fatalf("components = %d", len(comps))
			}
		})
	}
}

func TestGrowLeafAndMonitorNodes(t *testing.T) {
	g := Grow(GoerliConfig.WithSeed(7))
	h := g.DegreeHistogram()
	if maxDegree(g) < 400 {
		t.Fatalf("no monitor-grade node: max degree %d", maxDegree(g))
	}
	low := 0
	for _, d := range []int{1, 2, 3} {
		low += h.Count(d)
	}
	if low == 0 {
		t.Fatal("no leaf nodes despite LeafFraction")
	}
}

func TestBaselinesAveraging(t *testing.T) {
	g := ErdosRenyiNM(60, 240, 11)
	b := Baselines(g, 3, 11, 10000)
	if b.ER.Nodes != 60 || b.ER.Edges != 240 {
		t.Fatalf("ER baseline size wrong: %+v", b.ER)
	}
	if b.BA.Nodes != 60 {
		t.Fatalf("BA baseline size wrong: %d", b.BA.Nodes)
	}
	if b.CM.Nodes != 60 {
		t.Fatalf("CM baseline size wrong: %d", b.CM.Nodes)
	}
}

// TestBaselinesParallelismInvariance pins that fanning the baseline graphs
// across the runner pool leaves the averaged properties bit-identical to a
// serial run — including the order-sensitive float accumulations.
func TestBaselinesParallelismInvariance(t *testing.T) {
	g := ErdosRenyiNM(60, 240, 11)
	runner.SetParallelism(1)
	serial := Baselines(g, 4, 11, 10000)
	runner.SetParallelism(4)
	defer runner.SetParallelism(0)
	parallel := Baselines(g, 4, 11, 10000)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("baselines diverge across parallelism:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestInstantiateMirrorsGraph(t *testing.T) {
	g := ErdosRenyiNM(30, 90, 13)
	net := ethsim.NewNetwork(ethsim.DefaultConfig(13))
	inst := InstantiateScaled(net, g, Uniform(), 13, 1)
	if len(inst.IDs) != 30 {
		t.Fatalf("ids = %d", len(inst.IDs))
	}
	// Every graph edge must exist in the network and vice versa.
	edges := net.Edges()
	if len(edges) != g.NumEdges() {
		t.Fatalf("network edges = %d, graph edges = %d", len(edges), g.NumEdges())
	}
	for _, e := range edges {
		va, vb := inst.Back[e[0]], inst.Back[e[1]]
		if !g.HasEdge(va, vb) {
			t.Fatalf("network edge %v-%v not in graph", e[0], e[1])
		}
	}
}

func TestInstantiateScaledPools(t *testing.T) {
	g := ErdosRenyiNM(20, 40, 17)
	net := ethsim.NewNetwork(ethsim.DefaultConfig(17))
	inst := InstantiateScaled(net, g, Uniform(), 17, 0.1)
	for _, id := range inst.IDs {
		if cap := net.Node(id).Config().Policy.Capacity; cap != 512 {
			t.Fatalf("scaled capacity = %d, want 512", cap)
		}
	}
}

func TestHeterogeneityApplied(t *testing.T) {
	g := ErdosRenyiNM(400, 1200, 19)
	net := ethsim.NewNetwork(ethsim.DefaultConfig(19))
	het := Heterogeneity{
		NoForwardFraction:  0.5,
		LegacyPushFraction: 0.5,
		Expiry:             123,
	}
	inst := InstantiateScaled(net, g, het, 19, 1)
	noFwd, push := 0, 0
	for _, id := range inst.IDs {
		cfg := net.Node(id).Config()
		if cfg.NoForward {
			noFwd++
		}
		if cfg.LegacyPushAll {
			push++
		}
		if cfg.Policy.Expiry != 123 {
			t.Fatalf("expiry override missing: %v", cfg.Policy.Expiry)
		}
	}
	if noFwd < 100 || noFwd > 300 {
		t.Fatalf("noForward count = %d, want ≈ 200", noFwd)
	}
	if push < 100 || push > 300 {
		t.Fatalf("legacyPush count = %d, want ≈ 200", push)
	}
}

func TestDegreeSequenceMatchesGraph(t *testing.T) {
	g := graph.New()
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	seq := DegreeSequence(g)
	if len(seq) != 3 || seq[0] != 2 || seq[1] != 1 || seq[2] != 1 {
		t.Fatalf("sequence = %v", seq)
	}
}

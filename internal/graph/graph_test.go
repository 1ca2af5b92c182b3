package graph

import (
	"math"
	"math/rand"
	"testing"
)

// k4 returns the complete graph on 4 vertices.
func k4() *Graph {
	g := New()
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// path returns the path graph 0-1-...-n-1.
func path(n int) *Graph {
	g := New()
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestBasicOperations(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(1, 2) // duplicate ignored
	g.AddEdge(2, 2) // self-loop ignored
	if g.NumEdges() != 1 || g.NumNodes() != 2 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(2, 1) {
		t.Fatal("undirected edge missing reverse")
	}
	g.RemoveEdge(1, 2)
	if g.NumEdges() != 0 {
		t.Fatal("remove failed")
	}
	g.RemoveEdge(1, 2) // idempotent
}

func TestRemoveEdgeConsistency(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	// None of these may touch the edge count, the adjacency, or the vertex
	// set: absent edge, both endpoints unknown, one endpoint unknown,
	// self-loop on a known vertex, self-loop on an unknown vertex.
	g.RemoveEdge(1, 3)
	g.RemoveEdge(7, 8)
	g.RemoveEdge(1, 9)
	g.RemoveEdge(2, 2)
	g.RemoveEdge(9, 9)
	if g.NumEdges() != 2 {
		t.Fatalf("no-op removals changed edge count: m=%d", g.NumEdges())
	}
	if g.NumNodes() != 3 {
		t.Fatalf("no-op removals changed vertex set: n=%d", g.NumNodes())
	}
	if g.Degree(1) != 1 || g.Degree(2) != 2 || g.Degree(3) != 1 {
		t.Fatalf("no-op removals changed degrees: %d %d %d",
			g.Degree(1), g.Degree(2), g.Degree(3))
	}
	// A real removal is symmetric and idempotent.
	g.RemoveEdge(2, 1)
	if g.NumEdges() != 1 || g.HasEdge(1, 2) || g.HasEdge(2, 1) || g.Degree(1) != 0 {
		t.Fatal("removal left inconsistent adjacency")
	}
	g.RemoveEdge(1, 2)
	if g.NumEdges() != 1 {
		t.Fatalf("repeated removal drifted edge count: m=%d", g.NumEdges())
	}
}

func TestDegreesAndAverage(t *testing.T) {
	g := k4()
	for v := 0; v < 4; v++ {
		if g.Degree(v) != 3 {
			t.Fatalf("degree(%d) = %d", v, g.Degree(v))
		}
	}
	if g.AverageDegree() != 3 {
		t.Fatalf("avg degree = %v", g.AverageDegree())
	}
}

func TestCloneIndependent(t *testing.T) {
	g := k4()
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Fatal("clone shares adjacency")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(10, 11)
	g.AddNode(99)
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %d", len(comps))
	}
	if len(comps[0]) != 3 {
		t.Fatalf("largest component size = %d", len(comps[0]))
	}
	lc := g.LargestComponent()
	if lc.NumNodes() != 3 || lc.NumEdges() != 2 {
		t.Fatalf("largest component n=%d m=%d", lc.NumNodes(), lc.NumEdges())
	}
}

func TestDistancesOnPath(t *testing.T) {
	g := path(5) // diameter 4, radius 2, center {2}, periphery {0,4}
	d := g.Distances()
	if d.Diameter != 4 || d.Radius != 2 {
		t.Fatalf("diameter=%d radius=%d", d.Diameter, d.Radius)
	}
	if d.CenterSize != 1 || d.PeripherySize != 2 {
		t.Fatalf("center=%d periphery=%d", d.CenterSize, d.PeripherySize)
	}
}

func TestDistancesOnComplete(t *testing.T) {
	d := k4().Distances()
	if d.Diameter != 1 || d.Radius != 1 || d.CenterSize != 4 {
		t.Fatalf("K4 distances wrong: %+v", d)
	}
}

func TestClusteringAndTransitivity(t *testing.T) {
	// K4: fully clustered.
	if c := k4().ClusteringCoefficient(); math.Abs(c-1) > 1e-9 {
		t.Fatalf("K4 clustering = %v", c)
	}
	if tr := k4().Transitivity(); math.Abs(tr-1) > 1e-9 {
		t.Fatalf("K4 transitivity = %v", tr)
	}
	// Star: zero triangles.
	star := New()
	for i := 1; i <= 5; i++ {
		star.AddEdge(0, i)
	}
	if c := star.ClusteringCoefficient(); c != 0 {
		t.Fatalf("star clustering = %v", c)
	}
	if tr := star.Transitivity(); tr != 0 {
		t.Fatalf("star transitivity = %v", tr)
	}
	// Triangle plus a tail: known transitivity 3·1/5.
	g := New()
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	if tr := g.Transitivity(); math.Abs(tr-0.6) > 1e-9 {
		t.Fatalf("triangle+tail transitivity = %v", tr)
	}
}

func TestAssortativitySigns(t *testing.T) {
	// Star graphs are maximally disassortative.
	star := New()
	for i := 1; i <= 6; i++ {
		star.AddEdge(0, i)
	}
	if a := star.DegreeAssortativity(); a >= 0 {
		t.Fatalf("star assortativity = %v, want negative", a)
	}
	// A disjoint union of same-degree cliques is perfectly assortative, but
	// correlation is undefined (zero variance) → 0 by convention.
	if a := k4().DegreeAssortativity(); a != 0 {
		t.Fatalf("regular graph assortativity = %v, want 0", a)
	}
}

func TestMaximalCliques(t *testing.T) {
	// K4 has exactly one maximal clique of size 4.
	if n := k4().CountMaximalCliques(0); n != 1 {
		t.Fatalf("K4 maximal cliques = %d", n)
	}
	// Path of 4: three maximal cliques (the edges).
	if n := path(4).CountMaximalCliques(0); n != 3 {
		t.Fatalf("P4 maximal cliques = %d", n)
	}
	// Budget caps enumeration.
	if n := path(10).CountMaximalCliques(4); n != 4 {
		t.Fatalf("budgeted count = %d", n)
	}
	var cl [][]int
	k4().enumerateCliques(0, func(c []int) bool {
		cl = append(cl, append([]int(nil), c...))
		return true
	})
	if len(cl) != 1 || len(cl[0]) != 4 {
		t.Fatalf("clique listing wrong: %v", cl)
	}
}

func TestMaximalCliquesRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		g := New()
		n := 8
		for u := 0; u < n; u++ {
			g.AddNode(u)
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(u, v)
				}
			}
		}
		got := g.CountMaximalCliques(0)
		want := bruteForceMaximalCliques(g, n)
		if got != want {
			t.Fatalf("trial %d: bron-kerbosch %d != brute force %d", trial, got, want)
		}
	}
}

// bruteForceMaximalCliques enumerates subsets (n ≤ ~16).
func bruteForceMaximalCliques(g *Graph, n int) int {
	isClique := func(mask int) bool {
		for u := 0; u < n; u++ {
			if mask&(1<<u) == 0 {
				continue
			}
			for v := u + 1; v < n; v++ {
				if mask&(1<<v) != 0 && !g.HasEdge(u, v) {
					return false
				}
			}
		}
		return true
	}
	count := 0
	for mask := 1; mask < 1<<n; mask++ {
		if !isClique(mask) {
			continue
		}
		maximal := true
		for v := 0; v < n; v++ {
			if mask&(1<<v) == 0 && isClique(mask|1<<v) {
				maximal = false
				break
			}
		}
		if maximal {
			count++
		}
	}
	return count
}

func TestLouvainTwoCliquesBridge(t *testing.T) {
	// Two K5s joined by one edge: Louvain must find the two cliques.
	g := New()
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			g.AddEdge(u, v)
			g.AddEdge(u+5, v+5)
		}
	}
	g.AddEdge(0, 5)
	part := Louvain(g, 1)
	if part.NumCommunities() != 2 {
		t.Fatalf("communities = %d, want 2", part.NumCommunities())
	}
	// All members of each clique share a label.
	for v := 1; v < 5; v++ {
		if part.community[v] != part.community[0] {
			t.Fatalf("clique 1 split")
		}
		if part.community[v+5] != part.community[5] {
			t.Fatalf("clique 2 split")
		}
	}
	q := Modularity(g, part)
	if q < 0.3 {
		t.Fatalf("modularity = %v, want > 0.3", q)
	}
}

func TestModularityIdentities(t *testing.T) {
	g := k4()
	// Everything in one community: Q = 0... actually Q = Σ e/m − (d/2m)² =
	// 1 − 1 = 0.
	all := &Partition{community: map[int]int{0: 0, 1: 0, 2: 0, 3: 0}}
	if q := Modularity(g, all); math.Abs(q) > 1e-9 {
		t.Fatalf("single-community modularity = %v", q)
	}
	// Singleton communities: Q = −Σ (d_i/2m)² < 0.
	single := &Partition{community: map[int]int{0: 0, 1: 1, 2: 2, 3: 3}}
	if q := Modularity(g, single); q >= 0 {
		t.Fatalf("singleton modularity = %v, want negative", q)
	}
}

func TestModularityRangeOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		g := New()
		for u := 0; u < 40; u++ {
			g.AddNode(u)
			for v := u + 1; v < 40; v++ {
				if rng.Float64() < 0.15 {
					g.AddEdge(u, v)
				}
			}
		}
		part := Louvain(g, int64(trial))
		q := Modularity(g, part)
		if q < -0.5 || q > 1 {
			t.Fatalf("modularity out of range: %v", q)
		}
	}
}

func TestCommunityTable(t *testing.T) {
	g := New()
	// Triangle community + isolated edge.
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(10, 11)
	part := Louvain(g, 1)
	rows := CommunityTable(g, part)
	if len(rows) != part.NumCommunities() {
		t.Fatalf("rows = %d, communities = %d", len(rows), part.NumCommunities())
	}
	var total int
	for _, r := range rows {
		total += r.Size
	}
	if total != g.NumNodes() {
		t.Fatalf("community sizes sum to %d, nodes %d", total, g.NumNodes())
	}
}

func TestDegreeHistogram(t *testing.T) {
	h := path(4).DegreeHistogram()
	if h.Count(1) != 2 || h.Count(2) != 2 {
		t.Fatalf("histogram wrong: deg1=%d deg2=%d", h.Count(1), h.Count(2))
	}
}

func TestComputePropertiesSmoke(t *testing.T) {
	p := ComputeProperties(k4(), 0)
	if p.Nodes != 4 || p.Edges != 6 || p.MaximalCliques != 1 {
		t.Fatalf("properties wrong: %+v", p)
	}
	if p.String() == "" {
		t.Fatal("String empty")
	}
}

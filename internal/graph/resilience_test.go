package graph

import (
	"math"
	"testing"
)

// barbell: two triangles joined through a middle vertex.
//
//	0-1-2 (triangle) — 6 — 3-4-5 (triangle)
func barbell() *Graph {
	g := New()
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(3, 5)
	g.AddEdge(2, 6)
	g.AddEdge(6, 3)
	return g
}

func TestArticulationPoints(t *testing.T) {
	got, _ := barbell().cuts()
	want := []int{2, 3, 6}
	if len(got) != len(want) {
		t.Fatalf("articulation points = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("articulation points = %v, want %v", got, want)
		}
	}
	// A cycle has none.
	cyc := New()
	for i := 0; i < 5; i++ {
		cyc.AddEdge(i, (i+1)%5)
	}
	if ap, _ := cyc.cuts(); len(ap) != 0 {
		t.Fatalf("cycle articulation points = %v", ap)
	}
	// A path has all interior vertices.
	if ap, _ := path(4).cuts(); len(ap) != 2 {
		t.Fatalf("path articulation points = %v", ap)
	}
}

func TestBridges(t *testing.T) {
	_, got := barbell().cuts()
	want := [][2]int{{2, 6}, {3, 6}}
	if len(got) != len(want) {
		t.Fatalf("bridges = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bridges = %v, want %v", got, want)
		}
	}
	if _, br := k4().cuts(); len(br) != 0 {
		t.Fatalf("K4 bridges = %v", br)
	}
	if _, br := path(4).cuts(); len(br) != 3 {
		t.Fatalf("path bridges = %v", br)
	}
}

func TestBetweennessCentrality(t *testing.T) {
	// Star: the hub lies on every pair's path; leaves on none.
	star := New()
	for i := 1; i <= 4; i++ {
		star.AddEdge(0, i)
	}
	cb := star.BetweennessCentrality()
	// Pairs among 4 leaves: C(4,2) = 6, all through the hub.
	if math.Abs(cb[0]-6) > 1e-9 {
		t.Fatalf("hub betweenness = %v, want 6", cb[0])
	}
	for i := 1; i <= 4; i++ {
		if cb[i] != 0 {
			t.Fatalf("leaf %d betweenness = %v", i, cb[i])
		}
	}
	// Path 0-1-2: middle vertex carries the single 0↔2 pair.
	cb = path(3).BetweennessCentrality()
	if math.Abs(cb[1]-1) > 1e-9 {
		t.Fatalf("middle betweenness = %v, want 1", cb[1])
	}
}

func TestAnalyzeEclipseRisk(t *testing.T) {
	g := barbell()
	r := AnalyzeEclipseRisk(g)
	if r.ArticulationPoints != 3 || r.Bridges != 2 {
		t.Fatalf("risk = %+v", r)
	}
	if r.VulnerableAtOrBelow[2] == 0 {
		t.Fatal("no low-degree nodes counted")
	}
	if len(r.CheapestTargets) == 0 || g.Degree(r.CheapestTargets[0]) > g.Degree(r.CheapestTargets[len(r.CheapestTargets)-1]) {
		t.Fatalf("cheapest targets not ascending: %v", r.CheapestTargets)
	}
	if r.MaxBetweenness <= 0 {
		t.Fatal("max betweenness missing")
	}
}

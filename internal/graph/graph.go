// Package graph provides the undirected-graph representation and the
// graph-theoretic statistics the paper reports for measured testnets:
// degree distributions, distance measures (diameter, radius, center,
// periphery, eccentricity), clustering coefficient and transitivity, degree
// assortativity, maximal-clique counts (Bron–Kerbosch) and Louvain
// community detection with modularity.
package graph

import (
	"fmt"
	"sort"

	"toposhot/internal/stats"
)

// Graph is a simple undirected graph over integer vertex ids.
type Graph struct {
	adj map[int]map[int]struct{}
	m   int // edge count
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{adj: make(map[int]map[int]struct{})}
}

// AddNode ensures the vertex exists.
func (g *Graph) AddNode(v int) {
	if g.adj[v] == nil {
		g.adj[v] = make(map[int]struct{})
	}
}

// AddEdge inserts the undirected edge {u,v}, creating vertices as needed.
// Self-loops and duplicates are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.AddNode(u)
	g.AddNode(v)
	if _, ok := g.adj[u][v]; ok {
		return
	}
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
	g.m++
}

// RemoveEdge deletes the undirected edge {u,v} if present. Absent edges,
// unknown vertices, and self-loops (which AddEdge never creates) are all
// no-ops that leave NumEdges and the adjacency maps untouched.
func (g *Graph) RemoveEdge(u, v int) {
	if u == v {
		return
	}
	if _, ok := g.adj[u][v]; !ok {
		return
	}
	delete(g.adj[u], v)
	delete(g.adj[v], u)
	g.m--
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.adj[u][v]
	return ok
}

// NumNodes returns the vertex count.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.m }

// Nodes returns the vertices in ascending order.
func (g *Graph) Nodes() []int {
	out := make([]int, 0, len(g.adj))
	for v := range g.adj {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Neighbors returns v's neighbors in ascending order.
func (g *Graph) Neighbors(v int) []int {
	out := make([]int, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Edges returns each edge once, smaller endpoint first, sorted.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u, nbrs := range g.adj {
		for v := range nbrs {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New()
	for u, nbrs := range g.adj {
		c.AddNode(u)
		for v := range nbrs {
			if u < v {
				c.AddEdge(u, v)
			}
		}
	}
	return c
}

// FromGraph returns a copy of g. It exists only because the
// graph.dynamic_edge_ns layer metric in bench/layers.go calls it (and then
// times Graph's own AddEdge/RemoveEdge on the copy); it goes, with that
// metric, in the change that rewrites bench/ (ROADMAP item 4).
func FromGraph(g *Graph) *Graph { return g.Clone() }

// AverageDegree returns 2m/n, or 0 for an empty graph.
func (g *Graph) AverageDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(len(g.adj))
}

// DegreeHistogram returns a histogram over vertex degrees.
func (g *Graph) DegreeHistogram() *stats.Histogram {
	h := stats.NewHistogram()
	for v := range g.adj {
		h.Add(len(g.adj[v]))
	}
	return h
}

// ConnectedComponents returns the vertex sets of each component, largest
// first.
func (g *Graph) ConnectedComponents() [][]int {
	seen := make(map[int]bool, len(g.adj))
	var comps [][]int
	for _, start := range g.Nodes() {
		if seen[start] {
			continue
		}
		var comp []int
		queue := []int{start}
		seen[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			comp = append(comp, v)
			for u := range g.adj[v] {
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

// LargestComponent returns the subgraph induced by the largest connected
// component (distance statistics are computed on it, as is conventional).
func (g *Graph) LargestComponent() *Graph {
	comps := g.ConnectedComponents()
	if len(comps) <= 1 {
		return g
	}
	keep := make(map[int]bool, len(comps[0]))
	for _, v := range comps[0] {
		keep[v] = true
	}
	sub := New()
	for _, v := range comps[0] {
		sub.AddNode(v)
		for u := range g.adj[v] {
			if keep[u] && v < u {
				sub.AddEdge(v, u)
			}
		}
	}
	return sub
}

// bfsDepths returns the BFS depth of every vertex reachable from src.
func (g *Graph) bfsDepths(src int) map[int]int {
	depth := map[int]int{src: 0}
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for u := range g.adj[v] {
			if _, ok := depth[u]; !ok {
				depth[u] = depth[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return depth
}

// Eccentricities returns each vertex's eccentricity, computed on the graph
// as given (callers should pass a connected graph; unreachable pairs are
// ignored).
func (g *Graph) Eccentricities() map[int]int {
	ecc := make(map[int]int, len(g.adj))
	for v := range g.adj {
		max := 0
		for _, d := range g.bfsDepths(v) {
			if d > max {
				max = d
			}
		}
		ecc[v] = max
	}
	return ecc
}

// DistanceStats bundles the Table-4 distance measures.
type DistanceStats struct {
	Diameter      int
	Radius        int
	CenterSize    int // vertices with eccentricity == radius
	PeripherySize int // vertices with eccentricity == diameter
	MeanEcc       float64
}

// Distances computes the distance statistics on the largest component.
func (g *Graph) Distances() DistanceStats {
	lc := g.LargestComponent()
	ecc := lc.Eccentricities()
	if len(ecc) == 0 {
		return DistanceStats{}
	}
	var ds DistanceStats
	ds.Radius = 1 << 30
	var sum float64
	for _, e := range ecc {
		if e > ds.Diameter {
			ds.Diameter = e
		}
		if e < ds.Radius {
			ds.Radius = e
		}
		sum += float64(e)
	}
	for _, e := range ecc {
		if e == ds.Radius {
			ds.CenterSize++
		}
		if e == ds.Diameter {
			ds.PeripherySize++
		}
	}
	ds.MeanEcc = sum / float64(len(ecc))
	return ds
}

// triangleCounts returns, per vertex, the number of edges among its
// neighbors (i.e., triangles through the vertex).
func (g *Graph) triangleCounts() map[int]int {
	tri := make(map[int]int, len(g.adj))
	for v, nbrs := range g.adj {
		ns := make([]int, 0, len(nbrs))
		for u := range nbrs {
			ns = append(ns, u)
		}
		count := 0
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				if g.HasEdge(ns[i], ns[j]) {
					count++
				}
			}
		}
		tri[v] = count
	}
	return tri
}

// ClusteringCoefficient returns the average local clustering coefficient.
func (g *Graph) ClusteringCoefficient() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	tri := g.triangleCounts()
	// Sum in sorted vertex order: the per-vertex coefficients are not
	// exactly representable, so accumulating in map order would make the
	// low-order bits of the average vary run to run.
	var sum float64
	for _, v := range g.Nodes() {
		d := len(g.adj[v])
		if d < 2 {
			continue
		}
		sum += 2 * float64(tri[v]) / float64(d*(d-1))
	}
	return sum / float64(len(g.adj))
}

// Transitivity returns the global clustering coefficient
// 3·triangles / open-triads.
func (g *Graph) Transitivity() float64 {
	tri := g.triangleCounts()
	var closed, triads float64
	for v := range g.adj {
		d := len(g.adj[v])
		triads += float64(d*(d-1)) / 2
		closed += float64(tri[v]) // sums each triangle 3×, once per corner
	}
	if triads == 0 {
		return 0
	}
	return closed / triads
}

// DegreeAssortativity returns the Pearson correlation of degrees across
// edge endpoints (each edge contributes both orientations).
//
// The correlation is computed from exact integer moments of the degree
// sequence rather than a float series: over the directed-pair population,
// Σx = Σy = Σ_v d_v², Σx² = Σy² = Σ_v d_v³, and Σxy = 2·Σ_{uv∈E} d_u·d_v.
// Integer accumulation is order-free: no low-bit dependence on the map
// iteration order below.
func (g *Graph) DegreeAssortativity() float64 {
	var s2, s3, p int64
	for u, nbrs := range g.adj {
		d := int64(len(nbrs))
		s2 += d * d
		s3 += d * d * d
		for v := range nbrs {
			if u < v { // each undirected edge once
				p += d * int64(len(g.adj[v]))
			}
		}
	}
	return assortativityFromMoments(2*int64(g.m), s2, s3, 2*p)
}

// assortativityFromMoments evaluates the Pearson degree correlation from the
// exact integer moments of the directed endpoint-degree series: n pairs,
// sx = Σx (= Σy by symmetry), sxx = Σx² (= Σy²), sxy = Σxy. Because the two
// marginals are identical, sqrt((n·sxx−sx²)²) = n·sxx−sx² (non-negative by
// Cauchy–Schwarz), so the formula needs no square root. Products are taken
// in float64 — the int64 sums are exact, and one fixed expression shape
// keeps the result reproducible everywhere it is computed.
func assortativityFromMoments(n, sx, sxx, sxy int64) float64 {
	den := float64(n)*float64(sxx) - float64(sx)*float64(sx)
	if den == 0 {
		return 0
	}
	return (float64(n)*float64(sxy) - float64(sx)*float64(sx)) / den
}

// Properties bundles every Table-4-style statistic.
type Properties struct {
	Nodes, Edges   int
	AvgDegree      float64
	DistanceStats  DistanceStats
	Clustering     float64
	Transitivity   float64
	Assortativity  float64
	MaximalCliques int
	Modularity     float64
	Communities    int
}

// ComputeProperties evaluates all statistics on g. maxCliqueBudget bounds
// the Bron–Kerbosch enumeration (0 means unlimited); when exceeded, the
// reported count is the budget (a lower bound).
func ComputeProperties(g *Graph, maxCliqueBudget int) Properties {
	p := Properties{
		Nodes:         g.NumNodes(),
		Edges:         g.NumEdges(),
		AvgDegree:     g.AverageDegree(),
		DistanceStats: g.Distances(),
		Clustering:    g.ClusteringCoefficient(),
		Transitivity:  g.Transitivity(),
		Assortativity: g.DegreeAssortativity(),
	}
	p.MaximalCliques = g.CountMaximalCliques(maxCliqueBudget)
	part := Louvain(g, 1)
	p.Modularity = Modularity(g, part)
	p.Communities = part.NumCommunities()
	return p
}

// String renders the properties as a small table block.
func (p Properties) String() string {
	return fmt.Sprintf(
		"n=%d m=%d avgdeg=%.1f diam=%d radius=%d center=%d periphery=%d ecc=%.3f clust=%.4f trans=%.4f assort=%.4f cliques=%d mod=%.4f comms=%d",
		p.Nodes, p.Edges, p.AvgDegree,
		p.DistanceStats.Diameter, p.DistanceStats.Radius, p.DistanceStats.CenterSize,
		p.DistanceStats.PeripherySize, p.DistanceStats.MeanEcc,
		p.Clustering, p.Transitivity, p.Assortativity, p.MaximalCliques, p.Modularity, p.Communities)
}

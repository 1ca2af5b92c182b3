package graph

import (
	"sort"
)

// Resilience analysis for measured topologies — the §3 "use cases" that
// motivate knowing a blockchain's topology: low-degree nodes are cheap
// eclipse targets (use case 1), and articulation points / bridges are the
// single points of failure whose loss partitions the network (use case 2).

// cuts returns g's cut vertices and cut edges (bridges): removing either
// disconnects a component. One iterative Tarjan low-link walk finds both.
// The vertices come in ascending order, the bridges smaller endpoint first,
// sorted.
func (g *Graph) cuts() (points []int, bridges [][2]int) {
	disc := make(map[int]int, len(g.adj))
	low := make(map[int]int, len(g.adj))
	isCut := make(map[int]bool)
	timer := 0

	// Iterative DFS to survive deep graphs.
	type frame struct {
		v, parent, childIdx, children int
		nbrs                          []int
	}
	for _, root := range g.Nodes() {
		if _, seen := disc[root]; seen {
			continue
		}
		stack := []frame{{v: root, parent: -1, nbrs: g.Neighbors(root)}}
		timer++
		disc[root], low[root] = timer, timer
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.childIdx < len(f.nbrs) {
				u := f.nbrs[f.childIdx]
				f.childIdx++
				if _, seen := disc[u]; !seen {
					timer++
					disc[u], low[u] = timer, timer
					f.children++
					stack = append(stack, frame{v: u, parent: f.v, nbrs: g.Neighbors(u)})
				} else if u != f.parent && disc[u] < low[f.v] {
					low[f.v] = disc[u]
				}
				continue
			}
			// Post-order: fold into the parent.
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				if f.children > 1 {
					isCut[f.v] = true // root with ≥2 DFS children
				}
				continue
			}
			p := &stack[len(stack)-1]
			low[p.v] = min(low[p.v], low[f.v])
			if p.parent != -1 && low[f.v] >= disc[p.v] {
				isCut[p.v] = true
			}
			if low[f.v] > disc[p.v] {
				bridges = append(bridges, [2]int{min(p.v, f.v), max(p.v, f.v)})
			}
		}
	}
	for v := range isCut {
		points = append(points, v)
	}
	sort.Ints(points)
	sort.Slice(bridges, func(i, j int) bool {
		if bridges[i][0] != bridges[j][0] {
			return bridges[i][0] < bridges[j][0]
		}
		return bridges[i][1] < bridges[j][1]
	})
	return points, bridges
}

// BetweennessCentrality computes unweighted shortest-path betweenness for
// every vertex (Brandes' algorithm). Scores are unnormalized; each
// unordered pair contributes once.
func (g *Graph) BetweennessCentrality() map[int]float64 {
	cb := make(map[int]float64, len(g.adj))
	nodes := g.Nodes()
	for _, v := range nodes {
		cb[v] = 0
	}
	for _, s := range nodes {
		// BFS from s.
		var stack []int
		pred := make(map[int][]int)
		sigma := map[int]float64{s: 1}
		dist := map[int]int{s: 0}
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			stack = append(stack, v)
			for _, w := range g.Neighbors(v) {
				if _, seen := dist[w]; !seen {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					pred[w] = append(pred[w], v)
				}
			}
		}
		delta := make(map[int]float64)
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			for _, v := range pred[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != s {
				cb[w] += delta[w]
			}
		}
	}
	// Undirected: every pair counted twice.
	for v := range cb {
		cb[v] /= 2
	}
	return cb
}

// EclipseRisk summarizes §3's use case 1 over a measured topology: nodes
// with few active neighbors are cheap to eclipse, because an attacker only
// needs to disable those links to cut the victim off.
type EclipseRisk struct {
	// VulnerableAtOrBelow maps a degree threshold to how many nodes sit at
	// or below it.
	VulnerableAtOrBelow map[int]int
	// CheapestTargets lists the lowest-degree nodes (up to 10), ascending.
	CheapestTargets []int
	// ArticulationPoints counts topology-critical nodes.
	ArticulationPoints int
	// Bridges counts topology-critical links.
	Bridges int
	// MaxBetweenness is the highest betweenness score (the most
	// traffic-central node's).
	MaxBetweenness float64
}

// AnalyzeEclipseRisk computes the resilience summary of g.
func AnalyzeEclipseRisk(g *Graph) EclipseRisk {
	r := EclipseRisk{VulnerableAtOrBelow: make(map[int]int)}
	nodes := g.Nodes()
	sort.Slice(nodes, func(i, j int) bool {
		if d1, d2 := g.Degree(nodes[i]), g.Degree(nodes[j]); d1 != d2 {
			return d1 < d2
		}
		return nodes[i] < nodes[j]
	})
	for _, th := range []int{1, 2, 3, 5, 10} {
		for _, v := range nodes {
			if g.Degree(v) <= th {
				r.VulnerableAtOrBelow[th]++
			}
		}
	}
	for i := 0; i < len(nodes) && i < 10; i++ {
		r.CheapestTargets = append(r.CheapestTargets, nodes[i])
	}
	points, bridges := g.cuts()
	r.ArticulationPoints, r.Bridges = len(points), len(bridges)
	for _, b := range g.BetweennessCentrality() {
		if b > r.MaxBetweenness {
			r.MaxBetweenness = b
		}
	}
	return r
}

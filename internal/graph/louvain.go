package graph

import (
	"math/rand"
	"sort"
)

// Partition maps vertices to community labels (0..k-1 after compaction).
type Partition struct {
	community map[int]int
}

// Of returns v's community label.
func (p *Partition) Of(v int) int { return p.community[v] }

// NumCommunities returns the number of distinct communities.
func (p *Partition) NumCommunities() int {
	seen := make(map[int]struct{})
	for _, c := range p.community {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// Communities returns the community → sorted members mapping.
func (p *Partition) Communities() map[int][]int {
	out := make(map[int][]int)
	for v, c := range p.community {
		out[c] = append(out[c], v)
	}
	for c := range out {
		sort.Ints(out[c])
	}
	return out
}

// Modularity computes Newman modularity Q of the partition on g:
// Q = Σ_c [ e_c/m − (d_c/2m)² ] with e_c intra-community edges and d_c the
// community degree sum.
func Modularity(g *Graph, p *Partition) float64 {
	m := float64(g.NumEdges())
	if m == 0 {
		return 0
	}
	intra := make(map[int]float64)
	degSum := make(map[int]float64)
	for v, nbrs := range g.adj {
		c := p.community[v]
		degSum[c] += float64(len(nbrs))
		for u := range nbrs {
			if v < u && p.community[u] == c {
				intra[c]++
			}
		}
	}
	// Sum per-community terms in sorted label order: the terms involve
	// inexact divisions, so map iteration order would perturb the low bits
	// of the reported modularity run to run.
	labels := make([]int, 0, len(degSum))
	for c := range degSum {
		labels = append(labels, c)
	}
	sort.Ints(labels)
	var q float64
	for _, c := range labels {
		d := degSum[c]
		q += intra[c]/m - (d/(2*m))*(d/(2*m))
	}
	return q
}

// Louvain runs the Louvain community-detection method (Blondel et al. 2008,
// the algorithm behind the paper's NetworkX community analysis) and returns
// the partition of g. The seed fixes the vertex visiting order.
func Louvain(g *Graph, seed int64) *Partition {
	rng := rand.New(rand.NewSource(seed))

	// Working weighted graph: w[u][v], self-loops at w[v][v] store twice the
	// internal weight of an aggregated community.
	w := make(map[int]map[int]float64, g.NumNodes())
	for u, nbrs := range g.adj {
		w[u] = make(map[int]float64, len(nbrs))
		for v := range nbrs {
			w[u][v] = 1
		}
	}
	// membership[level-0 vertex] → current community label.
	membership := make(map[int]int, g.NumNodes())
	for v := range g.adj {
		membership[v] = v
	}

	for {
		moved, comm := louvainLocal(w, rng)
		// Re-express level-0 membership through this level's assignment.
		for v, c := range membership {
			membership[v] = comm[c]
		}
		if !moved {
			break
		}
		w = aggregate(w, comm)
	}

	// Compact labels to 0..k-1 deterministically (by smallest member).
	rep := make(map[int]int)
	for v, c := range membership {
		if r, ok := rep[c]; !ok || v < r {
			rep[c] = v
		}
	}
	reps := make([]int, 0, len(rep))
	for _, r := range rep {
		reps = append(reps, r)
	}
	sort.Ints(reps)
	label := make(map[int]int, len(reps))
	for i, r := range reps {
		label[r] = i
	}
	out := make(map[int]int, len(membership))
	for v, c := range membership {
		out[v] = label[rep[c]]
	}
	return &Partition{community: out}
}

// louvainLocal performs phase 1 (greedy local moves) on the weighted graph
// and returns whether any move happened plus the node → community map.
func louvainLocal(w map[int]map[int]float64, rng *rand.Rand) (bool, map[int]int) {
	nodes := make([]int, 0, len(w))
	for v := range w {
		nodes = append(nodes, v)
	}
	sort.Ints(nodes)
	rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })

	comm := make(map[int]int, len(w))
	commTot := make(map[int]float64) // Σ degrees of community members
	deg := make(map[int]float64)     // weighted degree incl. self-loop twice
	var m2 float64                   // 2m
	for v, nbrs := range w {
		comm[v] = v
		var d float64
		for u, wt := range nbrs {
			if u == v {
				d += 2 * wt
			} else {
				d += wt
			}
		}
		deg[v] = d
		m2 += d
	}
	for v := range w {
		commTot[comm[v]] += deg[v]
	}
	if m2 == 0 {
		return false, comm
	}

	movedAny := false
	for improved := true; improved; {
		improved = false
		for _, v := range nodes {
			cur := comm[v]
			// Weights from v to each neighboring community.
			links := make(map[int]float64)
			for u, wt := range w[v] {
				if u == v {
					continue
				}
				links[comm[u]] += wt
			}
			commTot[cur] -= deg[v]
			// Gain of placing v into community c (v removed from cur):
			// links[c] − Σtot(c)·k_v/2m. Staying is the c == cur case.
			// Candidates are visited in sorted label order: ranging over the
			// links map directly would let map iteration order pick the
			// winner among near-tied communities and break same-seed
			// reproducibility of the partition.
			cands := make([]int, 0, len(links))
			for c := range links {
				cands = append(cands, c)
			}
			sort.Ints(cands)
			best := cur
			bestGain := links[cur] - commTot[cur]*deg[v]/m2
			for _, c := range cands {
				if c == cur {
					continue
				}
				gain := links[c] - commTot[c]*deg[v]/m2
				if gain > bestGain+1e-12 {
					best, bestGain = c, gain
				}
			}
			commTot[best] += deg[v]
			if best != cur {
				comm[v] = best
				improved = true
				movedAny = true
			}
		}
	}
	return movedAny, comm
}

// aggregate performs phase 2: collapse communities into supervertices.
func aggregate(w map[int]map[int]float64, comm map[int]int) map[int]map[int]float64 {
	out := make(map[int]map[int]float64)
	add := func(a, b int, wt float64) {
		if out[a] == nil {
			out[a] = make(map[int]float64)
		}
		out[a][b] += wt
	}
	for v, nbrs := range w {
		cv := comm[v]
		if out[cv] == nil {
			out[cv] = make(map[int]float64)
		}
		for u, wt := range nbrs {
			cu := comm[u]
			if v == u {
				add(cv, cv, wt)
				continue
			}
			if cv == cu {
				// Each intra edge visited from both endpoints; halve so the
				// self-loop accumulates the true internal weight.
				add(cv, cv, wt/2)
				continue
			}
			add(cv, cu, wt)
		}
	}
	return out
}

// CommunityReport is one row of the paper's Table-5-style community table.
type CommunityReport struct {
	Index      int
	Size       int
	IntraEdges int
	InterEdges int
	Density    float64 // intra edges / C(size,2)
	AvgDegree  float64 // average (full-graph) degree of members
	DegreeOne  int     // members with full-graph degree 1
}

// CommunityTable computes per-community statistics of the partition,
// ordered by community label.
func CommunityTable(g *Graph, p *Partition) []CommunityReport {
	comms := p.Communities()
	labels := make([]int, 0, len(comms))
	for c := range comms {
		labels = append(labels, c)
	}
	sort.Ints(labels)
	var out []CommunityReport
	for _, c := range labels {
		members := comms[c]
		inSet := make(map[int]bool, len(members))
		for _, v := range members {
			inSet[v] = true
		}
		r := CommunityReport{Index: c, Size: len(members)}
		var degSum int
		for _, v := range members {
			d := g.Degree(v)
			degSum += d
			if d == 1 {
				r.DegreeOne++
			}
			for u := range g.adj[v] {
				if inSet[u] {
					if v < u {
						r.IntraEdges++
					}
				} else {
					r.InterEdges++
				}
			}
		}
		if len(members) > 1 {
			r.Density = float64(r.IntraEdges) / (float64(len(members)) * float64(len(members)-1) / 2)
		}
		if len(members) > 0 {
			r.AvgDegree = float64(degSum) / float64(len(members))
		}
		out = append(out, r)
	}
	return out
}

package graph

// CountMaximalCliques counts the maximal cliques of g using the
// Bron–Kerbosch algorithm with pivoting. The paper's "clique number" rows
// (60.75 on Ropsten, 274775 on Rinkeby, 134.5 on Goerli) are maximal-clique
// counts, which can be very large on dense graphs; budget > 0 stops the
// enumeration early and returns the budget as a lower bound. budget ≤ 0
// means unlimited.
func (g *Graph) CountMaximalCliques(budget int) int {
	count := 0
	g.enumerateCliques(budget, func([]int) bool {
		count++
		return budget <= 0 || count < budget
	})
	return count
}

// MaximalCliques returns up to limit maximal cliques (limit ≤ 0: all).
func (g *Graph) MaximalCliques(limit int) [][]int {
	var out [][]int
	g.enumerateCliques(limit, func(c []int) bool {
		out = append(out, append([]int(nil), c...))
		return limit <= 0 || len(out) < limit
	})
	return out
}

// MaxCliqueSize returns the order of the largest clique (ω(G)) found during
// enumeration, bounded by budget maximal cliques (0 = unlimited).
func (g *Graph) MaxCliqueSize(budget int) int {
	best, count := 0, 0
	g.enumerateCliques(budget, func(c []int) bool {
		if len(c) > best {
			best = len(c)
		}
		count++
		return budget <= 0 || count < budget
	})
	return best
}

// enumerateCliques runs Bron–Kerbosch with pivoting, invoking yield for each
// maximal clique until yield returns false.
func (g *Graph) enumerateCliques(budget int, yield func([]int) bool) {
	nodes := g.Nodes()
	p := make(map[int]struct{}, len(nodes))
	for _, v := range nodes {
		p[v] = struct{}{}
	}
	x := make(map[int]struct{})
	var r []int
	g.bronKerbosch(r, p, x, yield)
}

// bronKerbosch reports whether enumeration should continue.
func (g *Graph) bronKerbosch(r []int, p, x map[int]struct{}, yield func([]int) bool) bool {
	if len(p) == 0 && len(x) == 0 {
		return yield(r)
	}
	// Pivot: the vertex of P∪X with the most neighbors in P.
	pivot, best := -1, -1
	consider := func(v int) {
		n := 0
		for u := range g.adj[v] {
			if _, ok := p[u]; ok {
				n++
			}
		}
		if n > best {
			best, pivot = n, v
		}
	}
	for v := range p {
		consider(v)
	}
	for v := range x {
		consider(v)
	}
	// Candidates: P minus pivot's neighborhood.
	var cands []int
	for v := range p {
		if pivot >= 0 {
			if _, ok := g.adj[pivot][v]; ok {
				continue
			}
		}
		cands = append(cands, v)
	}
	for _, v := range cands {
		np := make(map[int]struct{})
		nx := make(map[int]struct{})
		for u := range g.adj[v] {
			if _, ok := p[u]; ok {
				np[u] = struct{}{}
			}
			if _, ok := x[u]; ok {
				nx[u] = struct{}{}
			}
		}
		if !g.bronKerbosch(append(r, v), np, nx, yield) {
			return false
		}
		delete(p, v)
		x[v] = struct{}{}
	}
	return true
}

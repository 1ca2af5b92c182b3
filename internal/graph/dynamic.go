package graph

import (
	"sort"

	"toposhot/internal/stats"
)

// Dynamic is an incrementally-maintained view of an undirected graph: edge
// count, per-degree counts, per-node triangle counts (hence clustering
// coefficient and transitivity), the exact integer moments behind degree
// assortativity, and connected components (union-find, with a
// rebuild-on-delete fallback) all stay correct under AddEdge/RemoveEdge in
// O(d_u + d_v) amortized work per update — instead of the O(V+E+Σd²) full
// recompute a fresh ComputeProperties pass costs.
//
// Every maintained quantity is integer-exact, and every derived float is
// evaluated by the same expression, over the same values, in the same
// (ascending-vertex) order as the batch Graph methods — so the incremental
// results are byte-identical to a fresh batch computation on the
// materialized graph (FuzzDynamicGraph pins this across random interleaved
// insert/delete sequences).
//
// The per-update helpers (dynApplyAdd, dynApplyRemove, dynReach, …) are on
// the tracker's per-tick path: toposhotlint bans map iteration and
// per-update allocations inside them (DESIGN.md §13). All scratch state is
// pooled on the struct; adjacency lives in per-slot sorted slices, never
// maps.
//
// Dynamic is single-goroutine, like the simulation engines that feed it.
type Dynamic struct {
	idx map[int]int32 // vertex id → dense slot (lookup only; never iterated)
	vid []int         // slot → vertex id
	ids []int         // vertex ids, ascending (batch query order)
	ord []int32       // ord[i] = slot of ids[i]

	adj [][]int32 // slot → neighbor slots, sorted ascending
	tri []int64   // slot → triangles through the vertex

	degCnt []int64 // degree → node count (grown on demand)

	m       int   // edge count
	triSum  int64 // Σ_v tri[v] (= 3 × triangle count)
	s2, s3  int64 // Σ_v d_v², Σ_v d_v³
	pairSum int64 // Σ_{uv∈E} d_u·d_v

	parent []int32 // union-find over slots
	usize  []int32
	comps  int

	queue []int32 // pooled BFS queue (dynReach)
	seen  []uint32
	epoch uint32
}

// NewDynamic returns an empty dynamic graph.
func NewDynamic() *Dynamic {
	return &Dynamic{idx: make(map[int]int32)}
}

// FromGraph builds a Dynamic holding the same vertices and edges as g. Cost
// is one batch pass (O(V+E+Σd²) — the same as one triangle count).
func FromGraph(g *Graph) *Dynamic {
	d := NewDynamic()
	for _, v := range g.Nodes() {
		d.AddNode(v)
	}
	for _, e := range g.Edges() {
		d.AddEdge(e[0], e[1])
	}
	return d
}

// AddNode ensures the vertex exists (isolated if new).
func (d *Dynamic) AddNode(v int) {
	if _, ok := d.idx[v]; ok {
		return
	}
	s := int32(len(d.vid))
	d.idx[v] = s
	d.vid = append(d.vid, v)
	d.adj = append(d.adj, nil)
	d.tri = append(d.tri, 0)
	d.parent = append(d.parent, s)
	d.usize = append(d.usize, 1)
	d.seen = append(d.seen, 0)
	d.comps++
	d.dynDegShift(-1, 0) // one more degree-0 vertex
	// Keep the ascending-id view: vertex insertion is rare (campaign vertex
	// sets are fixed up front), so an O(V) insertion keeps queries O(1).
	i := sort.SearchInts(d.ids, v)
	d.ids = append(d.ids, 0)
	copy(d.ids[i+1:], d.ids[i:])
	d.ids[i] = v
	d.ord = append(d.ord, 0)
	copy(d.ord[i+1:], d.ord[i:])
	d.ord[i] = s
}

// HasNode reports whether the vertex exists.
func (d *Dynamic) HasNode(v int) bool {
	_, ok := d.idx[v]
	return ok
}

// AddEdge inserts the undirected edge {u,v}, creating vertices as needed,
// and reports whether the edge was new. Self-loops and duplicates are
// ignored, mirroring Graph.AddEdge.
func (d *Dynamic) AddEdge(u, v int) bool {
	if u == v {
		return false
	}
	d.AddNode(u)
	d.AddNode(v)
	su, sv := d.idx[u], d.idx[v]
	if d.dynAdjPos(su, sv) >= 0 {
		return false
	}
	d.dynApplyAdd(su, sv)
	return true
}

// RemoveEdge deletes the undirected edge {u,v} if present and reports
// whether it was. Absent edges, unknown vertices, and self-loops are no-ops,
// mirroring Graph.RemoveEdge.
func (d *Dynamic) RemoveEdge(u, v int) bool {
	if u == v {
		return false
	}
	su, ok := d.idx[u]
	if !ok {
		return false
	}
	sv, ok := d.idx[v]
	if !ok {
		return false
	}
	if d.dynAdjPos(su, sv) < 0 {
		return false
	}
	d.dynApplyRemove(su, sv)
	return true
}

// HasEdge reports whether {u,v} is an edge.
func (d *Dynamic) HasEdge(u, v int) bool {
	su, ok := d.idx[u]
	if !ok {
		return false
	}
	sv, ok := d.idx[v]
	if !ok {
		return false
	}
	return u != v && d.dynAdjPos(su, sv) >= 0
}

// NumNodes returns the vertex count.
func (d *Dynamic) NumNodes() int { return len(d.vid) }

// NumEdges returns the maintained edge count.
func (d *Dynamic) NumEdges() int { return d.m }

// Degree returns the degree of v (0 for unknown vertices).
func (d *Dynamic) Degree(v int) int {
	s, ok := d.idx[v]
	if !ok {
		return 0
	}
	return len(d.adj[s])
}

// Triangles returns the maintained number of triangles through v.
func (d *Dynamic) Triangles(v int) int {
	s, ok := d.idx[v]
	if !ok {
		return 0
	}
	return int(d.tri[s])
}

// AverageDegree returns 2m/n, matching Graph.AverageDegree.
func (d *Dynamic) AverageDegree() float64 {
	if len(d.vid) == 0 {
		return 0
	}
	return 2 * float64(d.m) / float64(len(d.vid))
}

// DegreeHistogram materializes the maintained degree counts as a histogram
// equal to Graph.DegreeHistogram on the same graph.
func (d *Dynamic) DegreeHistogram() *stats.Histogram {
	h := stats.NewHistogram()
	for _, s := range d.ord {
		h.Add(len(d.adj[s]))
	}
	return h
}

// ClusteringCoefficient returns the average local clustering coefficient,
// byte-identical to Graph.ClusteringCoefficient: the same per-vertex terms
// are summed in the same ascending-vertex order.
func (d *Dynamic) ClusteringCoefficient() float64 {
	if len(d.vid) == 0 {
		return 0
	}
	var sum float64
	for _, s := range d.ord {
		deg := len(d.adj[s])
		if deg < 2 {
			continue
		}
		sum += 2 * float64(d.tri[s]) / float64(deg*(deg-1))
	}
	return sum / float64(len(d.vid))
}

// Transitivity returns the global clustering coefficient, byte-identical to
// Graph.Transitivity: that sum's float accumulations are exact (triangle
// counts are integers; open-triad halves are dyadic), so evaluating the same
// ratio from the maintained integer totals reproduces it bit for bit.
func (d *Dynamic) Transitivity() float64 {
	triads := float64(d.s2-2*int64(d.m)) / 2 // Σ d(d−1)/2
	if triads == 0 {
		return 0
	}
	return float64(d.triSum) / triads
}

// DegreeAssortativity returns the Pearson degree correlation across edge
// endpoints, byte-identical to Graph.DegreeAssortativity: both evaluate
// assortativityFromMoments over the same exact integer moments.
func (d *Dynamic) DegreeAssortativity() float64 {
	return assortativityFromMoments(2*int64(d.m), d.s2, d.s3, 2*d.pairSum)
}

// NumComponents returns the maintained connected-component count.
func (d *Dynamic) NumComponents() int { return d.comps }

// SameComponent reports whether u and v are in one connected component.
// Unknown vertices are in no component.
func (d *Dynamic) SameComponent(u, v int) bool {
	su, ok := d.idx[u]
	if !ok {
		return false
	}
	sv, ok := d.idx[v]
	if !ok {
		return false
	}
	return d.dynFind(su) == d.dynFind(sv)
}

// Edges returns each edge once, smaller endpoint first, sorted — the same
// form as Graph.Edges.
func (d *Dynamic) Edges() [][2]int {
	out := make([][2]int, 0, d.m)
	for s, nbrs := range d.adj {
		u := d.vid[s]
		for _, w := range nbrs {
			if v := d.vid[w]; u < v {
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

// Snapshot materializes the current graph (vertices and edges) as a Graph.
func (d *Dynamic) Snapshot() *Graph {
	g := New()
	for _, v := range d.ids {
		g.AddNode(v)
	}
	for _, e := range d.Edges() {
		g.AddEdge(e[0], e[1])
	}
	return g
}

// dynAdjPos returns the position of sv in su's sorted neighbor slice, or -1.
// Hand-rolled binary search: it runs per probed pair on the tracker's tick
// path, where a sort.Search closure would allocate.
//
//toposhot:hotpath
func (d *Dynamic) dynAdjPos(su, sv int32) int {
	nbrs := d.adj[su]
	lo, hi := 0, len(nbrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nbrs[mid] < sv {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nbrs) && nbrs[lo] == sv {
		return lo
	}
	return -1
}

// dynAdjInsert inserts sv into su's sorted neighbor slice.
//
//toposhot:hotpath
func (d *Dynamic) dynAdjInsert(su, sv int32) {
	nbrs := d.adj[su]
	lo, hi := 0, len(nbrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nbrs[mid] < sv {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	nbrs = append(nbrs, 0)
	copy(nbrs[lo+1:], nbrs[lo:])
	nbrs[lo] = sv
	d.adj[su] = nbrs
}

// dynAdjRemove deletes sv from su's sorted neighbor slice (it must exist).
//
//toposhot:hotpath
func (d *Dynamic) dynAdjRemove(su, sv int32) {
	i := d.dynAdjPos(su, sv)
	nbrs := d.adj[su]
	copy(nbrs[i:], nbrs[i+1:])
	d.adj[su] = nbrs[:len(nbrs)-1]
}

// dynNbrDegSum returns Σ degree(w) over su's neighbors.
//
//toposhot:hotpath
func (d *Dynamic) dynNbrDegSum(su int32) int64 {
	var sum int64
	for _, w := range d.adj[su] {
		sum += int64(len(d.adj[w]))
	}
	return sum
}

// dynCommonAdjust walks the two sorted neighbor slices, shifts the triangle
// count of every common neighbor by delta, and returns the number of common
// neighbors — the triangles the edge {su,sv} closes or opens.
//
//toposhot:hotpath
func (d *Dynamic) dynCommonAdjust(su, sv int32, delta int64) int64 {
	a, b := d.adj[su], d.adj[sv]
	var count int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			d.tri[a[i]] += delta
			count++
			i++
			j++
		}
	}
	return count
}

// dynDegShift moves one vertex's degree-histogram count from degree `from`
// to degree `to` (-1 skips the decrement, for brand-new vertices).
//
//toposhot:hotpath
func (d *Dynamic) dynDegShift(from, to int) {
	for len(d.degCnt) <= to {
		d.degCnt = append(d.degCnt, 0)
	}
	if from >= 0 {
		d.degCnt[from]--
	}
	d.degCnt[to]++
}

// dynApplyAdd applies the new edge {su,sv} to every maintained statistic.
// The moment deltas use pre-insertion degrees du, dv: every existing
// directed pair touching su or sv sees one endpoint degree rise by one, and
// the new edge contributes its own (du+1)·(dv+1) product.
//
//toposhot:hotpath
func (d *Dynamic) dynApplyAdd(su, sv int32) {
	du := int64(len(d.adj[su]))
	dv := int64(len(d.adj[sv]))
	d.pairSum += d.dynNbrDegSum(su) + d.dynNbrDegSum(sv) + (du+1)*(dv+1)
	d.s2 += (2*du + 1) + (2*dv + 1)
	d.s3 += (3*du*du + 3*du + 1) + (3*dv*dv + 3*dv + 1)

	c := d.dynCommonAdjust(su, sv, 1)
	d.tri[su] += c
	d.tri[sv] += c
	d.triSum += 3 * c

	d.dynAdjInsert(su, sv)
	d.dynAdjInsert(sv, su)
	d.dynDegShift(int(du), int(du)+1)
	d.dynDegShift(int(dv), int(dv)+1)
	d.m++

	ru, rv := d.dynFind(su), d.dynFind(sv)
	if ru != rv {
		d.dynUnion(ru, rv)
	}
}

// dynApplyRemove applies the deletion of edge {su,sv}. Triangle and moment
// deltas are computed while the adjacency still holds the edge; the
// union-find, which cannot split, is kept only if su still reaches sv
// afterwards and rebuilt from scratch otherwise (the rebuild-on-delete
// fallback — deletes that disconnect are the rare case).
//
//toposhot:hotpath
func (d *Dynamic) dynApplyRemove(su, sv int32) {
	c := d.dynCommonAdjust(su, sv, -1)
	d.tri[su] -= c
	d.tri[sv] -= c
	d.triSum -= 3 * c

	du := int64(len(d.adj[su]))
	dv := int64(len(d.adj[sv]))
	d.pairSum -= (d.dynNbrDegSum(su) - dv) + (d.dynNbrDegSum(sv) - du) + du*dv
	d.s2 -= (2*du - 1) + (2*dv - 1)
	d.s3 -= (3*du*du - 3*du + 1) + (3*dv*dv - 3*dv + 1)

	d.dynAdjRemove(su, sv)
	d.dynAdjRemove(sv, su)
	d.dynDegShift(int(du), int(du)-1)
	d.dynDegShift(int(dv), int(dv)-1)
	d.m--

	if !d.dynReach(su, sv) {
		d.dynRebuild()
	}
}

// dynFind returns su's union-find root, with path halving.
//
//toposhot:hotpath
func (d *Dynamic) dynFind(su int32) int32 {
	for d.parent[su] != su {
		d.parent[su] = d.parent[d.parent[su]]
		su = d.parent[su]
	}
	return su
}

// dynUnion links two distinct roots by size and updates the component count.
//
//toposhot:hotpath
func (d *Dynamic) dynUnion(ra, rb int32) {
	if d.usize[ra] < d.usize[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.usize[ra] += d.usize[rb]
	d.comps--
}

// dynReach reports whether `to` is reachable from `from` by BFS over the
// post-deletion adjacency. The queue and the epoch-stamped visited array are
// pooled on the struct, so the walk allocates nothing in steady state.
//
//toposhot:hotpath
func (d *Dynamic) dynReach(from, to int32) bool {
	d.epoch++
	if d.epoch == 0 { // stamp wrap: invalidate all marks once per 2³² walks
		for i := range d.seen {
			d.seen[i] = 0
		}
		d.epoch = 1
	}
	q := d.queue[:0]
	q = append(q, from)
	d.seen[from] = d.epoch
	for qi := 0; qi < len(q); qi++ {
		s := q[qi]
		for _, w := range d.adj[s] {
			if d.seen[w] == d.epoch {
				continue
			}
			if w == to {
				d.queue = q
				return true
			}
			d.seen[w] = d.epoch
			q = append(q, w)
		}
	}
	d.queue = q
	return false
}

// dynRebuild recomputes the union-find and component count from the current
// adjacency — the fallback for deletes that disconnect.
func (d *Dynamic) dynRebuild() {
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.usize[i] = 1
	}
	d.comps = len(d.vid)
	for s := range d.adj {
		for _, w := range d.adj[s] {
			if int32(s) < w {
				ru, rv := d.dynFind(int32(s)), d.dynFind(w)
				if ru != rv {
					d.dynUnion(ru, rv)
				}
			}
		}
	}
}

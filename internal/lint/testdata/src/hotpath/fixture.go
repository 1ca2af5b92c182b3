// Package fixture exercises the nodeterminism hot-path rules. The test loads
// it twice: as toposhot/internal/ethsim/fixture, where container/heap is
// banned and map iteration is flagged only inside functions carrying
// //toposhot:hotpath, and as toposhot/internal/sim/fixture, where map
// iteration is banned in every function.
package fixture

import (
	"container/heap"
	"sort"
)

type intHeap []int

func (h intHeap) Len() int            { return len(h) }
func (h intHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// useHeap exists so the banned import is also used.
func useHeap(h *intHeap) { heap.Init(h) }

// flush is on the hot path: any map iteration inside it is flagged.
//
//toposhot:hotpath
func flush(pending map[int]int) int {
	total := 0
	for _, v := range pending {
		total += v
	}
	return total
}

// snapshot carries no directive: under the ethsim scope its
// collect-then-sort map range stays sanctioned; under the sim scope the
// whole package is hot path and it is flagged anyway.
func snapshot(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// route ranges over a slice: hot-path functions may iterate slices.
//
//toposhot:hotpath
func route(order []int) int {
	total := 0
	for _, v := range order {
		total += v
	}
	return total
}

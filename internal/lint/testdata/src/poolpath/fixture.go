// Package fixture exercises the nodeterminism hot-path rules under the
// txpool scope: container/heap is banned, and the admission-path functions
// (each carrying //toposhot:hotpath) may not range over a map. The
// pool below is the mempool as it stood before its hot-path rewrite — a
// nonce→entry map per sender, container/heap indexes — so SetStateNonce and
// repartition are the two loops whose removal and push order used to follow
// Go's map iteration order into heap layouts and checkpoint bytes.
package fixture

import (
	"container/heap"
	"sort"
)

type entry struct {
	nonce   uint64
	price   uint64
	pending bool
	futIdx  int
}

type futureHeap []*entry

func (h futureHeap) Len() int            { return len(h) }
func (h futureHeap) Less(i, j int) bool  { return h[i].price < h[j].price }
func (h futureHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].futIdx = i; h[j].futIdx = j }
func (h *futureHeap) Push(x interface{}) { *h = append(*h, x.(*entry)) }
func (h *futureHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type pool struct {
	bySender   map[uint64]map[uint64]*entry
	stateNonce map[uint64]uint64
	futures    futureHeap
}

//toposhot:hotpath
func (p *pool) remove(sender uint64, e *entry) {
	delete(p.bySender[sender], e.nonce)
	if e.futIdx >= 0 {
		heap.Remove(&p.futures, e.futIdx)
	}
}

// SetStateNonce drops stale entries in map order: flagged.
//
//toposhot:hotpath
func (p *pool) SetStateNonce(sender, nonce uint64) {
	p.stateNonce[sender] = nonce
	for n, e := range p.bySender[sender] {
		if n < nonce {
			p.remove(sender, e)
		}
	}
	p.repartition(sender)
}

// repartition demotes stranded entries in map order: flagged.
//
//toposhot:hotpath
func (p *pool) repartition(sender uint64) {
	m := p.bySender[sender]
	n := p.stateNonce[sender]
	for m[n] != nil {
		n++
	}
	for nonce, e := range m {
		if nonce >= n && e.pending {
			e.pending = false
			heap.Push(&p.futures, e)
		}
	}
}

// repartitionAfterRemove counts live entries in map order: flagged.
//
//toposhot:hotpath
func (p *pool) repartitionAfterRemove(sender uint64) int {
	live := 0
	for range p.bySender[sender] {
		live++
	}
	return live
}

// pendingPrices is off the admission path: its collect-then-sort map range
// stays sanctioned.
func (p *pool) pendingPrices() []uint64 {
	var out []uint64
	for _, m := range p.bySender {
		for _, e := range m {
			if e.pending {
				out = append(out, e.price)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// offer walks a nonce-ordered slice: admission-path functions may iterate
// slices.
//
//toposhot:hotpath
func (p *pool) offer(run []*entry) int {
	pending := 0
	for _, e := range run {
		if e.pending {
			pending++
		}
	}
	return pending
}

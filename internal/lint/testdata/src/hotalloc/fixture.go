// Package fixture exercises the hotalloc analyzer: every banned allocation
// in a function carrying //toposhot:hotpath fires, the pooled idioms stay
// silent, a result-slice append excused by //lint:ignore is suppressed, and
// the same constructs in an unmarked function are out of scope.
package fixture

import (
	"slices"
	"sort"
)

type handler interface{ HandleEvent(arg uint64) }

type engine struct{ t float64 }

func (e *engine) After(d float64, fn func())                  {}
func (e *engine) AfterHandler(d float64, h handler, a uint64) {}

type message struct{ id uint64 }

type network struct {
	eng     *engine
	outQ    []message
	scratch []uint64
	seen    map[uint64]bool
}

func (n *network) HandleEvent(arg uint64) {}

func deliver(*network) {}

func box(v interface{}) { _ = v }

// propagate is on the delivery path; each banned construct fires.
//
//toposhot:hotpath
func (n *network) propagate(m message) {
	n.eng.After(0.1, func() { deliver(n) }) // want: closure
	tags := []uint64{m.id}                  // want: slice literal
	seen := map[uint64]bool{}               // want: map literal
	var ids []uint64
	ids = append(ids, m.id)          // want: growing append
	box(m)                           // want: message boxed by value
	box(&m)                          // clean: pointer-shaped
	n.eng.AfterHandler(0.2, n, m.id) // clean: pointer into interface, uint64 arg
	_, _, _ = tags, seen, ids
}

// flush is on the delivery path but uses only the pooled idioms: clean.
//
//toposhot:hotpath
func (n *network) flush() {
	out := n.scratch[:0]
	for i := range n.outQ {
		out = append(out, n.outQ[i].id)
	}
	n.scratch = out
	n.outQ = append(n.outQ, message{})
	var want []uint64
	if len(out) > 0 {
		want = n.scratch[:0] // conditional pooled reslice clears the mark
	}
	want = append(want, 1)
	_ = want
}

// refill is on the engine's per-event path: a closure comparator is one
// allocation per sorted bucket (and sort.Slice boxes the slice); a named
// comparator captures nothing.
//
//toposhot:hotpath
func (n *network) refill() {
	sort.Slice(n.scratch, func(i, j int) bool { return n.scratch[i] < n.scratch[j] }) // want: closure, boxed slice
	slices.SortFunc(n.scratch, compareIDs)                                            // clean
}

func compareIDs(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// offer is pool-shaped: the admission path hands its caller a result slice
// that is empty on the common path, so the one growing append is excused in
// place — the shape of the two ignores in internal/txpool/pool.go. Were the
// suppression dead, stale-ignore would fire here.
//
//toposhot:hotpath
func (n *network) offer(id uint64, full bool) []uint64 {
	var evicted []uint64
	if full {
		//lint:ignore hotalloc result slice handed to the caller; empty unless the pool is full
		evicted = append(evicted, id)
	}
	return evicted
}

// setup is not a hot-path function: the same constructs stay silent.
func setup() *network {
	n := &network{seen: map[uint64]bool{}}
	ids := []uint64{1, 2}
	fn := func() { deliver(n) }
	fn()
	box(message{})
	_ = ids
	return n
}

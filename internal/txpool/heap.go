package txpool

// The pool keeps two orderings over its entries, both on one index-heap
// implementation selected by kind:
//
//   - priceHeap: ascending gas price, futures before pendings at equal price.
//     This is not a total order, and pending flags flip without a re-sift, so
//     which of several equal-price entries surfaces depends on the exact sift
//     sequence.
//   - futureHeap: future entries only, ascending gas price with admission
//     order breaking ties.
//
// push, remove, up and down therefore follow container/heap's algorithms step
// for step — same comparisons, same swaps, binary arity — and Snapshot
// preserves the arrays verbatim. Checkpoint bytes and equal-price eviction
// sequences recorded under container/heap stay valid (FuzzPoolHeaps pins the
// array layout against a container/heap reference). What is gone is the
// interface dispatch per Less/Swap.
const (
	priceHeap = iota
	futureHeap
)

type entryHeap struct {
	a    []*entry
	kind int // priceHeap or futureHeap; also the slot of entry.idx it maintains
}

func (h *entryHeap) less(x, y *entry) bool {
	if x.price != y.price {
		return x.price < y.price
	}
	if h.kind == futureHeap {
		return x.seq < y.seq
	}
	// Prefer evicting futures before pendings at equal price.
	return !x.pending && y.pending
}

func (h *entryHeap) swap(i, j int) {
	a := h.a
	a[i], a[j] = a[j], a[i]
	a[i].idx[h.kind] = int32(i)
	a[j].idx[h.kind] = int32(j)
}

// top returns the minimum entry, or nil when the heap is empty.
func (h *entryHeap) top() *entry {
	if len(h.a) == 0 {
		return nil
	}
	return h.a[0]
}

// push is heap.Push.
func (h *entryHeap) push(e *entry) {
	e.idx[h.kind] = int32(len(h.a))
	h.a = append(h.a, e)
	h.up(len(h.a) - 1)
}

// remove is heap.Remove at e's slot; a no-op when e is not in the heap.
//
//toposhot:hotpath
func (h *entryHeap) remove(e *entry) {
	i := int(e.idx[h.kind])
	if i < 0 {
		return
	}
	n := len(h.a) - 1
	if n != i {
		h.swap(i, n)
		if !h.down(i, n) {
			h.up(i)
		}
	}
	h.a[n] = nil
	h.a = h.a[:n]
	e.idx[h.kind] = -1
}

func (h *entryHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(h.a[j], h.a[i]) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h *entryHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(h.a[j2], h.a[j1]) {
			j = j2 // = 2*i + 2  // right child
		}
		if !h.less(h.a[j], h.a[i]) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

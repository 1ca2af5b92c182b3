package txpool

// The pool keeps two orderings over its entries, both on one index-heap
// implementation selected by kind, whose arrays hold entry numbers into the
// pool's slab:
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
	a    []uint32 // entry numbers
	kind int      // priceHeap or futureHeap; also the slot of entry.idx it maintains
	slab *entrySlab
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

// swap exchanges heap slots i and j, which hold entries x and y.
func (h *entryHeap) swap(i, j int, x, y *entry) {
	a := h.a
	a[i], a[j] = a[j], a[i]
	x.idx[h.kind] = int32(j)
	y.idx[h.kind] = int32(i)
}

// top returns the minimum entry's number, or 0 when the heap is empty.
func (h *entryHeap) top() uint32 {
	if len(h.a) == 0 {
		return 0
	}
	return h.a[0]
}

// push is heap.Push.
func (h *entryHeap) push(i uint32) {
	h.slab.at(i).idx[h.kind] = int32(len(h.a))
	h.a = append(h.a, i)
	h.up(len(h.a) - 1)
}

// remove is heap.Remove at entry e's slot; a no-op when e is not in the heap.
//
//toposhot:hotpath
func (h *entryHeap) remove(e uint32) {
	x := h.slab.at(e)
	i := int(x.idx[h.kind])
	if i < 0 {
		return
	}
	n := len(h.a) - 1
	if n != i {
		h.swap(i, n, x, h.slab.at(h.a[n]))
		if !h.down(i, n) {
			h.up(i)
		}
	}
	h.a = h.a[:n]
	x.idx[h.kind] = -1
}

// up and down hold the entry they move, so each level reads only the
// entries it compares that entry with.
func (h *entryHeap) up(j int) {
	x := h.slab.at(h.a[j])
	for {
		i := (j - 1) / 2 // parent
		if i == j {
			break
		}
		y := h.slab.at(h.a[i])
		if !h.less(x, y) {
			break
		}
		h.swap(i, j, y, x)
		j = i
	}
}

func (h *entryHeap) down(i0, n int) bool {
	i := i0
	x := h.slab.at(h.a[i])
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j, y := j1, h.slab.at(h.a[j1]) // left child
		if j2 := j1 + 1; j2 < n {
			if z := h.slab.at(h.a[j2]); h.less(z, y) {
				j, y = j2, z // = 2*i + 2  // right child
			}
		}
		if !h.less(y, x) {
			break
		}
		h.swap(i, j, x, y)
		i = j
	}
	return i > i0
}

package txpool

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the container/heap reference the typed heaps must match slot
// for slot: the same two comparators over the same slab entries, with its
// own index bookkeeping.
type refHeap struct {
	a    []uint32
	kind int
	slab *entrySlab
	at   map[uint32]int
}

func (h *refHeap) Len() int { return len(h.a) }
func (h *refHeap) Less(i, j int) bool {
	x, y := h.slab.at(h.a[i]), h.slab.at(h.a[j])
	if x.price != y.price {
		return x.price < y.price
	}
	if h.kind == futureHeap {
		return x.seq < y.seq
	}
	return !x.pending && y.pending
}
func (h *refHeap) Swap(i, j int) {
	h.a[i], h.a[j] = h.a[j], h.a[i]
	h.at[h.a[i]], h.at[h.a[j]] = i, j
}
func (h *refHeap) Push(x interface{}) {
	e := x.(uint32)
	h.at[e] = len(h.a)
	h.a = append(h.a, e)
}
func (h *refHeap) Pop() interface{} {
	e := h.a[len(h.a)-1]
	h.a = h.a[:len(h.a)-1]
	delete(h.at, e)
	return e
}

// FuzzPoolHeaps drives a typed heap and the container/heap reference with
// the same seeded push/remove stream over one slab's entry numbers, removed
// entries going back to the slab for reuse, and requires identical array
// layouts after every step. Prices come from a tiny set so ties dominate, and under
// the price comparator pending flags flip between operations without a
// re-sift — exactly how the pool treats its price heap — so the comparator
// is exercised as the non-total order it is.
func FuzzPoolHeaps(f *testing.F) {
	f.Add(int64(1), uint8(8), false)
	f.Add(int64(42), uint8(64), true)
	f.Add(int64(-7), uint8(255), false)
	f.Fuzz(func(t *testing.T, seed int64, size uint8, future bool) {
		rng := rand.New(rand.NewSource(seed))
		kind := priceHeap
		if future {
			kind = futureHeap
		}
		var slab entrySlab
		h := entryHeap{kind: kind, slab: &slab}
		ref := &refHeap{kind: kind, slab: &slab, at: map[uint32]int{}}
		var members []uint32
		var seq uint64
		for step := 0; step < (int(size)+1)*8; step++ {
			switch k := rng.Intn(10); {
			case k < 6 || len(members) == 0:
				seq++
				e := slab.alloc()
				*slab.at(e) = entry{price: uint64(1 + rng.Intn(4)), seq: seq, pending: rng.Intn(2) == 0, idx: [2]int32{-1, -1}}
				members = append(members, e)
				h.push(e)
				heap.Push(ref, e)
			case k < 9:
				i := rng.Intn(len(members))
				e := members[i]
				members[i] = members[len(members)-1]
				members = members[:len(members)-1]
				heap.Remove(ref, ref.at[e])
				h.remove(e)
				if slot := slab.at(e).idx[kind]; slot != -1 {
					t.Fatalf("step %d: removed entry keeps slot %d", step, slot)
				}
				h.remove(e) // removing an absent entry is a no-op
				slab.release(e)
			default:
				e := slab.at(members[rng.Intn(len(members))])
				e.pending = !e.pending
			}
			if len(h.a) != len(ref.a) {
				t.Fatalf("step %d: typed heap holds %d entries, reference %d", step, len(h.a), len(ref.a))
			}
			for i, e := range ref.a {
				if h.a[i] != e || int(slab.at(e).idx[kind]) != i {
					t.Fatalf("step %d: slot %d diverged from container/heap (seq %d vs %d, idx %d)",
						step, i, slab.at(h.a[i]).seq, slab.at(e).seq, slab.at(e).idx[kind])
				}
			}
			if e := h.top(); len(ref.a) > 0 && e != ref.a[0] {
				t.Fatalf("step %d: top diverged", step)
			}
		}
	})
}

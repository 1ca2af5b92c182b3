package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent / refHeap are a straight container/heap reference implementation
// of the scheduler's priority queue — the pre-overhaul code — used to pin
// the specialized 4-ary index heap's pop order. container/heap is fine here:
// test files are outside the nodeterminism lint's container/heap ban, and
// the reference exists precisely to cross-check the replacement.
type refEvent struct {
	at  float64
	seq uint64
	id  int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// FuzzEventQueue drives the engine's queue and the container/heap reference
// with the same randomized push/pop schedule and requires identical pop
// order — including FIFO tie-breaks among same-timestamp events. The fuzz
// input seeds the op stream, so every corpus entry is a reproducible
// schedule. Push times are engine-clock-relative with a tiny value set, so
// same-timestamp collisions are common (exercising the seq tie-break) and
// the never-into-the-past clamp can not fire (keeping the clockless
// reference comparable).
func FuzzEventQueue(f *testing.F) {
	f.Add(int64(1), uint8(8))
	f.Add(int64(42), uint8(64))
	f.Add(int64(-7), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, size uint8) {
		rng := rand.New(rand.NewSource(seed))
		rounds := (int(size) + 1) * 8

		e := New(0)
		var ref refHeap
		var refSeq uint64
		var got, want []int

		id := 0
		for i := 0; i < rounds; i++ {
			if rng.Intn(3) != 0 || e.Pending() == 0 { // bias toward pushes
				at := e.Now() + float64(rng.Intn(8))
				refSeq++
				heap.Push(&ref, refEvent{at: at, seq: refSeq, id: id})
				v := id
				e.AtHandler(at, funcHandler(func() { got = append(got, v) }), 0)
				id++
			} else {
				e.Step()
				want = append(want, heap.Pop(&ref).(refEvent).id)
			}
		}
		for e.Step() {
		}
		for ref.Len() > 0 {
			want = append(want, heap.Pop(&ref).(refEvent).id)
		}
		if len(got) != len(want) {
			t.Fatalf("pop count: engine %d, reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("pop order diverged at %d: engine %v, reference %v", i, got, want)
			}
		}
	})
}

// TestEventQueueInterleavedMatchesReference pins pop order under interleaved
// push/pop with clamping handled on both sides: pushes use absolute times
// that are always ≥ the engine clock, so no clamp fires and the two queues
// must agree exactly.
func TestEventQueueInterleavedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	e := New(0)
	var ref refHeap
	var refSeq uint64
	var got, want []int

	id := 0
	for round := 0; round < 2000; round++ {
		if rng.Intn(3) != 0 || e.Pending() == 0 {
			at := e.Now() + float64(rng.Intn(4)) // collides often; never past
			refSeq++
			heap.Push(&ref, refEvent{at: at, seq: refSeq, id: id})
			v := id
			e.AtHandler(at, funcHandler(func() { got = append(got, v) }), 0)
			id++
		} else {
			e.Step()
			want = append(want, heap.Pop(&ref).(refEvent).id)
		}
	}
	for e.Step() {
	}
	for ref.Len() > 0 {
		want = append(want, heap.Pop(&ref).(refEvent).id)
	}
	if len(got) != len(want) {
		t.Fatalf("pop count: engine %d, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pop order diverged at index %d", i)
		}
	}
}

// TestArenaRecyclesSlots: draining and refilling must reuse arena capacity
// rather than growing it — the allocation-free steady state.
func TestArenaRecyclesSlots(t *testing.T) {
	e := New(1)
	fill := func() {
		for i := 0; i < 64; i++ {
			e.AfterHandler(float64(i), funcHandler(func() {}), 0)
		}
	}
	fill()
	e.Run(0)
	grown := cap(e.arena)
	for round := 0; round < 50; round++ {
		fill()
		e.Run(0)
	}
	if cap(e.arena) != grown {
		t.Fatalf("arena grew from %d to %d across steady-state rounds", grown, cap(e.arena))
	}
	if len(e.free) != len(e.arena) {
		t.Fatalf("free list (%d) does not cover the drained arena (%d)", len(e.free), len(e.arena))
	}
}

type countingHandler struct{ fired []uint64 }

func (c *countingHandler) HandleEvent(arg uint64) { c.fired = append(c.fired, arg) }

// TestHandlerEventsInterleaveWithClosures: events for a typed handler and
// for closure adapters share one (at, seq) order.
func TestHandlerEventsInterleaveWithClosures(t *testing.T) {
	e := New(1)
	h := &countingHandler{}
	var order []string
	e.AtHandler(2, h, 20)
	e.AtHandler(1, funcHandler(func() { order = append(order, "c1") }), 0)
	e.AtHandler(1, h, 10)
	e.AtHandler(2, funcHandler(func() { order = append(order, "c2") }), 0)
	e.Run(0)
	if len(h.fired) != 2 || h.fired[0] != 10 || h.fired[1] != 20 {
		t.Fatalf("handler order = %v", h.fired)
	}
	if len(order) != 2 || order[0] != "c1" || order[1] != "c2" {
		t.Fatalf("closure order = %v", order)
	}
}

// BenchmarkEngineSchedule measures the steady-state schedule+dispatch cost
// of the scheduler: a self-rescheduling handler keeps a constant
// in-flight population, so after warmup every op is a recycled arena slot.
func BenchmarkEngineSchedule(b *testing.B) {
	e := New(1)
	var h selfScheduler
	h.e = e
	const inflight = 1024
	for i := 0; i < inflight; i++ {
		e.AfterHandler(float64(i%7)*0.001, &h, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// selfScheduler re-schedules itself on every event, modelling the gossip
// loop's constant event churn.
type selfScheduler struct {
	e *Engine
	n uint64
}

func (s *selfScheduler) HandleEvent(arg uint64) {
	s.n++
	s.e.AfterHandler(float64(s.n%13)*0.0007, s, arg)
}

package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refEvent / refHeap are a straight container/heap reference implementation
// of the scheduler's priority queue — the pre-overhaul code — used to pin
// the time wheel's pop order. container/heap is fine here: test files are
// outside the nodeterminism lint's container/heap ban, and the reference
// exists precisely to cross-check the replacement.
type refEvent struct {
	at  float64
	seq uint64
	arg uint64
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

// refQueue is the reference scheduler: container/heap plus the engine's
// clock, sequence counter and clamp, written the obvious way.
type refQueue struct {
	h   refHeap
	now float64
	seq uint64
}

func (r *refQueue) schedule(at float64, arg uint64) {
	if at < r.now {
		at = r.now
	}
	r.seq++
	heap.Push(&r.h, refEvent{at: at, seq: r.seq, arg: arg})
}

// step pops the earliest event if it is not after limit.
func (r *refQueue) step(limit float64) (uint64, bool) {
	if r.h.Len() == 0 || r.h[0].at > limit {
		return 0, false
	}
	ev := heap.Pop(&r.h).(refEvent)
	r.now = ev.at
	return ev.arg, true
}

func (r *refQueue) runUntil(t float64) (popped []uint64) {
	for {
		arg, ok := r.step(t)
		if !ok {
			break
		}
		popped = append(popped, arg)
	}
	if t > r.now {
		r.now = t
	}
	return popped
}

// records returns the pending events in schedule order, as SnapshotEvents does.
func (r *refQueue) records() []EventRecord {
	out := make([]EventRecord, len(r.h))
	for i, ev := range r.h {
		out[i] = EventRecord{At: ev.at, Seq: ev.seq, Arg: ev.arg}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// fuzzDelay draws a schedule distance from the classes the wheel files
// differently: the same instant, the same bucket, the next bucket, seconds
// ahead inside the window, past the window (the far heap), and ≥ 10⁶ s.
func fuzzDelay(rng *rand.Rand) float64 {
	const bucket = 1.0 / wheelScale
	switch rng.Intn(8) {
	case 0, 1:
		return 0
	case 2:
		return rng.Float64() * bucket
	case 3:
		return bucket + rng.Float64()*bucket
	case 4:
		return float64(rng.Intn(8)) // integer times: collisions across pushes
	case 5:
		return rng.Float64() * 7
	case 6:
		return wheelSize/wheelScale + rng.Float64()*100
	default:
		return 1e6 * (1 + rng.Float64()*1e6)
	}
}

// FuzzEventQueue drives the engine's queue and the container/heap reference
// with the same randomized schedule and requires identical pop order —
// including FIFO tie-breaks among same-timestamp events — and identical
// EventRecords. The fuzz input seeds the op stream, so every corpus entry is
// a reproducible schedule. Beside pushes and pops the stream interleaves
// RunUntil(t) for a t strictly between two pending events followed by a
// schedule at now (which must pop before an event RunUntil already had to
// look at), and SnapshotEvents → RestoreState onto a fresh engine
// that then takes over.
func FuzzEventQueue(f *testing.F) {
	f.Add(int64(1), uint8(8))
	f.Add(int64(42), uint8(64))
	f.Add(int64(-7), uint8(255))
	f.Add(int64(2021), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, size uint8) {
		rng := rand.New(rand.NewSource(seed))
		rounds := (int(size) + 1) * 8

		h := &countingHandler{}
		e := New(0)
		ref := &refQueue{}
		var want []uint64
		var id uint64
		checked := 0 // pops already compared
		push := func(at float64) {
			ref.schedule(at, id)
			e.AtHandler(at, h, id)
			id++
		}
		check := func(when string) {
			t.Helper()
			if e.Now() != ref.now || e.Pending() != ref.h.Len() || e.SeqCount() != ref.seq {
				t.Fatalf("%s: engine (now %v, pending %d, seq %d), reference (now %v, pending %d, seq %d)",
					when, e.Now(), e.Pending(), e.SeqCount(), ref.now, ref.h.Len(), ref.seq)
			}
			if !slices.Equal(h.fired[checked:], want[min(checked, len(want)):]) {
				t.Fatalf("%s: pop order diverged:\nengine    %v\nreference %v", when, h.fired, want)
			}
			checked = len(want)
		}
		for i := 0; i < rounds; i++ {
			switch op := rng.Intn(23); {
			case op < 14 || e.Pending() == 0:
				push(e.Now() + fuzzDelay(rng))
			case op < 20:
				e.Step()
				arg, _ := ref.step(math.Inf(1))
				want = append(want, arg)
			case op < 22:
				// Stop between the two earliest distinct pending times, then
				// schedule at the clock.
				recs := ref.records()
				sort.Slice(recs, func(i, j int) bool { return recs[i].At < recs[j].At })
				lo, hi := recs[0].At, recs[len(recs)-1].At
				for _, r := range recs {
					if r.At > lo {
						hi = r.At
						break
					}
				}
				mid := lo + (hi-lo)/2
				if rng.Intn(2) == 0 {
					mid = lo + (hi-lo)*rng.Float64()
				}
				e.RunUntil(mid)
				want = append(want, ref.runUntil(mid)...)
				check("RunUntil")
				push(e.Now())
			default:
				recs, err := e.SnapshotEvents(h)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(recs, ref.records()) {
					t.Fatalf("EventRecords diverged:\nengine    %v\nreference %v", recs, ref.records())
				}
				fresh := New(0)
				if err := fresh.RestoreState(e.Now(), e.SeqCount(), e.RandDraws(), h, recs); err != nil {
					t.Fatal(err)
				}
				e = fresh
			}
			check("round")
		}
		for e.Step() {
		}
		want = append(want, ref.runUntil(math.Inf(1))...)
		if !slices.Equal(h.fired, want) {
			t.Fatalf("drain: pop order diverged:\nengine    %v\nreference %v", h.fired, want)
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
			heap.Push(&ref, refEvent{at: at, seq: refSeq, arg: uint64(id)})
			v := id
			e.AtHandler(at, funcHandler(func() { got = append(got, v) }), 0)
			id++
		} else {
			e.Step()
			want = append(want, int(heap.Pop(&ref).(refEvent).arg))
		}
	}
	for e.Step() {
	}
	for ref.Len() > 0 {
		want = append(want, int(heap.Pop(&ref).(refEvent).arg))
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

// TestArenaRecyclesSlots: draining and refilling must reuse the capacity of
// the arena and of every queue holder rather than growing it, and a warmed-up
// schedule + Step allocates nothing — the allocation-free steady state. The
// delays reach all three holders: the active bucket (front), the ring, and
// beyond the window (far).
func TestArenaRecyclesSlots(t *testing.T) {
	e := New(1)
	h := &countingHandler{}
	fill := func() {
		for i := 0; i < 64; i++ {
			e.AfterHandler(float64(i%4)*1e-4, h, 0)   // front, or one dense bucket
			e.AfterHandler(float64(i)*0.01, h, 0)     // spread over the ring
			e.AfterHandler(20+float64(i%5), h, 0)     // far
			e.AfterHandler(0.5+float64(i)*1e-6, h, 0) // one bucket, counting-sorted
		}
		h.fired = h.fired[:0]
	}
	fill()
	drain(e)
	caps := func() [5]int {
		return [5]int{cap(e.arena), cap(e.free), cap(e.front), cap(e.spare), cap(e.far)}
	}
	grown := caps()
	for round := 0; round < 50; round++ {
		fill()
		drain(e)
	}
	if caps() != grown {
		t.Fatalf("capacities (arena, free, front, spare, far) grew from %v to %v across steady-state rounds", grown, caps())
	}
	if len(e.free) != len(e.arena) || e.Pending() != 0 || e.inWheel != 0 {
		t.Fatalf("drained engine: free %d of arena %d, pending %d, on the wheel %d",
			len(e.free), len(e.arena), e.Pending(), e.inWheel)
	}
	for i := range e.arena {
		if e.arena[i] != (event{}) {
			t.Fatalf("freed arena slot %d keeps %+v", i, e.arena[i])
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(200, func() {
		e.AfterHandler(0.3, h, 0)
		e.AfterHandler(30, h, 0)
		e.AfterHandler(0, h, 0)
		e.Step()
		e.Step()
		e.Step()
		h.fired = h.fired[:0]
	}); allocs != 0 {
		t.Fatalf("steady-state schedule + Step allocates %v times per run", allocs)
	}
}

// TestRunUntilBetweenPendingEvents: RunUntil(t) has to look at the first
// event after t to know it is done, which activates that event's bucket. An
// event scheduled at the clock afterwards — into a bucket at or before the
// active one — must still pop first. Covered twice: both events in one
// bucket (the second already sits in the sorted run), and seconds apart.
func TestRunUntilBetweenPendingEvents(t *testing.T) {
	for _, gap := range []float64{0.25 / wheelScale, 3} {
		e := New(1)
		h := &countingHandler{}
		e.AtHandler(1, h, 1)
		e.AtHandler(1+gap, h, 3)
		e.RunUntil(1 + gap/2)
		if e.Now() != 1+gap/2 || len(h.fired) != 1 {
			t.Fatalf("gap %v: after RunUntil now = %v, fired %v", gap, e.Now(), h.fired)
		}
		e.AtHandler(e.Now(), h, 2)     // at the clock
		e.AtHandler(1+gap*0.75, h, 20) // after it, before the pending event
		e.AtHandler(1+gap, h, 4)       // same instant as the pending event
		e.AtHandler(0, h, 21)          // the past: clamped to the clock
		drain(e)
		if want := []uint64{1, 2, 21, 20, 3, 4}; !slices.Equal(h.fired, want) {
			t.Fatalf("gap %v: pop order %v, want %v", gap, h.fired, want)
		}
	}
}

// TestHugeTimesPopLast: times no bucket number can hold — +Inf, 10¹² s, and
// just past the wheel's horizon — stay in the far heap, pop after everything
// else in time order, and leave the engine usable.
func TestHugeTimesPopLast(t *testing.T) {
	e := New(1)
	h := &countingHandler{}
	e.AtHandler(math.Inf(1), h, 6)
	e.AtHandler(1e12, h, 4)
	e.AtHandler(wheelHorizon*4, h, 5)
	e.AtHandler(math.Inf(1), h, 7)
	e.AtHandler(1e12, h, 40)
	e.AtHandler(2, h, 2)
	e.AtHandler(100, h, 3)
	e.AtHandler(0, h, 1)
	for i := 0; i < 6; i++ {
		e.Step()
	}
	if e.Now() != wheelHorizon*4 {
		t.Fatalf("clock = %v after the last finite event", e.Now())
	}
	e.AfterHandler(1, h, 50) // scheduled from beyond the horizon
	drain(e)
	if want := []uint64{1, 2, 3, 4, 40, 5, 50, 6, 7}; !slices.Equal(h.fired, want) {
		t.Fatalf("pop order %v, want %v", h.fired, want)
	}
	if !math.IsInf(e.Now(), 1) || e.Pending() != 0 {
		t.Fatalf("clock = %v, pending = %d", e.Now(), e.Pending())
	}
}

// TestSameInstantBurstPopsInSeqOrder: one bucket holding 5 000 events of one
// instant (plus a few around it) pops in schedule order, whether the burst
// was on the wheel before its bucket became active or arrived while it was.
func TestSameInstantBurstPopsInSeqOrder(t *testing.T) {
	e := New(1)
	h := &countingHandler{}
	const burst = 5000
	var want []uint64
	e.AtHandler(1.00001, h, burst+1)
	for i := 0; i < burst; i++ {
		e.AtHandler(1, h, uint64(i))
		want = append(want, uint64(i))
	}
	e.AtHandler(0.99999, h, burst+2)
	want = append([]uint64{burst + 2}, want...)
	e.RunUntil(1) // the bucket is active and half drained…
	for i := 0; i < burst; i++ {
		e.AtHandler(1, h, uint64(burst+10+i)) // …when a second burst lands in it
		want = append(want, uint64(burst+10+i))
	}
	want = append(want, burst+1)
	drain(e)
	if !slices.Equal(h.fired, want) {
		t.Fatal("same-instant events did not pop in schedule order")
	}
}

// TestRefillSortsCrowdedSlice: more than fineCrowd events inside one of a
// bucket's 2⁻¹⁶ s slices, in descending time order (the worst case for an
// insertion sort), take refill's fallback sort and still pop in order.
func TestRefillSortsCrowdedSlice(t *testing.T) {
	e := New(1)
	h := &countingHandler{}
	const n = 40 * fineCrowd
	for i := 0; i < n; i++ {
		e.AtHandler(1+float64(n-i)*1e-9, h, uint64(n-i))
	}
	drain(e)
	for i, arg := range h.fired {
		if arg != uint64(i+1) {
			t.Fatalf("pop %d is event %d", i, arg)
		}
	}
	if len(h.fired) != n {
		t.Fatalf("popped %d of %d", len(h.fired), n)
	}
}

// TestPermIntoMatchesRandPerm pins PermInto to rand.Perm: on equal seeds,
// the same permutation from the same number of draws for every n up to 64,
// reusing one buffer throughout.
func TestPermIntoMatchesRandPerm(t *testing.T) {
	a, b := New(9), New(9)
	var buf []int
	for n := 0; n <= 64; n++ {
		want := a.Rand().Perm(n)
		buf = b.PermInto(buf, n)
		if !slices.Equal(buf, want) && n > 0 {
			t.Fatalf("n=%d: PermInto %v, rand.Perm %v", n, buf, want)
		}
		if len(buf) != n || a.RandDraws() != b.RandDraws() {
			t.Fatalf("n=%d: len %d, draws %d vs %d", n, len(buf), b.RandDraws(), a.RandDraws())
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { buf = b.PermInto(buf, 64) }); allocs != 0 {
		t.Fatalf("PermInto with a large enough buffer allocates %v times", allocs)
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
	drain(e)
	if len(h.fired) != 2 || h.fired[0] != 10 || h.fired[1] != 20 {
		t.Fatalf("handler order = %v", h.fired)
	}
	if len(order) != 2 || order[0] != "c1" || order[1] != "c2" {
		t.Fatalf("closure order = %v", order)
	}
}

// BenchmarkEngineSchedule measures the steady-state schedule+dispatch cost
// of the scheduler: a self-rescheduling handler keeps a constant in-flight
// population, so after warmup every op is a recycled arena slot. The dense
// cases spread the population over one virtual second of gossip-like delays
// (the wheel's cost should barely move from 1 k to 1 M pending events, where
// a heap's grows with its depth); the sparse cases keep eight events spaced
// 10 and 10⁴ virtual seconds apart, so every pop crosses empty buckets or
// comes from the far heap.
func BenchmarkEngineSchedule(b *testing.B) {
	for _, c := range []struct {
		name     string
		inflight int
		span     float64 // delays are uniform in (0, span]
	}{
		{"inflight=1k", 1 << 10, 1},
		{"inflight=64k", 1 << 16, 1},
		{"inflight=1M", 1 << 20, 1},
		{"sparse=10s", 8, 80},
		{"sparse=1e4s", 8, 8e4},
	} {
		b.Run(c.name, func(b *testing.B) {
			e := New(1)
			h := &selfScheduler{e: e, span: c.span, rng: rand.New(rand.NewSource(1))}
			for i := 0; i < c.inflight; i++ {
				h.HandleEvent(uint64(i))
			}
			for i := 0; i < 2*c.inflight; i++ { // reach the steady state
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// selfScheduler re-schedules itself on every event, modelling the gossip
// loop's constant event churn.
type selfScheduler struct {
	e    *Engine
	span float64
	rng  *rand.Rand
}

func (s *selfScheduler) HandleEvent(arg uint64) {
	s.e.AfterHandler((1-s.rng.Float64())*s.span, s, arg)
}

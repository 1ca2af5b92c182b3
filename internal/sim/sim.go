// Package sim provides a deterministic discrete-event simulation engine.
//
// All Ethereum-network behaviour in this repository (gossip latency, mempool
// churn, mining) runs on virtual time managed by an Engine: events are
// functions scheduled at absolute timestamps and executed in timestamp order,
// with FIFO ordering among events at the same instant. Determinism comes from
// a single seeded random source owned by the engine; two runs with the same
// seed replay identically, which is what makes the Appendix-C twin-world
// non-interference experiment possible.
//
// The scheduler is built for the gossip-flood hot path: events live in an
// engine-owned arena whose freed slots recycle through a free list, and the
// queue over them is a time wheel (a ring of 2⁻¹⁰ s buckets, the sorted run
// of the earliest bucket, and a small heap for events beyond the ring), so
// steady-state scheduling performs no allocation and no interface boxing and
// its cost does not grow with the number of pending events. Every event is
// a Handler plus a uint64 argument: one long-lived object (the network, a
// miner) owns all of its event kinds and decodes the argument itself, which
// is also what makes pending events serializable. The pop order is the
// strict total order (at, seq) — identical for any correct priority queue —
// so the queue's layout is a pure implementation detail that can never
// change a replay. A lane is a tag recorded on each event and carried into
// checkpoints; it selects nothing. See DESIGN.md §8 and §12 for the
// invariants.
package sim

import (
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
)

// Handler receives the events scheduled with AtHandler/AfterHandler: one
// long-lived object (e.g. the network) handles every event kind, switching
// on arg.
type Handler interface {
	HandleEvent(arg uint64)
}

// event is one scheduled occurrence. next links the events of one wheel
// bucket through the arena (-1 ends the list); it sits in what would be the
// struct's padding, so a slot stays 48 bytes.
type event struct {
	at   float64
	seq  uint64 // tie-break: FIFO among same-time events
	h    Handler
	arg  uint64
	lane int32
	next int32
}

// item is a queue entry with its key inline: front and far order and compare
// items without touching the arena.
type item struct {
	at  float64
	seq uint64
	idx int32
}

// before orders two items by (at, seq) — a strict total order because seq is
// unique.
//
//toposhot:hotpath
func (a item) before(b item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The wheel's geometry, chosen by measurement (DESIGN.md §8): narrower
// buckets sort less per refill but scan more of the bitmap between refills,
// and the ring must span the latencies gossip actually schedules (≤ 3 s of
// hop latency, the 5 s janitor of the benchmarks) so only slow ticks reach
// the far heap.
const (
	wheelScale = 1 << 10 // buckets per virtual second: width 2⁻¹⁰ s
	wheelSize  = 1 << 13 // buckets in the ring: an 8 s window
	wheelMask  = wheelSize - 1
	// wheelHorizon bounds the times the wheel files by bucket number. Below
	// it at×wheelScale converts to int64 exactly; at or beyond it (+Inf
	// included) an event lives in the far heap and the window never follows.
	wheelHorizon = 1 << 40
)

// countingSource wraps the standard library's seeded source and counts every
// underlying draw. rand.Rand's internal state cannot be serialized, but its
// source advances exactly one step per Int63/Uint64 call regardless of which
// Rand method triggered it — so (seed, draw count) is a complete, versionable
// encoding of RNG state: restore re-seeds and discards the counted number of
// draws.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// CountedRand is a deterministic rand.Rand whose source-draw count is
// observable and replayable — the standalone form of the engine's RNG
// checkpointing, for components (e.g. workloads) that keep a private random
// stream but still need to serialize into a checkpoint.
type CountedRand struct {
	rng *rand.Rand
	src *countingSource
}

// NewCountedRand returns a counted deterministic source seeded with seed.
func NewCountedRand(seed int64) *CountedRand {
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return &CountedRand{rng: rand.New(src), src: src}
}

// Rand returns the underlying rand.Rand.
func (c *CountedRand) Rand() *rand.Rand { return c.rng }

// Draws returns the number of source draws consumed so far.
func (c *CountedRand) Draws() uint64 { return c.src.draws }

// FastForward advances a fresh same-seed source to a recorded draw count.
func (c *CountedRand) FastForward(n uint64) {
	for i := uint64(0); i < n; i++ {
		c.src.src.Uint64()
	}
	c.src.draws = n
}

// Engine is a discrete-event scheduler over virtual seconds.
// It is not safe for concurrent use; simulations are single-threaded by
// design so that runs are reproducible.
type Engine struct {
	now float64
	seq uint64

	// arena stores events by value and free recycles popped slots: once the
	// arena has grown to the simulation's peak in-flight event count,
	// scheduling allocates nothing. A live slot has seq ≠ 0.
	arena   []event
	free    []int32
	pending int
	lanes   int

	// The queue is three holders (DESIGN.md §8). An event whose bucket
	// ⌊at×wheelScale⌋ lies in (cur, cur+wheelSize) hangs on that bucket's
	// unsorted list: heads[bucket&wheelMask] is the list's first arena slot,
	// valid only while the bucket's bit in occ is set. front[head:] is the
	// sorted run of every event at or before bucket cur, refilled from the
	// next occupied bucket when it empties. far is a 4-ary heap of the events
	// at or past winEnd, the window's end as a time. A pop takes the smaller
	// of front's head and far's head.
	heads   [wheelSize]int32
	occ     [wheelSize / 64]uint64
	inWheel int
	cur     int64
	winEnd  float64
	front   []item
	head    int
	spare   []item // refill's scratch: the bucket as collected
	far     []item

	rng *rand.Rand
	src *countingSource
}

// New returns an engine with virtual time 0, one event lane, and a
// deterministic random source derived from seed.
func New(seed int64) *Engine {
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	e := &Engine{
		rng: rand.New(src), src: src, lanes: 1,
		// refill's two buffers start large enough for an ordinary bucket, so
		// an engine's first refills do not climb there by doubling.
		front: make([]item, 0, refillCap),
		spare: make([]item, 0, refillCap),
	}
	e.setCur(-1) // no bucket active yet: bucket 0 is the ring's first
	return e
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// RandDraws returns the number of draws consumed from the engine's random
// source since construction. Together with the construction seed it fully
// determines RNG state; checkpoints persist it and RestoreState replays it.
func (e *Engine) RandDraws() uint64 { return e.src.draws }

// SeqCount returns the number of events scheduled since construction — the
// monotone tiebreaker counter. Checkpoints persist it so sequence numbers
// (and thus equal-time pop order) continue identically after a restore.
func (e *Engine) SeqCount() uint64 { return e.seq }

// LaneCount returns the number of event lanes.
func (e *Engine) LaneCount() int { return e.lanes }

// SetLanes sets the number of event lanes to n (n < 1 is clamped to 1) and
// re-tags every pending event with its recorded lane modulo n. A lane is only
// a tag that EventRecord carries into checkpoints (DESIGN.md §12): it never
// selects a queue, so lane count is invisible to a replay.
func (e *Engine) SetLanes(n int) {
	if n < 1 {
		n = 1
	}
	e.lanes = n
	for i := range e.arena {
		if ev := &e.arena[i]; ev.seq != 0 {
			ev.lane %= int32(n)
		}
	}
}

// AtHandler schedules h.HandleEvent(arg) at absolute virtual time t.
// Scheduling in the past runs the event at the current time instead (never
// backwards). It captures nothing, so steady-state scheduling through a
// reused Handler is allocation-free.
//
//toposhot:hotpath
func (e *Engine) AtHandler(t float64, h Handler, arg uint64) { e.schedule(t, h, arg, 0) }

// AfterHandler schedules h.HandleEvent(arg) d seconds from now.
//
//toposhot:hotpath
func (e *Engine) AfterHandler(d float64, h Handler, arg uint64) { e.schedule(e.now+d, h, arg, 0) }

// AtHandlerLane schedules h.HandleEvent(arg) at absolute time t, tagged with
// the given lane (taken modulo the lane count). The tag is recorded, nothing
// more: it never affects the event's position in the pop order.
//
//toposhot:hotpath
func (e *Engine) AtHandlerLane(t float64, h Handler, arg uint64, lane int) {
	e.schedule(t, h, arg, lane)
}

// schedule stores the event in a recycled arena slot and files it. The
// (at, seq) key is unique per event, so where it is filed cannot influence
// pop order.
//
//toposhot:hotpath
func (e *Engine) schedule(t float64, h Handler, arg uint64, lane int) {
	if t < e.now {
		t = e.now
	}
	if lane < 0 {
		lane = -lane
	}
	lane %= e.lanes
	e.seq++
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, event{})
		idx = int32(len(e.arena) - 1)
	}
	e.arena[idx] = event{at: t, seq: e.seq, h: h, arg: arg, lane: int32(lane)}
	e.file(idx)
}

// file puts the filled arena slot idx in the holder its time selects. The
// comparison against winEnd comes first and is made on the float: +Inf, NaN
// and times past wheelHorizon must never reach the integer conversion.
//
//toposhot:hotpath
func (e *Engine) file(idx int32) {
	ev := &e.arena[idx]
	e.pending++
	if !(ev.at < e.winEnd) {
		e.pushFar(item{at: ev.at, seq: ev.seq, idx: idx})
		return
	}
	b := int64(ev.at * wheelScale)
	if b <= e.cur {
		e.insertFront(item{at: ev.at, seq: ev.seq, idx: idx})
		return
	}
	slot := b & wheelMask
	word, bit := slot>>6, uint64(1)<<(slot&63)
	if e.occ[word]&bit != 0 {
		ev.next = e.heads[slot]
	} else {
		ev.next = -1
		e.occ[word] |= bit
	}
	e.heads[slot] = idx
	e.inWheel++
}

// insertFront places an item in the sorted run. Two kinds of event land
// here: those in the active bucket itself (clamped to now, or scheduled
// less than a bucket width ahead), and — defensively — any whose bucket is
// already behind cur. The consumed prefix is dropped once it outweighs the
// live run, so a chain of same-instant events cannot grow the slice.
//
//toposhot:hotpath
func (e *Engine) insertFront(it item) {
	if e.head > len(e.front)/2 {
		n := copy(e.front, e.front[e.head:])
		e.front, e.head = e.front[:n], 0
	}
	lo, hi := e.head, len(e.front)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.front[mid].before(it) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.front = append(e.front, item{})
	copy(e.front[lo+1:], e.front[lo:])
	e.front[lo] = it
}

// moveWindow moves the window forward so that t's bucket is the first one
// the ring files: cur becomes the bucket before it. Callers guarantee that
// front is empty and that no event on the wheel is earlier than t's bucket.
//
//toposhot:hotpath
func (e *Engine) moveWindow(t float64) {
	if !(t < wheelHorizon) {
		return
	}
	if b := int64(t*wheelScale) - 1; b > e.cur {
		e.setCur(b)
	}
}

// setCur makes b the active bucket. winEnd is capped at wheelHorizon so that
// every time below it converts exactly.
//
//toposhot:hotpath
func (e *Engine) setCur(b int64) {
	e.cur = b
	e.winEnd = math.Min(float64(b+wheelSize)/wheelScale, wheelHorizon)
}

// nextOccupied returns the number of the first occupied bucket after cur.
// The bitmap is scanned a word (64 buckets) at a time starting at cur+1's
// bit; the ring's slots map onto buckets cur+1 … cur+wheelSize in that scan
// order. inWheel must be non-zero.
//
//toposhot:hotpath
func (e *Engine) nextOccupied() int64 {
	s := uint64(e.cur+1) & wheelMask
	w := s >> 6
	if rest := e.occ[w] >> (s & 63); rest != 0 {
		return e.cur + 1 + int64(bits.TrailingZeros64(rest))
	}
	d := int64(64 - s&63)
	for {
		w = (w + 1) % uint64(len(e.occ))
		if word := e.occ[w]; word != 0 {
			return e.cur + 1 + d + int64(bits.TrailingZeros64(word))
		}
		d += 64
	}
}

// refill activates the next occupied bucket: its list is collected into the
// reused front slice and sorted, after which pops read it sequentially.
// The bucket is left alone when it starts after limit or after far's head —
// then nothing on the wheel is due next, and keeping cur at or before the
// bucket of whatever pops next means an event scheduled from that pop's
// handler files into the ring, never into a long sorted run. The mapping
// from time to bucket is monotone, so comparing bucket numbers is enough.
//
//toposhot:hotpath
func (e *Engine) refill(limit float64) {
	b := e.nextOccupied()
	if len(e.far) > 0 && e.far[0].at < limit {
		limit = e.far[0].at
	}
	if limit < e.winEnd && b > int64(limit*wheelScale) {
		return
	}
	slot := b & wheelMask
	e.occ[slot>>6] &^= 1 << (slot & 63)
	raw := e.spare[:0]
	for i := e.heads[slot]; i >= 0; {
		ev := &e.arena[i]
		raw = append(raw, item{at: ev.at, seq: ev.seq, idx: i})
		i = ev.next
	}
	e.spare = raw
	n := len(raw)
	e.inWheel -= n
	if cap(e.front) < n {
		e.front = make([]item, cap(raw))
	}
	f := e.front[:n]
	e.front, e.head = f, 0
	e.setCur(b)

	// A list is newest first. Both paths below place it oldest first, so
	// events of one instant arrive in seq order and cost the sort nothing.
	if n <= fineMin {
		for i, it := range raw {
			f[n-1-i] = it
		}
		insertionSort(f)
		return
	}
	// Counting sort on the next six bits of the time — branch-free and
	// monotone like the bucket mapping itself — leaves only the events of
	// one 2⁻¹⁶ s slice to order among themselves.
	var end [fineSlots]int32
	base := float64(b)
	for _, it := range raw {
		end[int((it.at*wheelScale-base)*fineSlots)]++
	}
	crowded := false
	sum := int32(0)
	for i, c := range end {
		crowded = crowded || c > fineCrowd
		sum += c
		end[i] = sum
	}
	for _, it := range raw {
		fs := int((it.at*wheelScale - base) * fineSlots)
		end[fs]--
		f[end[fs]] = it
	}
	if crowded {
		slices.SortFunc(f, compareItems) // a burst inside one slice: insertion would be quadratic
	} else {
		insertionSort(f)
	}
}

// fineSlots is how many slices refill's counting sort cuts a bucket into;
// buckets of at most fineMin events skip it, and a slice holding more than
// fineCrowd sends the bucket to the library's O(n log n) sort. refillCap is the initial capacity
// of refill's buffers, in events.
const (
	fineSlots = 64
	fineMin   = 12
	fineCrowd = 32
	refillCap = 256
)

// insertionSort orders s by (at, seq). Hand-written: on the few events the
// counting sort leaves out of order, the generic sort's call per comparison
// cost more than the rest of the wheel.
//
//toposhot:hotpath
func insertionSort(s []item) {
	for i := 1; i < len(s); i++ {
		it := s[i]
		j := i
		for ; j > 0 && it.before(s[j-1]); j-- {
			s[j] = s[j-1]
		}
		s[j] = it
	}
}

// compareItems is the comparator of refill's fallback sort: a named
// function, not a closure, so the sort allocates nothing.
//
//toposhot:hotpath
func compareItems(a, b item) int {
	switch {
	case a.before(b):
		return -1
	case b.before(a):
		return 1
	}
	return 0
}

// pushFar adds an item to the far heap, a 4-ary heap with the keys inline.
//
//toposhot:hotpath
func (e *Engine) pushFar(it item) {
	e.far = append(e.far, it)
	h := e.far
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !h[i].before(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// popFar removes the far heap's head.
//
//toposhot:hotpath
func (e *Engine) popFar() {
	h := e.far
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	e.far = h
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(h[min]) {
				min = c
			}
		}
		if !h[min].before(h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// Step executes the next pending event and reports whether one existed.
//
//toposhot:hotpath
func (e *Engine) Step() bool { return e.stepUntil(math.Inf(1)) }

// stepUntil executes the next pending event if its time is not after limit.
//
//toposhot:hotpath
func (e *Engine) stepUntil(limit float64) bool {
	if e.head == len(e.front) && e.inWheel > 0 {
		e.refill(limit)
	}
	var it item
	switch hasFront := e.head < len(e.front); {
	case hasFront && (len(e.far) == 0 || e.front[e.head].before(e.far[0])):
		it = e.front[e.head]
		if it.at > limit {
			return false
		}
		e.head++
	case len(e.far) > 0:
		it = e.far[0]
		if it.at > limit {
			return false
		}
		e.popFar()
		if !hasFront {
			// refill found no bucket at or before this event's.
			e.moveWindow(it.at)
		}
	default:
		return false
	}
	ev := &e.arena[it.idx]
	h, arg := ev.h, ev.arg
	*ev = event{} // release the handler reference
	e.free = append(e.free, it.idx)
	e.pending--
	e.now = it.at
	if h != nil {
		h.HandleEvent(arg)
	}
	return true
}

// Pending returns the number of scheduled events.
//
//toposhot:hotpath
func (e *Engine) Pending() int { return e.pending }

// Run executes events until the queue drains or the event budget is
// exhausted. The budget guards against runaway self-rescheduling loops; a
// budget ≤ 0 means unlimited.
//
//toposhot:hotpath
func (e *Engine) Run(budget int) {
	if budget <= 0 {
		budget = -1
	}
	for budget != 0 && e.Step() {
		if budget > 0 {
			budget--
		}
	}
}

// RunUntil executes events with timestamps ≤ t and then advances the clock
// to exactly t. Events scheduled beyond t remain pending.
//
//toposhot:hotpath
func (e *Engine) RunUntil(t float64) {
	for e.stepUntil(t) {
	}
	if t > e.now {
		e.now = t
		if e.head == len(e.front) {
			// The wheel holds nothing before t's bucket (refill just declined
			// its next one, or it is empty): keep the window with the clock
			// across an idle gap.
			e.moveWindow(t)
		}
	}
}

// EventRecord is the serializable form of one pending event: everything but
// the Handler, which the restoring side supplies.
type EventRecord struct {
	At   float64
	Seq  uint64
	Arg  uint64
	Lane int32
}

// ErrForeignHandler is returned by SnapshotEvents when a pending event
// targets a Handler other than the one being snapshotted.
var ErrForeignHandler = errors.New("sim: pending event targets a foreign handler")

// ErrNotFresh is returned by RestoreState when called on an engine that has
// already scheduled or executed events.
var ErrNotFresh = errors.New("sim: RestoreState requires a fresh engine")

// SnapshotEvents returns every pending event as an EventRecord, sorted by
// seq (schedule order). All pending events must target h; an event for any
// other handler (a running miner, say) makes the engine state unserializable
// from h alone and returns ErrForeignHandler.
func (e *Engine) SnapshotEvents(h Handler) ([]EventRecord, error) {
	out := make([]EventRecord, 0, e.pending)
	for i := range e.arena {
		ev := &e.arena[i]
		if ev.seq == 0 {
			continue
		}
		if ev.h != h {
			return nil, ErrForeignHandler
		}
		out = append(out, EventRecord{At: ev.at, Seq: ev.seq, Arg: ev.arg, Lane: ev.lane})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// RestoreState rewinds a freshly constructed engine (same seed as the
// checkpointed one) to a saved state: virtual clock, sequence counter, RNG
// draw count, and the pending handler events. The engine must not have
// scheduled or run anything yet. After RestoreState the engine replays
// byte-identically to the original from the checkpoint onward.
func (e *Engine) RestoreState(now float64, seq, draws uint64, h Handler, events []EventRecord) error {
	if e.seq != 0 || e.src.draws != 0 || e.Pending() != 0 || e.now != 0 {
		return ErrNotFresh
	}
	if !(now >= 0) {
		return errors.New("sim: checkpointed clock is negative or NaN")
	}
	e.now = now
	for i := uint64(0); i < draws; i++ {
		e.src.src.Uint64() // advance without counting; the count is set below
	}
	e.src.draws = draws
	e.moveWindow(now)
	for _, rec := range events {
		if rec.Seq <= 0 || rec.Seq > seq {
			return errors.New("sim: event seq outside checkpointed range")
		}
		if !(rec.At >= now) {
			// No engine leaves one behind: every event at or before the
			// clock has run. The wheel relies on it (times are never negative).
			return errors.New("sim: event before the checkpointed clock")
		}
		lane := int(rec.Lane) % e.lanes
		if lane < 0 {
			lane = -lane
		}
		e.arena = append(e.arena, event{at: rec.At, seq: rec.Seq, h: h, arg: rec.Arg, lane: int32(lane)})
		e.file(int32(len(e.arena) - 1))
	}
	e.seq = seq
	return nil
}

// Jitter samples a latency from a truncated shifted-exponential
// distribution: base + Exp(mean tail), capped at max. It models gossip hop
// latency: most deliveries land near the base RTT with a straggler tail —
// the stragglers are exactly what re-propagates txC in §5.2.1 and erodes
// parallel-measurement recall in Figure 4b.
func (e *Engine) Jitter(base, tailMean, max float64) float64 {
	d := base + e.rng.ExpFloat64()*tailMean
	if d > max {
		d = max
	}
	return d
}

// Uniform samples uniformly from [lo, hi).
func (e *Engine) Uniform(lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + e.rng.Float64()*(hi-lo)
}

// Poisson samples a Poisson-distributed count with the given mean using
// Knuth's method for small means and a normal approximation for large ones.
func (e *Engine) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := e.rng.NormFloat64()*math.Sqrt(mean) + mean
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= e.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Perm returns a deterministic random permutation of n elements.
func (e *Engine) Perm(n int) []int { return e.rng.Perm(n) }

// PermInto is Perm into a caller-owned buffer, for per-event callers: the
// same permutation from the same draws as rand.Perm — including its useless
// draw for i = 0 — without the slice per call. It returns buf[:n], grown if
// its capacity was short.
//
//toposhot:hotpath
func (e *Engine) PermInto(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	m := buf[:n]
	for i := range m {
		j := e.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

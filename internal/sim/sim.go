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
// engine-owned arena indexed by per-lane 4-ary heaps of int32 slot numbers,
// and freed slots are recycled through a free list, so steady-state
// scheduling performs no allocation and no interface boxing. Every event is
// a Handler plus a uint64 argument: one long-lived object (the network, a
// miner) owns all of its event kinds and decodes the argument itself, which
// is also what makes pending events serializable. The pop order is the strict total order (at, seq) — identical
// for any correct priority queue — so the number of lanes, the heap arity,
// and the layout are pure implementation details that can never change a
// replay: Step always pops the globally smallest (at, seq) across all lane
// heads. Lanes exist so that mainnet-scale networks can keep per-region
// event populations in separate, shallower heaps (cutting sift depth on the
// delivery path) while remaining byte-identical to a single-lane run. See
// DESIGN.md §8 and §12 for the invariants.
package sim

import (
	"errors"
	"math"
	"math/rand"
	"sort"
)

// Handler receives the events scheduled with AtHandler/AfterHandler: one
// long-lived object (e.g. the network) handles every event kind, switching
// on arg.
type Handler interface {
	HandleEvent(arg uint64)
}

// event is one scheduled occurrence.
type event struct {
	at   float64
	seq  uint64 // tie-break: FIFO among same-time events
	h    Handler
	arg  uint64
	lane int32
}

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

	// arena stores events by value; each lane is a 4-ary heap of arena
	// indices ordered by (at, seq); free recycles popped slots. Once the
	// arena has grown to the simulation's peak in-flight event count,
	// scheduling allocates nothing.
	arena []event
	free  []int32
	lanes [][]int32

	rng *rand.Rand
	src *countingSource
}

// New returns an engine with virtual time 0, one event lane, and a
// deterministic random source derived from seed.
func New(seed int64) *Engine {
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return &Engine{
		rng:   rand.New(src),
		src:   src,
		lanes: make([][]int32, 1),
	}
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
func (e *Engine) LaneCount() int { return len(e.lanes) }

// SetLanes resizes the engine to n event lanes (n < 1 is clamped to 1),
// redistributing any pending events by their recorded lane modulo n. Pop
// order is unaffected: Step always takes the global (at, seq) minimum over
// lane heads, so lane count is invisible to a replay.
func (e *Engine) SetLanes(n int) {
	if n < 1 {
		n = 1
	}
	old := e.lanes
	e.lanes = make([][]int32, n)
	for _, h := range old {
		for _, idx := range h {
			l := int(e.arena[idx].lane) % n
			e.arena[idx].lane = int32(l)
			e.lanes[l] = append(e.lanes[l], idx)
			e.siftUp(e.lanes[l], len(e.lanes[l])-1)
		}
	}
}

// AtHandler schedules h.HandleEvent(arg) at absolute virtual time t.
// Scheduling in the past runs the event at the current time instead (never
// backwards). It captures nothing, so steady-state scheduling through a
// reused Handler is allocation-free.
func (e *Engine) AtHandler(t float64, h Handler, arg uint64) { e.schedule(t, h, arg, 0) }

// AfterHandler schedules h.HandleEvent(arg) d seconds from now.
func (e *Engine) AfterHandler(d float64, h Handler, arg uint64) { e.schedule(e.now+d, h, arg, 0) }

// AtHandlerLane schedules h.HandleEvent(arg) at absolute time t on the given
// lane (taken modulo the lane count). Lane choice affects only which heap
// holds the event — never its position in the global pop order.
func (e *Engine) AtHandlerLane(t float64, h Handler, arg uint64, lane int) {
	e.schedule(t, h, arg, lane)
}

// schedule stores the event in a recycled arena slot and pushes its index
// onto its lane's heap. The (at, seq) key is unique per event, so neither
// lane choice nor sift order can influence pop order.
func (e *Engine) schedule(t float64, h Handler, arg uint64, lane int) {
	if t < e.now {
		t = e.now
	}
	if lane < 0 {
		lane = -lane
	}
	lane %= len(e.lanes)
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
	e.lanes[lane] = append(e.lanes[lane], idx)
	e.siftUp(e.lanes[lane], len(e.lanes[lane])-1)
}

// less orders two arena slots by (at, seq) — a strict total order because
// seq is unique.
func (e *Engine) less(a, b int32) bool {
	ea, eb := &e.arena[a], &e.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	return ea.seq < eb.seq
}

// siftUp restores the 4-ary heap property from leaf i upward.
func (e *Engine) siftUp(h []int32, i int) {
	for i > 0 {
		parent := (i - 1) >> 2
		if !e.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// siftDown restores the 4-ary heap property from the root downward. A 4-ary
// layout halves the tree depth of a binary heap: pushes compare against one
// parent per level and the extra child comparisons on pop stay in one cache
// line of the int32 index slice.
func (e *Engine) siftDown(h []int32, i int) {
	n := len(h)
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
			if e.less(h[c], h[min]) {
				min = c
			}
		}
		if !e.less(h[min], h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// minLane returns the index of the lane whose head is the global (at, seq)
// minimum, or -1 when every lane is empty.
func (e *Engine) minLane() int {
	best := -1
	for l := 0; l < len(e.lanes); l++ {
		if len(e.lanes[l]) == 0 {
			continue
		}
		if best < 0 || e.less(e.lanes[l][0], e.lanes[best][0]) {
			best = l
		}
	}
	return best
}

// Step executes the next pending event and reports whether one existed.
func (e *Engine) Step() bool {
	l := e.minLane()
	if l < 0 {
		return false
	}
	h := e.lanes[l]
	idx := h[0]
	last := len(h) - 1
	h[0] = h[last]
	e.lanes[l] = h[:last]
	if last > 0 {
		e.siftDown(e.lanes[l], 0)
	}
	ev := e.arena[idx]
	e.arena[idx] = event{} // release the handler reference
	e.free = append(e.free, idx)
	e.now = ev.at
	if ev.h != nil {
		ev.h.HandleEvent(ev.arg)
	}
	return true
}

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int {
	n := 0
	for l := 0; l < len(e.lanes); l++ {
		n += len(e.lanes[l])
	}
	return n
}

// Run executes events until the queue drains or the event budget is
// exhausted. The budget guards against runaway self-rescheduling loops; a
// budget ≤ 0 means unlimited.
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
func (e *Engine) RunUntil(t float64) {
	for {
		l := e.minLane()
		if l < 0 || e.arena[e.lanes[l][0]].at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
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
	out := make([]EventRecord, 0, e.Pending())
	for _, heap := range e.lanes {
		for _, idx := range heap {
			ev := &e.arena[idx]
			if ev.h != h {
				return nil, ErrForeignHandler
			}
			out = append(out, EventRecord{At: ev.at, Seq: ev.seq, Arg: ev.arg, Lane: ev.lane})
		}
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
	e.now = now
	for i := uint64(0); i < draws; i++ {
		e.src.src.Uint64() // advance without counting; the count is set below
	}
	e.src.draws = draws
	for _, rec := range events {
		if rec.Seq <= 0 || rec.Seq > seq {
			return errors.New("sim: event seq outside checkpointed range")
		}
		lane := int(rec.Lane) % len(e.lanes)
		if lane < 0 {
			lane = -lane
		}
		e.arena = append(e.arena, event{at: rec.At, seq: rec.Seq, h: h, arg: rec.Arg, lane: int32(lane)})
		idx := int32(len(e.arena) - 1)
		e.lanes[lane] = append(e.lanes[lane], idx)
		e.siftUp(e.lanes[lane], len(e.lanes[lane])-1)
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

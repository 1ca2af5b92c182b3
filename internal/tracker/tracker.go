// Package tracker maintains a continuously-tracked topology: the last
// inferred graph with per-link confidence, decayed by age and observed
// churn, and per-tick *delta campaigns* that re-probe only the stale or
// low-confidence pairs under a fixed budget — instead of re-running a full
// TopoShot census every tick (ROADMAP item 5).
//
// The tracker holds one record per unordered target pair (the same pair
// universe a full census covers). Each record remembers the last verdict and
// the tick it was established. Confidence decays as 0.5^(age/HalfLife);
// since decay is uniform, confidence order IS last-verified order, so the
// planner needs no per-tick decay sweep: it pops pairs from lazily-validated
// staleness buckets, oldest first, up to the budget, after first draining an
// urgent queue fed by churn observations (Observe) and probe setup failures.
// Planning is O(budget) amortized, and the belief graph is a graph.Dynamic,
// so every graph statistic stays current in O(Δ) per verdict flip — no
// O(V+E) recompute anywhere on the tick path (the trk* helpers are under
// toposhotlint's map-iteration and allocation bans, DESIGN.md §13).
//
// Persistence: State() captures the full pair table (in staleness-bucket
// order) plus the pending urgent queue as a JSON-serializable snapshot that
// rides in the cmd/toposhot checkpoint container next to the engine blob;
// Restore rebuilds the tracker — buckets, urgent queue, belief graph and all
// — so the continuation plans the identical probe schedule the original
// would have.
package tracker

import (
	"fmt"
	"math"
	"sort"

	"toposhot/internal/core"
	"toposhot/internal/graph"
	"toposhot/internal/metrics"
	"toposhot/internal/types"
)

// Config tunes the delta-campaign planner.
type Config struct {
	// Budget caps the pairs probed per tick (≥1; default 144, one census
	// MeasurePar batch).
	Budget int
	// HalfLife is the age, in ticks, at which a verdict's confidence halves
	// (default 12).
	HalfLife float64
	// MinConfidence is the staleness threshold: pairs whose confidence is
	// still above it are not re-probed by the age sweep (churn observations
	// bypass it via the urgent queue). Default 0.25 — two half-lives.
	MinConfidence float64
}

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = 144
	}
	if c.HalfLife <= 0 {
		c.HalfLife = 12
	}
	if c.MinConfidence <= 0 || c.MinConfidence >= 1 {
		c.MinConfidence = 0.25
	}
	return c
}

// staleAfterTicks converts the confidence threshold into an age cutoff:
// confidence 0.5^(age/HalfLife) < MinConfidence once age exceeds
// HalfLife·log2(1/MinConfidence).
func (c Config) staleAfterTicks() int32 {
	return int32(math.Ceil(c.HalfLife * math.Log2(1/c.MinConfidence)))
}

// ProbeResult is one pair's probe outcome.
type ProbeResult struct {
	A, B types.NodeID
	// Present is the probe's verdict about the undirected link.
	Present bool
	// Failed marks a probe whose setup did not complete (e.g. MeasurePar's
	// proceed-only-if check); the verdict is unknown and the prior belief
	// stands. Failed pairs re-enter the urgent queue.
	Failed bool
}

// Prober measures a batch of candidate pairs. Implementations: the grouped
// core.MeasurePar prober (production) or a test oracle.
type Prober interface {
	ProbePairs(pairs [][2]types.NodeID) ([]ProbeResult, error)
}

// bucket is one staleness bucket: pairs verified at tick.
type bucket struct {
	tick int32
	idx  []int32
}

// pairRec is one tracked pair: endpoints, last verdict, and the tick the
// verdict was established (the confidence clock).
type pairRec struct {
	a, b     types.NodeID
	present  bool
	lastTick int32
}

// TickReport summarizes one delta campaign.
type TickReport struct {
	Tick int
	// Planned pairs were selected (urgent + stale); Probed of them returned a
	// verdict, Failed did not and were re-queued.
	Planned, Probed, Failed int
	// Urgent counts planned pairs that came from the urgent queue.
	Urgent int
	// Changed counts verdict flips (belief graph edits) this tick.
	Changed int
}

// Tracker is the stateful topology tracker. Single-goroutine, like the
// simulation engines beneath it.
type Tracker struct {
	cfg        Config
	staleAfter int32
	prober     Prober

	ids   []types.NodeID // sorted targets
	pairs []pairRec      // one record per unordered target pair
	index map[uint64]int32

	// buckets holds, oldest first, the (lazily-validated) indices of pairs
	// last verified at each bucket's tick; head is the sweep cursor. An entry
	// is live iff the record's lastTick still equals its bucket's tick —
	// re-verified pairs leave stale entries behind, skipped on pop. Only a
	// tick that verified some pair opens a bucket, so memory follows the
	// verdicts, never the tick counter.
	buckets []bucket
	head    int

	urgent     []int32
	urgentHead int
	urgentMark []bool
	plannedAt  []int32 // per-pair tick stamp deduping urgent vs sweep

	tick   int32
	belief *graph.Dynamic

	metrics trackMetrics

	planScratch []int32
	pairScratch [][2]types.NodeID
}

// New builds a tracker over the target node set, seeded with an initial
// measured edge set (normally a full census's Detected set at tick 0).
// Memory is O(targets²): one small record per pair — the same pair universe
// a full census probes.
func New(cfg Config, targets []types.NodeID, initial *core.EdgeSet, p Prober) (*Tracker, error) {
	if len(targets) < 2 {
		return nil, fmt.Errorf("tracker: need at least 2 targets, have %d", len(targets))
	}
	cfg = cfg.withDefaults()
	t := &Tracker{
		cfg:        cfg,
		staleAfter: cfg.staleAfterTicks(),
		prober:     p,
		ids:        append([]types.NodeID(nil), targets...),
		belief:     graph.NewDynamic(),
	}
	sort.Slice(t.ids, func(i, j int) bool { return t.ids[i] < t.ids[j] })
	for i := 1; i < len(t.ids); i++ {
		if t.ids[i] == t.ids[i-1] {
			return nil, fmt.Errorf("tracker: duplicate target %v", t.ids[i])
		}
	}
	n := len(t.ids)
	t.pairs = make([]pairRec, 0, n*(n-1)/2)
	t.index = make(map[uint64]int32, n*(n-1)/2)
	for i := 0; i < n; i++ {
		t.belief.AddNode(int(t.ids[i]))
		for j := i + 1; j < n; j++ {
			a, b := t.ids[i], t.ids[j]
			rec := pairRec{a: a, b: b}
			if initial != nil && initial.Has(a, b) {
				rec.present = true
				t.belief.AddEdge(int(a), int(b))
			}
			t.index[pairKey(a, b)] = int32(len(t.pairs))
			t.pairs = append(t.pairs, rec)
		}
	}
	t.urgentMark = make([]bool, len(t.pairs))
	t.plannedAt = make([]int32, len(t.pairs))
	for i := range t.plannedAt {
		t.plannedAt[i] = -1
	}
	bucket0 := make([]int32, len(t.pairs))
	for i := range bucket0 {
		bucket0[i] = int32(i)
	}
	t.buckets = []bucket{{tick: 0, idx: bucket0}}
	// Self-wire to the process registry, like the engines and the measurer
	// (Restore inherits this through its New call).
	t.SetMetrics(metrics.Enabled())
	return t, nil
}

// pairKey packs an unordered pair into the index key, smaller id high.
func pairKey(a, b types.NodeID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// Targets returns the tracked node set, ascending.
func (t *Tracker) Targets() []types.NodeID {
	return append([]types.NodeID(nil), t.ids...)
}

// Belief returns the live belief graph. Read-only: its statistics
// (clustering, assortativity, components, …) are maintained incrementally
// and equal a batch recompute on BeliefEdges at every instant.
func (t *Tracker) Belief() *graph.Dynamic { return t.belief }

// BeliefEdges returns the currently-believed link set.
func (t *Tracker) BeliefEdges() *core.EdgeSet {
	s := core.NewEdgeSet()
	for _, e := range t.belief.Edges() {
		s.Add(types.NodeID(e[0]), types.NodeID(e[1]))
	}
	return s
}

// Confidence returns the decayed confidence of the current verdict on pair
// (a, b): 0.5^(age/HalfLife), or 0 for untracked pairs.
func (t *Tracker) Confidence(a, b types.NodeID) float64 {
	i, ok := t.index[pairKey(a, b)]
	if !ok {
		return 0
	}
	age := float64(t.tick - t.pairs[i].lastTick)
	return math.Pow(0.5, age/t.cfg.HalfLife)
}

// Believed reports the tracker's current verdict on pair (a, b).
func (t *Tracker) Believed(a, b types.NodeID) bool {
	i, ok := t.index[pairKey(a, b)]
	return ok && t.pairs[i].present
}

// Observe feeds an external churn observation about pair (a, b): the pair's
// confidence is considered destroyed and it jumps the staleness queue into
// the next tick's plan. Pairs outside the target set are ignored. This is
// the hook RunTracking connects to the ethsim churn event log.
func (t *Tracker) Observe(a, b types.NodeID) {
	i, ok := t.index[pairKey(a, b)]
	if !ok {
		return
	}
	t.trkMarkUrgent(i)
}

// Tick plans and executes one delta campaign: drain the urgent queue, sweep
// stale pairs oldest-first up to the budget, probe them, and fold the
// verdicts into the belief graph. On a probe transport error the planned
// pairs are re-queued urgent and the error is returned — the tracker's
// state stays consistent for a retry.
func (t *Tracker) Tick() (TickReport, error) {
	if t.tick == math.MaxInt32 {
		return TickReport{Tick: int(t.tick)}, fmt.Errorf("tracker: tick counter exhausted at %d", t.tick)
	}
	t.tick++
	rep := TickReport{Tick: int(t.tick)}
	defer t.observeTick(&rep)
	plan := t.trkPlan(&rep)
	rep.Planned = len(plan)
	if len(plan) == 0 {
		return rep, nil
	}
	pairs := t.pairScratch[:0]
	for _, i := range plan {
		pairs = append(pairs, [2]types.NodeID{t.pairs[i].a, t.pairs[i].b})
	}
	t.pairScratch = pairs

	results, err := t.prober.ProbePairs(pairs)
	if err != nil {
		for _, i := range plan {
			t.trkMarkUrgent(i)
		}
		return rep, fmt.Errorf("tracker: tick %d probe: %w", t.tick, err)
	}
	if len(results) != len(plan) {
		for _, i := range plan {
			t.trkMarkUrgent(i)
		}
		return rep, fmt.Errorf("tracker: tick %d: prober returned %d results for %d pairs",
			t.tick, len(results), len(plan))
	}
	for k := range results {
		t.trkApply(plan[k], results[k], &rep)
	}
	return rep, nil
}

// trkPlan selects this tick's pairs: urgent queue first (churn observations
// and failed probes), then the staleness sweep — buckets in ascending
// last-verified order, stopping at the confidence cutoff. Amortized
// O(budget): every popped entry is either planned, or a lazy-deletion
// artifact paid for by the re-verification that created it.
//
//toposhot:hotpath
func (t *Tracker) trkPlan(rep *TickReport) []int32 {
	plan := t.planScratch[:0]
	for t.urgentHead < len(t.urgent) && len(plan) < t.cfg.Budget {
		i := t.urgent[t.urgentHead]
		t.urgentHead++
		t.urgentMark[i] = false
		if t.plannedAt[i] == t.tick {
			continue
		}
		t.plannedAt[i] = t.tick
		plan = append(plan, i)
		rep.Urgent++
	}
	if t.urgentHead >= len(t.urgent) {
		t.urgent = t.urgent[:0]
		t.urgentHead = 0
	}

	cutoff := t.tick - t.staleAfter
	for t.head < len(t.buckets) && t.buckets[t.head].tick <= cutoff && len(plan) < t.cfg.Budget {
		b := &t.buckets[t.head]
		for len(b.idx) > 0 && len(plan) < t.cfg.Budget {
			i := b.idx[len(b.idx)-1]
			b.idx = b.idx[:len(b.idx)-1]
			if t.pairs[i].lastTick != b.tick || t.urgentMark[i] || t.plannedAt[i] == t.tick {
				continue
			}
			t.plannedAt[i] = t.tick
			plan = append(plan, i)
		}
		if len(b.idx) == 0 {
			*b = bucket{}
			t.head++
		}
	}
	t.planScratch = plan
	return plan
}

// trkMarkUrgent queues a pair for the next plan, deduplicating repeat
// observations of the same pair.
//
//toposhot:hotpath
func (t *Tracker) trkMarkUrgent(i int32) {
	if t.urgentMark[i] {
		return
	}
	t.urgentMark[i] = true
	t.urgent = append(t.urgent, i)
}

// trkApply folds one probe result into the pair table, the belief graph,
// and the staleness buckets.
//
//toposhot:hotpath
func (t *Tracker) trkApply(i int32, r ProbeResult, rep *TickReport) {
	p := &t.pairs[i]
	if r.Failed {
		rep.Failed++
		t.trkMarkUrgent(i)
		return
	}
	rep.Probed++
	if r.Present != p.present {
		rep.Changed++
		if r.Present {
			t.belief.AddEdge(int(p.a), int(p.b))
		} else {
			t.belief.RemoveEdge(int(p.a), int(p.b))
		}
		p.present = r.Present
	}
	p.lastTick = t.tick
	t.bucketAppend(i)
}

// bucketAppend files pair i in the bucket of its lastTick, which is at or
// past every bucket's tick: the newest bucket, or a new one after it.
func (t *Tracker) bucketAppend(i int32) {
	tick := t.pairs[i].lastTick
	if n := len(t.buckets); n == 0 || t.buckets[n-1].tick != tick {
		t.buckets = append(t.buckets, bucket{tick: tick})
	}
	b := &t.buckets[len(t.buckets)-1]
	b.idx = append(b.idx, i)
}

// ---------------------------------------------------------------------------
// Persistence

// PairState is one pair's serialized record. Unbucketed marks a pair with
// no staleness-bucket entry — it is awaiting an urgent retry instead.
type PairState struct {
	A          types.NodeID `json:"a"`
	B          types.NodeID `json:"b"`
	Present    bool         `json:"present,omitempty"`
	LastTick   int32        `json:"last_tick"`
	Unbucketed bool         `json:"unbucketed,omitempty"`
}

// State is the tracker's JSON-serializable snapshot — the payload the
// cmd/toposhot checkpoint container stores next to the engine blob.
type State struct {
	Tick    int            `json:"tick"`
	Targets []types.NodeID `json:"targets"`
	Pairs   []PairState    `json:"pairs"`
	// Urgent is the pending urgent queue in order (churn observations and
	// failed probes awaiting retry).
	Urgent [][2]types.NodeID `json:"urgent,omitempty"`
}

// State captures the tracker's persistent state. Pairs are emitted in
// staleness-bucket order (live entries, oldest bucket first) and the urgent
// queue verbatim, so a Restore continues with the exact probe schedule the
// original tracker would have planned — and a same-history tracker always
// serializes to identical bytes.
func (t *Tracker) State() *State {
	st := &State{
		Tick:    int(t.tick),
		Targets: append([]types.NodeID(nil), t.ids...),
		Pairs:   make([]PairState, 0, len(t.pairs)),
	}
	emitted := make([]bool, len(t.pairs))
	for _, b := range t.buckets[t.head:] {
		for _, i := range b.idx {
			if t.pairs[i].lastTick != b.tick || emitted[i] {
				continue // lazy-deletion artifact
			}
			emitted[i] = true
			p := &t.pairs[i]
			st.Pairs = append(st.Pairs, PairState{A: p.a, B: p.b, Present: p.present, LastTick: p.lastTick})
		}
	}
	// Pairs with no live bucket entry (popped, then probe-failed or urgent-
	// superseded): carried by the urgent queue alone.
	for i := range t.pairs {
		if !emitted[i] {
			p := &t.pairs[i]
			st.Pairs = append(st.Pairs, PairState{
				A: p.a, B: p.b, Present: p.present, LastTick: p.lastTick, Unbucketed: true})
		}
	}
	for _, i := range t.urgent[t.urgentHead:] {
		p := &t.pairs[i]
		st.Urgent = append(st.Urgent, [2]types.NodeID{p.a, p.b})
	}
	return st
}

// Restore rebuilds a tracker from a State snapshot: pair table, staleness
// buckets in their serialized order, urgent queue, and the belief graph
// (whose incremental statistics are thereby freshly re-seeded). The
// continuation plans the identical probe schedule the original would have.
func Restore(st *State, cfg Config, p Prober) (*Tracker, error) {
	t, err := New(cfg, st.Targets, nil, p)
	if err != nil {
		return nil, err
	}
	if len(st.Pairs) != len(t.pairs) {
		return nil, fmt.Errorf("tracker: restore: %d pair records for %d targets (want %d)",
			len(st.Pairs), len(st.Targets), len(t.pairs))
	}
	if st.Tick < 0 || st.Tick > math.MaxInt32 {
		return nil, fmt.Errorf("tracker: restore: tick %d outside [0, %d]", st.Tick, math.MaxInt32)
	}
	t.tick = int32(st.Tick)
	t.buckets = t.buckets[:0]
	seen := make([]bool, len(t.pairs))
	for _, ps := range st.Pairs {
		i, ok := t.index[pairKey(ps.A, ps.B)]
		if !ok {
			return nil, fmt.Errorf("tracker: restore: pair %v-%v not in target universe", ps.A, ps.B)
		}
		if seen[i] {
			return nil, fmt.Errorf("tracker: restore: duplicate pair %v-%v", ps.A, ps.B)
		}
		seen[i] = true
		rec := &t.pairs[i]
		if ps.LastTick < 0 || int(ps.LastTick) > st.Tick {
			return nil, fmt.Errorf("tracker: restore: pair %v-%v last tick %d outside [0, %d]",
				ps.A, ps.B, ps.LastTick, st.Tick)
		}
		rec.present = ps.Present
		rec.lastTick = ps.LastTick
		if ps.Present {
			t.belief.AddEdge(int(ps.A), int(ps.B))
		}
		if !ps.Unbucketed {
			if n := len(t.buckets); n > 0 && ps.LastTick < t.buckets[n-1].tick {
				return nil, fmt.Errorf("tracker: restore: pair %v-%v (last tick %d) out of bucket order",
					ps.A, ps.B, ps.LastTick)
			}
			t.bucketAppend(i)
		}
	}
	for _, pr := range st.Urgent {
		i, ok := t.index[pairKey(pr[0], pr[1])]
		if !ok {
			return nil, fmt.Errorf("tracker: restore: urgent pair %v-%v not in target universe", pr[0], pr[1])
		}
		t.trkMarkUrgent(i)
	}
	return t, nil
}

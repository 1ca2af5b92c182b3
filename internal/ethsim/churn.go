package ethsim

import (
	"math/rand"
	"slices"

	"toposhot/internal/sim"
	"toposhot/internal/types"
)

// ChurnConfig parameterizes a deterministic peer-churn process: a Poisson
// stream of single-link add/remove events over a fixed node population. The
// tracker experiments need exactly this — a seeded mid-campaign edge
// schedule shared between `RunTracking` and the tracker's own tests, so both
// observe the identical evolving ground truth.
type ChurnConfig struct {
	// Interval is the mean virtual seconds between churn events
	// (exponentially distributed).
	Interval float64
	// Start delays the first event, leaving an initial census a stable graph.
	Start float64
	// StopAt halts churn when virtual time reaches it (0 means never).
	StopAt float64
	// RemoveFrac is the probability an event tears a link down rather than
	// establishing one. 0.5 holds expected density steady.
	RemoveFrac float64
	// Population restricts churn to links with both endpoints in this set.
	// Empty means every non-supernode node. Links touching nodes outside the
	// population (the supernode above all) are never created or removed.
	Population []types.NodeID
}

// ChurnEvent records one applied topology change.
type ChurnEvent struct {
	At    float64
	A, B  types.NodeID
	Added bool // true: link established; false: link removed
}

// Churn is a registered churn process. Like workloads, its recurring event
// is a kind-tagged handler event indexing the network's churn registry, and
// its randomness comes from a private counted RNG — so a pending churn tick
// serializes into a checkpoint and the stream replays byte-identically at
// any lane count.
//
// The event log is observation state, not simulation state: it is NOT part
// of a checkpoint. Consumers that tail it with a cursor (the tracker) must
// treat a restore as a fresh log starting empty; checkpoints are written
// after the tracker drains pending hints, so none are lost.
type Churn struct {
	net *Network
	cfg ChurnConfig

	// OnEvent, when set, observes every applied change as it happens. Like
	// all function hooks it is not checkpointed — re-register after restore.
	OnEvent func(ChurnEvent)

	pop     []types.NodeID // sorted churn population
	member  []bool         // dense id-indexed membership mark
	stopped bool
	index   int // slot in the network's churn registry (event payload)

	events []ChurnEvent

	// crng is private so churn draws never interleave with engine or
	// workload draws; its count is checkpointed and fast-forwarded on
	// restore, like a workload's.
	crng *sim.CountedRand
	rng  *rand.Rand

	edgeScratch [][2]types.NodeID // pooled removal-candidate buffer
}

// addChurn registers a churn process without arming its first event —
// shared by StartChurn and checkpoint restore (where the pending tick is
// already in the restored event queue).
func (n *Network) addChurn(cfg ChurnConfig) *Churn {
	serial := uint64(len(n.churns) + 1)
	crng := sim.NewCountedRand(n.cfg.Seed ^ int64(serial)<<21 ^ 0x51f3a9b7)
	c := &Churn{
		net:   n,
		cfg:   cfg,
		crng:  crng,
		rng:   crng.Rand(),
		index: len(n.churns),
	}
	if len(cfg.Population) == 0 {
		for _, nd := range n.nodes {
			if nd.cfg.Label != "supernode" {
				c.pop = append(c.pop, nd.ID())
			}
		}
	} else {
		c.pop = append(c.pop, cfg.Population...)
		slices.Sort(c.pop)
	}
	c.member = make([]bool, len(n.nodes)+1)
	for _, id := range c.pop {
		if int(id) < len(c.member) {
			c.member[id] = true
		}
	}
	n.churns = append(n.churns, c)
	return c
}

// StartChurn registers a churn process and arms its first event at
// Start + Exp(Interval) from now.
func (n *Network) StartChurn(cfg ChurnConfig) *Churn {
	c := n.addChurn(cfg)
	if cfg.Interval > 0 && len(c.pop) >= 2 {
		c.schedule(cfg.Start + c.rng.ExpFloat64()*cfg.Interval)
	}
	return c
}

// Churns returns the churn processes attached to the network, in creation
// order.
func (n *Network) Churns() []*Churn {
	return append([]*Churn(nil), n.churns...)
}

// schedule arms the next churn event d seconds from now.
func (c *Churn) schedule(d float64) {
	arg := uint64(argKindChurn)<<argKindShift | uint64(c.index)
	c.net.eng.AtHandlerLane(c.net.eng.Now()+d, c.net, arg, 0)
}

// Stop halts the process after the current tick.
func (c *Churn) Stop() { c.stopped = true }

// Events returns the churn log from index `from` on (a copy). Consumers
// tail the log by remembering len(previous)+... — i.e., a cursor equal to
// NumEvents at the last read.
func (c *Churn) Events(from int) []ChurnEvent {
	if from < 0 {
		from = 0
	}
	if from >= len(c.events) {
		return nil
	}
	return append([]ChurnEvent(nil), c.events[from:]...)
}

// NumEvents returns the total number of applied changes so far.
func (c *Churn) NumEvents() int { return len(c.events) }

// tick applies one churn event and re-arms. Call order (apply → sample gap →
// schedule) is fixed so converted and restored runs replay byte-identically.
func (c *Churn) tick() {
	if c.stopped || (c.cfg.StopAt > 0 && c.net.Now() >= c.cfg.StopAt) {
		return
	}
	c.step()
	c.schedule(c.rng.ExpFloat64() * c.cfg.Interval)
}

// step applies a single add or remove. When the preferred kind has no
// eligible move (no removable link, or the population is saturated), the
// other kind runs instead, keeping the process alive in degenerate regimes;
// the fallback is a pure function of simulation state, so determinism holds.
func (c *Churn) step() {
	if c.rng.Float64() < c.cfg.RemoveFrac {
		if !c.removeOne() {
			c.addOne()
		}
	} else if !c.addOne() {
		c.removeOne()
	}
}

// removeOne tears down a uniformly random link among those with both
// endpoints in the population. Candidate enumeration walks the population in
// ascending id order over each node's sorted adjacency segment, so the
// candidate list — and hence the pick — is deterministic.
func (c *Churn) removeOne() bool {
	edges := c.edgeScratch[:0]
	for _, id := range c.pop {
		nd := c.net.node(id)
		if nd == nil {
			continue
		}
		for _, pid := range nd.peersSeg() {
			if id < pid && int(pid) < len(c.member) && c.member[pid] {
				edges = append(edges, [2]types.NodeID{id, pid})
			}
		}
	}
	c.edgeScratch = edges
	if len(edges) == 0 {
		return false
	}
	e := edges[c.rng.Intn(len(edges))]
	c.net.Disconnect(e[0], e[1])
	c.record(ChurnEvent{At: c.net.Now(), A: e[0], B: e[1], Added: false})
	return true
}

// addOne links a random unconnected population pair, respecting peer
// capacity. Rejection-samples a bounded number of times; a saturated or
// near-clique population can make all tries fail, which reports false
// rather than looping unboundedly.
func (c *Churn) addOne() bool {
	for try := 0; try < 16; try++ {
		a := c.pop[c.rng.Intn(len(c.pop))]
		b := c.pop[c.rng.Intn(len(c.pop))]
		if a == b || c.net.Connected(a, b) {
			continue
		}
		na, nb := c.net.node(a), c.net.node(b)
		if na == nil || nb == nil || na.AtCapacity() || nb.AtCapacity() {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if err := c.net.Connect(a, b); err != nil {
			continue
		}
		c.record(ChurnEvent{At: c.net.Now(), A: a, B: b, Added: true})
		return true
	}
	return false
}

func (c *Churn) record(ev ChurnEvent) {
	c.events = append(c.events, ev)
	if c.OnEvent != nil {
		c.OnEvent(ev)
	}
}

package core

import (
	"sort"

	"toposhot/internal/ethsim"
	"toposhot/internal/gossip"
	"toposhot/internal/types"
)

// Vantage is the measurement node M as a probe sees it: a clock, an uplink
// to its peers, and the log of what its peers showed it. The measurer and
// every strategy in internal/strategy see the network through it alone. The
// simulator's supernode implements it on virtual time, node.Vantage on wall
// time.
//
// The log is bounded by two rules:
//   - Watch: a hash is logged only while it is watched, and it becomes
//     watched when M sends it with Inject — before the send, so not even a
//     loopback echo is missed. InjectRuns watches nothing: no probe reads a
//     future back. In the simulator the watch set is the network's, so
//     every supernode on it (Preprocess's monitor too) logs M's probes.
//   - Retire: each probe calls Retire when it begins, which unwatches every
//     hash and drops every log entry. A probe therefore reads only hashes it
//     injected itself, with a since taken after its own Retire.
type Vantage interface {
	// Now returns M's clock in seconds.
	Now() float64
	// Wait lets d seconds pass.
	Wait(d float64)
	// WaitDrained waits until every queued injection has left M, then d
	// seconds more. A negative d instead waits until everything injected has
	// landed in its target's pool: the supernode waits out its delivery
	// bound, the live vantage makes a round trip to each peer injected into.
	WaitDrained(d float64)
	// Inject sends txs to peer `to` as they are, bypassing M's own pool, so
	// futures go out too. It watches every one of them.
	Inject(to types.NodeID, txs ...*types.Transaction) error
	// InjectRuns is Inject for the members of runs, in order. The simulator
	// carries them as runs, so a target's pool builds no member it is not
	// asked for.
	InjectRuns(to types.NodeID, runs ...*types.Run) error
	// Sightings returns every sighting of h at or after since, in arrival
	// order, for reading only. An unwatched hash has none.
	Sightings(h types.Hash, since float64) []gossip.Sighting
	// Retire unwatches every hash and empties the sighting log; a probe
	// calls it first.
	Retire()
	// Peers returns, in a fixed order, the peers a flood can be seeded
	// through.
	Peers() []types.NodeID
	// Holds asks peer id whether it buffers tx (§5.3.1 p2's "proceed only if
	// txA stuck" check). An unanswered question is a no.
	Holds(id types.NodeID, tx *types.Transaction) bool
	// Reaches reports whether M can inject into id at all.
	Reaches(id types.NodeID) bool
	// Hop returns the seconds one relay hop takes, a peer's forwarding
	// delay plus one link: the window within which DEthna attributes a
	// mark's first evidences to one hop.
	Hop() float64
}

var _ Vantage = (*ethsim.Supernode)(nil)

// Verdict classifies one Step-4 observation: whether the proving txA reached
// M exclusively through the sink, and if not, what went wrong.
type Verdict uint8

const (
	// VerdictTimeout: nobody but the sink showed txA, and the sink did not
	// deliver it within the settle window.
	VerdictTimeout Verdict = iota
	// VerdictDetected: the sink delivered txA and nobody else showed it.
	VerdictDetected
	// VerdictIsolationViolated: the sink delivered txA and another peer
	// showed it too, so the observation is discarded (the conservative
	// filter that keeps precision at 100%).
	VerdictIsolationViolated
	// VerdictReplacedElsewhere: only peers other than the sink showed txA.
	VerdictReplacedElsewhere
)

// Detected reports whether the verdict counts as a sound link detection.
func (v Verdict) Detected() bool { return v == VerdictDetected }

// String renders the verdict as its trace-attribute spelling.
func (v Verdict) String() string {
	switch v {
	case VerdictDetected:
		return "detected"
	case VerdictIsolationViolated:
		return "isolation-violated"
	case VerdictReplacedElsewhere:
		return "replaced-elsewhere"
	}
	return "timeout"
}

// VerdictOf is the Step-4 decision over txA's sightings since the plant: the
// sink must have delivered it, and no other peer may have delivered or
// announced it. A lone announcement from the sink is not yet evidence: M
// requests every hash announced to it, so a sink holding txA delivers it one
// round trip later.
func VerdictOf(sink types.NodeID, ss []gossip.Sighting) Verdict {
	fromSink, fromOthers := false, false
	for _, s := range ss {
		if s.Peer != sink {
			fromOthers = true
		} else if s.Pushed {
			fromSink = true
		}
	}
	switch {
	case fromSink && !fromOthers:
		return VerdictDetected
	case fromSink:
		return VerdictIsolationViolated
	case fromOthers:
		return VerdictReplacedElsewhere
	}
	return VerdictTimeout
}

// FirstEvidence reduces sightings to each peer's earliest one, sorted by
// (time, peer); on a tie in time a delivery beats an announcement. DEthna
// ranks these arrivals; Ethna counts their pushes, whose share estimates a
// relay's 1/√d.
func FirstEvidence(ss []gossip.Sighting) []gossip.Sighting {
	first := make(map[types.NodeID]gossip.Sighting)
	for _, s := range ss {
		cur, ok := first[s.Peer]
		if !ok || s.At < cur.At || (s.At == cur.At && s.Pushed && !cur.Pushed) {
			first[s.Peer] = s
		}
	}
	out := make([]gossip.Sighting, 0, len(first))
	for _, s := range first {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Peer < out[j].Peer
	})
	return out
}

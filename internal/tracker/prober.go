package tracker

import (
	"fmt"

	"toposhot/internal/core"
	"toposhot/internal/types"
)

// GroupedProber measures delta-campaign pairs with core.MeasurePar — the
// same grouped replacement/eviction primitive a full census uses, at the
// same per-batch economics (√r sources × √r sinks share the mempool-fill
// cost of a batch of r pairs). Pairs are packed greedily into batches where
// every node holds one role; a pair whose endpoints' roles conflict defers
// to the next batch, so correctness never depends on the input order.
type GroupedProber struct {
	m *core.Measurer
	// MaxPairs caps pairs per MeasurePar call (default 144, the census
	// edge-budget discipline).
	MaxPairs int
}

// maxBatchNodes caps participants per MeasurePar call (24 ≈ 2√144, bounding
// the recall erosion of §5.3.1's group effect).
const maxBatchNodes = 24

// NewGroupedProber wraps a measurer. The measurer keeps its own params,
// tracer, and cost ledger.
func NewGroupedProber(m *core.Measurer) *GroupedProber {
	return &GroupedProber{m: m, MaxPairs: 144}
}

// Measurer returns the underlying measurer (for ledger and tuning access).
func (p *GroupedProber) Measurer() *core.Measurer { return p.m }

// roleSource / roleSink mark a node's assignment within one batch.
const (
	roleNone = iota
	roleSource
	roleSink
)

// ProbePairs implements Prober. Each batch assigns one role per node
// (MeasurePar requires sources ∩ sinks = ∅); setup failures surface as
// Failed results rather than re-probing inline, so the tracker keeps its
// budget accounting exact.
func (p *GroupedProber) ProbePairs(pairs [][2]types.NodeID) ([]ProbeResult, error) {
	results := make([]ProbeResult, len(pairs))
	verdict := make(map[uint64]int, len(pairs)) // pairKey → result slot
	for i, pr := range pairs {
		if pr[0] == pr[1] {
			return nil, fmt.Errorf("tracker: self-pair %v", pr[0])
		}
		if _, dup := verdict[pairKey(pr[0], pr[1])]; dup {
			return nil, fmt.Errorf("tracker: duplicate pair %v-%v in one plan", pr[0], pr[1])
		}
		verdict[pairKey(pr[0], pr[1])] = i
		results[i] = ProbeResult{A: pr[0], B: pr[1], Failed: true}
	}

	remaining := pairs
	deferred := make([][2]types.NodeID, 0, len(pairs))
	for len(remaining) > 0 {
		role := make(map[types.NodeID]int, 2*maxBatchNodes)
		batch := make([]core.Edge, 0, p.MaxPairs)
		deferred = deferred[:0]
		for _, pr := range remaining {
			a, b := pr[0], pr[1]
			ra, rb := role[a], role[b]
			newNodes := 0
			if ra == roleNone {
				newNodes++
			}
			if rb == roleNone {
				newNodes++
			}
			switch {
			case len(batch) >= p.MaxPairs || len(role)+newNodes > maxBatchNodes:
				deferred = append(deferred, pr)
			case ra != roleSink && rb != roleSource:
				role[a], role[b] = roleSource, roleSink
				batch = append(batch, core.Edge{Source: a, Sink: b})
			case ra != roleSource && rb != roleSink:
				role[a], role[b] = roleSink, roleSource
				batch = append(batch, core.Edge{Source: b, Sink: a})
			default:
				deferred = append(deferred, pr)
			}
		}
		if len(batch) == 0 {
			// Cannot happen: an empty role map accepts any pair. Guard anyway
			// so a logic regression fails loudly instead of spinning.
			return nil, fmt.Errorf("tracker: batch packing stalled with %d pairs left", len(remaining))
		}
		res, err := p.m.MeasurePar(batch)
		if err != nil {
			return nil, err
		}
		for _, e := range batch {
			i := verdict[pairKey(e.Source, e.Sink)]
			results[i].Failed = false
			results[i].Present = res.Detected.Has(e.Source, e.Sink)
		}
		for _, e := range res.SetupFailed {
			results[verdict[pairKey(e.Source, e.Sink)]].Failed = true
		}
		remaining = append([][2]types.NodeID(nil), deferred...)
	}
	return results, nil
}

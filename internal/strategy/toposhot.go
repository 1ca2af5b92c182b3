package strategy

import (
	"toposhot/internal/core"
	"toposhot/internal/types"
)

// TopoShot adapts core.Measurer — the paper's replacement/eviction primitive
// — to the strategy interface. It is the reference method: guaranteed
// precision from the isolation verdict, at a per-pair cost of Z future
// transactions per endpoint.
type TopoShot struct {
	m *core.Measurer
}

// NewTopoShot wraps an existing measurer. The measurer keeps its own params,
// tracer, and ledger; the strategy only reframes its API.
func NewTopoShot(m *core.Measurer) *TopoShot { return &TopoShot{m: m} }

// Name implements Strategy.
func (s *TopoShot) Name() string { return "toposhot" }

// Prepare implements Strategy; TopoShot probes per pair, so it only
// validates.
func (s *TopoShot) Prepare(pairs [][2]types.NodeID) error {
	return reachPairs(s.m.Vantage(), pairs)
}

// MeasurePair runs the four-step primitive of §5.2 on the pair.
func (s *TopoShot) MeasurePair(a, b types.NodeID) (Claim, error) {
	ok, err := s.m.MeasureOneLink(a, b)
	if err != nil {
		return Claim{}, err
	}
	if ok {
		return Claim{Detected: true, Verdict: "detected"}, nil
	}
	return Claim{Verdict: "undetected"}, nil
}

// Ledger implements Strategy: the measurer's own account.
func (s *TopoShot) Ledger() *core.Ledger { return s.m.Ledger }

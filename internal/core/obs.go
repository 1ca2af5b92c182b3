package core

import (
	"toposhot/internal/obs"
	"toposhot/internal/types"
)

// Structured event messages the measurement layer emits on its obs scope.
// Like the trace span-name table, keeping these as constants keeps the event
// stream greppable and diffable across runs.
const (
	MsgCampaignStarted = "campaign-started"
	MsgCampaignDone    = "campaign-done"
	MsgBatchDone       = "batch-done"
)

// SetObs binds the measurer to a structured event logger scope and a probe
// cost-attribution ledger, pointing the scope's clock at the vantage's (the
// same contract as SetTracer). Attribution starts at attach: what the
// measurer spent before belongs to no record of costs.
// Experiments that fan out over workers pass each measurer its own
// pre-created scope and its own ledger; sharing either across concurrently
// running engines would destroy the byte-identity guarantee. Both may be nil:
// a nil logger records no events, a nil ledger no cost records.
func (m *Measurer) SetObs(lg *obs.Logger, costs *obs.Ledger) {
	m.olog = lg
	m.costs = costs
	m.Ledger.Cut()
	lg.SetClock(m.v.Now)
}

// Obs returns the measurer's event-log scope (nil when logging is off).
func (m *Measurer) Obs() *obs.Logger { return m.olog }

// SetPhase labels subsequent cost-ledger records with a campaign phase
// ("preprocess", "census", "tick-3", ...), the middle level of the
// per-pair → per-phase → per-campaign aggregation.
func (m *Measurer) SetPhase(p string) { m.phase = p }

// cut returns the account's spend since the last cut, for a record of costs.
// Without a cost ledger there is no record to make, and the account stays
// uncut: its one cutter is then whoever holds it (strategy.RunPairs cuts a
// TopoShot strategy's).
func (m *Measurer) cut() Spend {
	if m.costs == nil {
		return Spend{}
	}
	return m.Ledger.Cut()
}

// recordPairCost appends one pair record: the per-probe "why" line that
// makes a single link inference auditable — what was spent, when, and what
// verdict it bought.
func (m *Measurer) recordPairCost(a, b types.NodeID, s Spend, start float64, verdict string, detected bool) {
	m.costs.Record(obs.ProbeRecord{
		Phase:    m.phase,
		Kind:     obs.KindPair,
		A:        a,
		B:        b,
		Pending:  s.Pending,
		Futures:  s.Futures,
		FeeWei:   s.FeeWei,
		Start:    start,
		End:      m.v.Now(),
		Verdict:  verdict,
		Detected: detected,
	})
}

// recordRoundCost appends one round record carrying the cost shared across a
// MeasurePar batch (the per-participant mempool fills), which no single pair
// owns.
func (m *Measurer) recordRoundCost(s Spend, start float64) {
	m.costs.Record(obs.ProbeRecord{
		Phase:   m.phase,
		Kind:    obs.KindRound,
		Pending: s.Pending,
		Futures: s.Futures,
		FeeWei:  s.FeeWei,
		Start:   start,
		End:     m.v.Now(),
	})
}

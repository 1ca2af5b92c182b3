package core

import (
	"fmt"

	"toposhot/internal/types"
)

// DetectedEdge is one confirmed link with its proving txA hash, in the
// serializable form CampaignState carries.
type DetectedEdge struct {
	A, B types.NodeID
	Via  types.Hash
}

// CampaignState is the resumable progress of a MeasureNetwork campaign,
// captured at a batch boundary. Paired with an ethsim network checkpoint
// taken at the same instant, it lets a killed census resume and finish with
// results identical to an uninterrupted run: the batch plan is re-derived
// deterministically, the measurer's account counter is restored, and
// accumulated detections/cost aggregates carry over. The struct is plain
// data (JSON- or gob-serializable); the caller owns persistence.
type CampaignState struct {
	// BatchesDone counts fully executed plan batches; resume skips them.
	BatchesDone int
	// StartTime is the virtual time the campaign originally began, so the
	// final Duration spans the whole campaign, not just the resumed tail.
	StartTime float64
	// AcctSeq is the measurer's fresh-account counter: measurement accounts
	// must keep minting from where the original run stopped.
	AcctSeq uint64

	Iterations    int
	Calls         int
	SetupFails    int
	PairsMeasured int

	// Detected holds every confirmed edge so far with its proving hash,
	// sorted by (A, B) for deterministic serialization.
	Detected []DetectedEdge

	// Ledger aggregates: whole-campaign cost totals up to the checkpoint.
	LedgerPending  int
	LedgerFutures  int
	LedgerWorstWei float64
}

// captureCampaignState snapshots the campaign after `done` batches.
func (m *Measurer) captureCampaignState(done int, start float64, out *ScheduleResult) *CampaignState {
	st := &CampaignState{
		BatchesDone:    done,
		StartTime:      start,
		AcctSeq:        m.acctSeq,
		Iterations:     out.Iterations,
		Calls:          out.Calls,
		SetupFails:     out.SetupFails,
		PairsMeasured:  out.PairsMeasured,
		LedgerPending:  m.Ledger.PendingCount(),
		LedgerFutures:  m.Ledger.FutureCount(),
		LedgerWorstWei: m.Ledger.WorstCaseWei(),
	}
	for _, e := range out.Detected.Edges() {
		st.Detected = append(st.Detected, DetectedEdge{A: e[0], B: e[1], Via: out.DetectedVia[e]})
	}
	return st
}

// applyCampaignState loads a saved campaign into the measurer and the
// accumulating result.
func (m *Measurer) applyCampaignState(st *CampaignState, planLen int, out *ScheduleResult) error {
	if st.BatchesDone < 0 || st.BatchesDone > planLen {
		return fmt.Errorf("core: campaign state has %d batches done, plan has %d", st.BatchesDone, planLen)
	}
	m.acctSeq = st.AcctSeq
	m.Ledger.RestoreAggregates(st.LedgerPending, st.LedgerFutures, st.LedgerWorstWei)
	out.Iterations = st.Iterations
	out.Calls = st.Calls
	out.SetupFails = st.SetupFails
	out.PairsMeasured = st.PairsMeasured
	for _, de := range st.Detected {
		out.Detected.Add(de.A, de.B)
		out.DetectedVia[norm(de.A, de.B)] = de.Via
	}
	return nil
}

package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"

	"toposhot/internal/trace"
	"toposhot/internal/types"
)

// The cost-attribution ledger answers the paper's cost question — "what did
// this inference cost, and where did it go?" — at three granularities:
// per-record (one pair probe, one strategy/measurement round, one tracker
// tick), per-phase, and per-campaign. Unlike core.Ledger, which prices the
// worst case of everything a measurer ever minted, this ledger attributes
// each transaction and fee unit to the probe that spent it and the verdict
// it bought, making individual link inferences auditable.
//
// Records are appended in engine emission order, which is deterministic for
// a single engine at any -lanes width; campaigns that fan out across engines
// (experiments sweeps) use one ledger per replica, never a shared one, so
// every ledger's byte serialization is same-seed reproducible.

// Record kinds. A pair record attributes cost to one (A,B) link probe; a
// round record carries cost shared across a batch (futures in a MeasurePar
// call, a strategy Prepare); a tick record summarizes one tracker tick.
const (
	KindPair  = "pair"
	KindRound = "round"
	KindTick  = "tick"
)

// Verdicts carried by pair records beyond the measurement outcome strings.
const (
	VerdictSetupFailed = "setup-failed"
)

// ProbeRecord is one ledger entry. Pending/Futures count transactions in
// the core.Ledger sense; FeeWei is the worst-case replacement-fee exposure
// of this record's transactions (gas × gas price, summed in emission
// order); Start/End are engine virtual seconds.
type ProbeRecord struct {
	Phase    string       `json:"phase,omitempty"`
	Kind     string       `json:"kind"`
	A        types.NodeID `json:"a,omitempty"`
	B        types.NodeID `json:"b,omitempty"`
	Pending  int          `json:"pending,omitempty"`
	Futures  int          `json:"futures,omitempty"`
	FeeWei   float64      `json:"fee_wei,omitempty"`
	Start    float64      `json:"start"`
	End      float64      `json:"end"`
	Verdict  string       `json:"verdict,omitempty"`
	Detected bool         `json:"detected,omitempty"`
}

// CostTotals is an aggregation over ledger records.
type CostTotals struct {
	Records  int     `json:"records"`
	Pairs    int     `json:"pairs"`
	Detected int     `json:"detected"`
	Pending  int     `json:"pending"`
	Futures  int     `json:"futures"`
	FeeWei   float64 `json:"fee_wei"`
}

// Txs is the total transaction count (pending + future).
func (t CostTotals) Txs() int { return t.Pending + t.Futures }

// FeeEther converts the worst-case fee exposure to ether.
func (t CostTotals) FeeEther() float64 { return t.FeeWei / 1e18 }

func (t *CostTotals) add(r *ProbeRecord) {
	t.Records++
	if r.Kind == KindPair {
		t.Pairs++
		if r.Detected {
			t.Detected++
		}
	}
	t.Pending += r.Pending
	t.Futures += r.Futures
	t.FeeWei += r.FeeWei
}

// PhaseCost is one phase's aggregated cost, in first-appearance order.
type PhaseCost struct {
	Phase string `json:"phase"`
	CostTotals
}

// Ledger is an append-only, concurrency-safe probe cost ledger. The zero
// value is NOT usable; construct with NewLedger. All methods are no-ops on a
// nil *Ledger, so instrumentation points never guard.
type Ledger struct {
	mu   sync.Mutex
	recs []ProbeRecord
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Record appends one entry.
func (l *Ledger) Record(r ProbeRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.recs = append(l.recs, r)
	l.mu.Unlock()
}

// Len returns the number of records.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// Records returns a copy of the entries in emission order.
func (l *Ledger) Records() []ProbeRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]ProbeRecord(nil), l.recs...)
}

// Totals aggregates the whole ledger (the per-campaign view).
func (l *Ledger) Totals() CostTotals {
	var t CostTotals
	if l == nil {
		return t
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.recs {
		t.add(&l.recs[i])
	}
	return t
}

// ByPhase aggregates per phase, phases ordered by first appearance in the
// record stream (never by map iteration), so the result is deterministic.
func (l *Ledger) ByPhase() []PhaseCost {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []PhaseCost
	idx := make(map[string]int)
	for i := range l.recs {
		r := &l.recs[i]
		j, ok := idx[r.Phase]
		if !ok {
			j = len(out)
			idx[r.Phase] = j
			out = append(out, PhaseCost{Phase: r.Phase})
		}
		out[j].add(r)
	}
	return out
}

// WriteJSONL writes the ledger as JSON Lines, one record per line, in
// emission order. Byte-deterministic for same-seed runs.
func (l *Ledger) WriteJSONL(w io.Writer) error {
	if l == nil {
		return nil
	}
	recs := l.Records()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadLedgerJSONL parses a WriteJSONL stream back into a ledger.
func ReadLedgerJSONL(r io.Reader) (*Ledger, error) {
	out := NewLedger()
	err := trace.ScanJSONL(r, "obs: ledger", func(rec *ProbeRecord) error {
		out.recs = append(out.recs, *rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

package strategy

import (
	"fmt"

	"toposhot/internal/core"
	"toposhot/internal/ethsim"
	"toposhot/internal/obs"
	"toposhot/internal/trace"
	"toposhot/internal/types"
)

// Ledger phases a campaign attributes cost to: transactions inherited from
// work before the campaign (a census the strategy's measurer already ran),
// the Prepare call, and the per-pair probes.
const (
	PhaseCarried = "carried"
	PhasePrepare = "prepare"
	PhaseProbe   = "probe"
)

// Method names one built-in strategy.
type Method string

// The built-in methods, in their canonical comparison order.
const (
	MethodTopoShot Method = "toposhot"
	MethodDEthna   Method = "dethna"
	MethodTxProbe  Method = "txprobe"
	MethodEthna    Method = "ethna"
)

// Methods returns the built-in methods in canonical order.
func Methods() []Method {
	return []Method{MethodTopoShot, MethodDEthna, MethodTxProbe, MethodEthna}
}

// Config carries per-method tuning for NewMethod and NewMethodAt. The zero
// value of any field keeps that method's default.
type Config struct {
	// Params is the parameter set every method reads (zero X → core
	// defaults): TopoShot measures with it, TxProbe waits X and then
	// SettleTime, DEthna and Ethna watch each transaction X/4.
	Params core.Params
	// EthnaSamples overrides the number of Ethna's flooded samples.
	EthnaSamples int
}

// NewMethod builds one strategy on a simulated network, probing through its
// supernode. TopoShot's measurer also holds the network, whose supernode's
// shadow pool it estimates Y from. Strategies built on the same network share its pools and virtual clock —
// run them sequentially, or on independent same-seed networks for a clean
// comparison.
func NewMethod(m Method, net *ethsim.Network, super *ethsim.Supernode, cfg Config) (Strategy, error) {
	if m == MethodTopoShot {
		return NewTopoShot(core.NewMeasurer(net, super, cfg.Params)), nil
	}
	return NewMethodAt(m, super, cfg)
}

// NewMethodAt builds one strategy probing through vantage v.
func NewMethodAt(m Method, v core.Vantage, cfg Config) (Strategy, error) {
	p := cfg.Params
	if p.X == 0 {
		p = core.DefaultParams()
	}
	switch m {
	case MethodTopoShot:
		return NewTopoShot(core.NewMeasurerAt(v, p)), nil
	case MethodTxProbe:
		return NewTxProbe(v, p), nil
	case MethodDEthna:
		return NewDEthna(v, p), nil
	case MethodEthna:
		e := NewEthna(v, p)
		if cfg.EthnaSamples > 0 {
			e.Samples = cfg.EthnaSamples
		}
		return e, nil
	}
	return nil, fmt.Errorf("strategy: unknown method %q", m)
}

// PairVerdict is one pair's claim, in campaign input order.
type PairVerdict struct {
	A, B  types.NodeID
	Claim Claim
}

// Outcome summarizes one strategy's campaign over a pair list.
type Outcome struct {
	Method string
	// Claimed holds the pairs the strategy asserted as links.
	Claimed *core.EdgeSet
	// Verdicts records every pair's claim in input order.
	Verdicts []PairVerdict
	// Cost is the strategy's probe-transaction tally after the campaign.
	Cost Cost
	// Ledger attributes that tally: one record per pair probe (with its
	// verdict), plus round records for Prepare and any cost carried in from
	// before the campaign. Its totals telescope back to exactly Cost.
	Ledger *obs.Ledger
	// VirtualSeconds is the time the campaign consumed on its clock:
	// virtual on the simulator, wall time on a live vantage.
	VirtualSeconds float64
}

// RunPairs drives one strategy over a pair list: refuse self-pairs, Prepare
// (which refuses pairs the strategy's vantage cannot reach), then MeasurePair
// each pair in order, recording a campaign span with one probe span (and
// verdict attribute) per pair. clock, the vantage or the network, stamps the
// event log and times the ledger. Cost accounting is built by delta:
// s.Cost() is sampled around Prepare and around every probe, and each delta
// lands as one ledger record, so the final ledger aggregation telescopes to
// exactly the strategy's own tally. tr may be nil (tracing off) and lg may
// be nil (event logging off); the ledger is always built. Campaigns that fan
// out over workers pass each worker its own pre-created lg scope.
func RunPairs(tr *trace.Tracer, lg *obs.Logger, clock interface{ Now() float64 }, s Strategy, pairs [][2]types.NodeID) (*Outcome, error) {
	for _, pr := range pairs {
		if pr[0] == pr[1] {
			return nil, fmt.Errorf("strategy: self-pair %v", pr[0])
		}
	}
	lg.SetClock(clock.Now)
	span := tr.StartSpan(SpanCampaign,
		trace.String(AttrMethod, s.Name()), trace.Int(attrPairs, int64(len(pairs))))
	defer span.End()
	lg.Info(core.MsgCampaignStarted,
		obs.String("method", s.Name()), obs.Int("pairs", int64(len(pairs))),
		obs.Int("span", int64(span.ID())))
	led := obs.NewLedger()
	start := clock.Now()
	prev := s.Cost()
	if prev.Total() > 0 {
		// Cost the strategy accrued before this campaign (a census already
		// run on its measurer) is attributed, not silently folded into the
		// first probe.
		led.Record(obs.ProbeRecord{Phase: PhaseCarried, Kind: obs.KindRound,
			Pending: prev.PendingTxs, Futures: prev.FutureTxs, Start: start, End: start})
	}
	if err := s.Prepare(pairs); err != nil {
		return nil, err
	}
	if c := s.Cost(); c != prev {
		led.Record(obs.ProbeRecord{Phase: PhasePrepare, Kind: obs.KindRound,
			Pending: c.PendingTxs - prev.PendingTxs, Futures: c.FutureTxs - prev.FutureTxs,
			Start: start, End: clock.Now()})
		prev = c
	}
	out := &Outcome{
		Method:   s.Name(),
		Claimed:  core.NewEdgeSet(),
		Verdicts: make([]PairVerdict, 0, len(pairs)),
	}
	for _, pr := range pairs {
		ps := tr.StartSpan(SpanProbe,
			trace.String(AttrMethod, s.Name()),
			trace.Int(attrNodeA, int64(pr[0])), trace.Int(attrNodeB, int64(pr[1])))
		probeStart := clock.Now()
		c, err := s.MeasurePair(pr[0], pr[1])
		if err != nil {
			ps.End()
			return nil, err
		}
		ps.SetAttr(trace.String(AttrVerdict, c.Verdict))
		ps.End()
		cost := s.Cost()
		led.Record(obs.ProbeRecord{Phase: PhaseProbe, Kind: obs.KindPair,
			A: pr[0], B: pr[1],
			Pending: cost.PendingTxs - prev.PendingTxs, Futures: cost.FutureTxs - prev.FutureTxs,
			Start: probeStart, End: clock.Now(), Verdict: c.Verdict, Detected: c.Detected})
		prev = cost
		if c.Detected {
			out.Claimed.Add(pr[0], pr[1])
		}
		out.Verdicts = append(out.Verdicts, PairVerdict{A: pr[0], B: pr[1], Claim: c})
	}
	out.Cost = s.Cost()
	out.Ledger = led
	out.VirtualSeconds = clock.Now() - start
	span.SetAttr(trace.Int(attrClaimed, int64(out.Claimed.Len())))
	lg.Info(core.MsgCampaignDone,
		obs.String("method", s.Name()), obs.Int("claimed", int64(out.Claimed.Len())),
		obs.Int("pending_txs", int64(out.Cost.PendingTxs)), obs.Int("future_txs", int64(out.Cost.FutureTxs)),
		obs.Float("virtual_s", out.VirtualSeconds))
	return out, nil
}

// Score compares the outcome against ground truth restricted to the measured
// pairs — the strategy is only accountable for what it was asked about.
func (o *Outcome) Score(truth *core.EdgeSet) core.Score {
	measuredTruth := core.NewEdgeSet()
	for _, v := range o.Verdicts {
		if truth.Has(v.A, v.B) {
			measuredTruth.Add(v.A, v.B)
		}
	}
	return core.ScoreAgainst(o.Claimed, measuredTruth, nil)
}

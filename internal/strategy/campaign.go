package strategy

import (
	"fmt"

	"toposhot/internal/core"
	"toposhot/internal/ethsim"
	"toposhot/internal/obs"
	"toposhot/internal/trace"
	"toposhot/internal/types"
)

// Ledger phases a campaign attributes cost to: the Prepare call and the
// per-pair probes.
const (
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

// Outcome summarizes one strategy's campaign over a pair list. Each pair's
// claim is on its probe span and its ledger record.
type Outcome struct {
	// Pairs is the campaign's pair list, in input order.
	Pairs [][2]types.NodeID
	// Claimed holds the pairs the strategy asserted as links.
	Claimed *core.EdgeSet
	// Ledger is the campaign's cost journal: a round record for what
	// Prepare spent and one record per pair probe (with its verdict), each
	// a Cut of the strategy's account, so its totals are what the campaign
	// recorded there.
	Ledger *obs.Ledger
	// VirtualSeconds is the time the campaign consumed on its clock:
	// virtual on the simulator, wall time on a live vantage.
	VirtualSeconds float64
}

// RunPairs drives one strategy over a pair list: refuse self-pairs, Prepare
// (which refuses pairs the strategy's vantage cannot reach), then MeasurePair
// each pair in order, recording a campaign span with one probe span (and
// verdict attribute) per pair. clock, the vantage or the network, stamps the
// event log and times the ledger. Cost is attributed by cutting the
// strategy's account (s.Ledger) after Prepare and after every probe, each
// cut one journal record; a cut at the start discards what was spent before
// the campaign. RunPairs is the account's one cutter: a TopoShot measurer
// cuts only when it holds a journal of its own, which NewMethod's does not.
// tr may be nil (tracing off) and lg may be nil (event logging off); the
// journal is always built. Campaigns that fan out over workers pass each
// worker its own pre-created lg scope.
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
	acct := s.Ledger()
	acct.Cut()
	if err := s.Prepare(pairs); err != nil {
		return nil, err
	}
	if sp := acct.Cut(); sp != (core.Spend{}) {
		led.Record(obs.ProbeRecord{Phase: PhasePrepare, Kind: obs.KindRound,
			Pending: sp.Pending, Futures: sp.Futures, FeeWei: sp.FeeWei,
			Start: start, End: clock.Now()})
	}
	out := &Outcome{Pairs: pairs, Claimed: core.NewEdgeSet()}
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
		sp := acct.Cut()
		led.Record(obs.ProbeRecord{Phase: PhaseProbe, Kind: obs.KindPair,
			A: pr[0], B: pr[1], Pending: sp.Pending, Futures: sp.Futures, FeeWei: sp.FeeWei,
			Start: probeStart, End: clock.Now(), Verdict: c.Verdict, Detected: c.Detected})
		if c.Detected {
			out.Claimed.Add(pr[0], pr[1])
		}
	}
	out.Ledger = led
	out.VirtualSeconds = clock.Now() - start
	span.SetAttr(trace.Int(attrClaimed, int64(out.Claimed.Len())))
	tot := led.Totals()
	lg.Info(core.MsgCampaignDone,
		obs.String("method", s.Name()), obs.Int("claimed", int64(out.Claimed.Len())),
		obs.Int("pending_txs", int64(tot.Pending)), obs.Int("future_txs", int64(tot.Futures)),
		obs.Float("virtual_s", out.VirtualSeconds))
	return out, nil
}

// Score compares the outcome against ground truth restricted to the measured
// pairs — the strategy is only accountable for what it was asked about.
func (o *Outcome) Score(truth *core.EdgeSet) core.Score {
	measuredTruth := core.NewEdgeSet()
	for _, pr := range o.Pairs {
		if truth.Has(pr[0], pr[1]) {
			measuredTruth.Add(pr[0], pr[1])
		}
	}
	return core.ScoreAgainst(o.Claimed, measuredTruth, nil)
}

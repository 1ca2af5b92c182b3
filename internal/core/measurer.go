// Package core implements TopoShot: active-link inference for Ethereum
// networks via transaction replacement and eviction (§5 of the paper).
//
// The package provides the pair-wise measurement primitive (MeasureOneLink),
// the parallel primitive (MeasurePar), the two-round whole-network schedule
// (MeasureNetwork), the pre-processing phase that handles non-default remote
// nodes, the workload-adaptive non-interference extension for mainnet-grade
// ethics (Appendix C), and precision/recall scoring against ground truth.
package core

import (
	"fmt"

	"toposhot/internal/ethsim"
	"toposhot/internal/metrics"
	"toposhot/internal/obs"
	"toposhot/internal/stats"
	"toposhot/internal/trace"
	"toposhot/internal/types"
)

// Span and event names recorded by the measurement layer. The trace-spanname
// lint rule requires every StartSpan/Event name to be one of these constants,
// keeping the name table stable so traces stay diffable across runs.
const (
	// SpanOneLink wraps one MeasureOneLink primitive; children below are the
	// paper's phases (§5.2).
	SpanOneLink   = "measure-one-link"
	spanEstimateY = "estimateY"
	spanSendTxC   = "send-txC"
	spanWaitX     = "wait-X"
	spanEvictZ    = "evict-Z"
	spanPlantTxB  = "plant-txB"
	spanPlantTxA  = "plant-txA"
	spanDrain     = "drain"
	spanDecide    = "decide"
	spanVerifyRPC = "verify-eviction"
	// SpanPar wraps one MeasurePar group; SpanNetwork one whole-network
	// schedule; SpanSerial the all-pairs serial baseline.
	SpanPar         = "measure-par"
	SpanNetwork     = "measure-network"
	SpanSerial      = "measure-all-pairs"
	spanSinkSetup   = "sink-setup"
	spanSourceSetup = "source-setup"

	evSetupFailed = "setup-failed"
)

// Attribute keys used on measurement spans.
const (
	// AttrVerdict carries the Step-4 classification (Verdict.String):
	// detected, timeout, isolation-violated, or replaced-elsewhere.
	AttrVerdict  = "verdict"
	attrNodeA    = "a"
	attrNodeB    = "b"
	attrNode     = "node"
	attrY        = "y"
	attrZ        = "z"
	attrRepeat   = "repeat"
	attrEdges    = "edges"
	attrNodes    = "nodes"
	attrK        = "k"
	attrDetected = "detected"
	attrFailed   = "setup_failed"
)

// Params configures the measurement primitive measureOneLink(A,B,X,Y,Z,R,U).
type Params struct {
	// X is the seconds Step 1 waits for txC to flood the network (10, the
	// paper's value, by default).
	X float64
	// Y is txC's gas price in Wei. Zero means "estimate": the median pending
	// price in the measurement node's own mempool (§5.2.1).
	Y uint64
	// Z is the number of future transactions used to fill a target's
	// mempool (the Geth default capacity, 5120).
	Z int
	// BumpMil is the target client's replacement threshold R in thousandths
	// (Geth: 100 = 10%).
	BumpMil uint64
	// U is the per-account future allowance of the target client; futures
	// are spread over ⌈Z/U⌉ accounts.
	U int
	// SettleTime is the Step-4 wait for txA to cross A→B→M.
	SettleTime float64
	// DynamicFeeTip, when non-zero, makes every measurement transaction an
	// EIP-1559 dynamic-fee transaction: the prices above become fee caps and
	// this value the priority fee. A near-zero tip keeps miners away from
	// the measurement transactions even when their caps sit far above the
	// base fee (Appendix E's "max fee above base fee" requirement without
	// inclusion pressure).
	DynamicFeeTip uint64
	// InterNodeWait paces MeasurePar's per-node setups: after injecting one
	// node's future/plant stream, the measurer waits this many seconds
	// before starting the next node. A negative value (the default) waits
	// out the full latency cap — fully serializing setups, which preserves
	// isolation exactly. Small positive values measure faster but let
	// straggling deliveries from one node's setup interleave with the
	// next's; this interference grows with group size and is the mechanism
	// behind Figure 4b's recall decay.
	InterNodeWait float64
}

// DefaultParams returns the paper's Geth-default configuration.
func DefaultParams() Params {
	return Params{
		X:             10,
		Z:             5120,
		BumpMil:       100,
		U:             4096,
		SettleTime:    6,
		InterNodeWait: -1,
	}
}

// PriceTxC returns txC's price (Y).
func (p Params) PriceTxC(y uint64) uint64 { return y }

// PriceFuture returns the future transactions' price (1+R)·Y, nudged one Wei
// above the threshold so they strictly outbid txC for eviction.
func (p Params) PriceFuture(y uint64) uint64 {
	return y*(1000+p.BumpMil)/1000 + 1
}

// PriceTxA returns txA's price (1+R/2)·Y.
func (p Params) PriceTxA(y uint64) uint64 {
	return y * (1000 + p.BumpMil/2) / 1000
}

// PriceTxB returns txB's price (1−R/2)·Y.
func (p Params) PriceTxB(y uint64) uint64 {
	return y * (1000 - p.BumpMil/2) / 1000
}

// Measurer runs TopoShot measurements. Every probe step of MeasureOneLink,
// MeasurePar and the schedules built on them goes through M's Vantage, so one
// probe runs over the simulator and over live TCP alike. Preprocess adds a
// monitor node and reads simulator state: it needs the network handle only
// NewMeasurer keeps.
type Measurer struct {
	v      Vantage
	net    *ethsim.Network
	params Params

	// acctSeq mints fresh measurement accounts in the SpaceTopoShot account
	// space, disjoint from workload accounts and every other strategy's
	// senders (see types.NamespacedAddress).
	acctSeq uint64

	// entryCandidates caches the vantage's Peers for the duration of one
	// MeasureNetwork run; nil means read them fresh on every MeasurePar call.
	entryCandidates []types.NodeID
	failed          error // first injection failure; see inject

	// Ledger accumulates cost accounting.
	Ledger *Ledger

	// tracer records measurement spans; nil no-ops every call.
	tracer *trace.Tracer

	// repeatIdx is the current MeasureLinkRepeated iteration, carried as the
	// repeat attr on SpanOneLink.
	repeatIdx int

	// metrics holds the campaign instruments; its zero value is a no-op.
	metrics measureMetrics

	// olog is the structured event-log scope (nil no-ops every call) and
	// costs the probe cost-attribution ledger (nil records nothing); phase
	// labels ledger records with the current campaign phase. See SetObs.
	olog  *obs.Logger
	costs *obs.Ledger
	phase string
}

// NewMeasurer wires a measurer to a simulated network through its supernode.
func NewMeasurer(net *ethsim.Network, super *ethsim.Supernode, params Params) *Measurer {
	m := NewMeasurerAt(super, params)
	m.net = net
	return m
}

// NewMeasurerAt wires a measurer to a vantage. A zero X selects
// DefaultParams.
func NewMeasurerAt(v Vantage, params Params) *Measurer {
	if params.X == 0 {
		params = DefaultParams()
	}
	m := &Measurer{
		v:      v,
		params: params,
		Ledger: NewLedger(),
	}
	if r := metrics.Enabled(); r != nil {
		m.SetMetrics(r)
	}
	if tr := trace.Enabled(); tr != nil {
		m.SetTracer(tr)
	}
	// The process-default logger wires events only, never a ledger: cost
	// ledgers are per-campaign artifacts that callers attach explicitly via
	// SetObs, so a default-enabled logger can't silently share one across
	// concurrently running engines.
	if lg := obs.Enabled(); lg != nil {
		m.olog = lg
	}
	return m
}

// SetTracer binds the measurer to a trace lane and points the lane's clock at
// the vantage's. Experiments that fan out over workers pass each measurer its
// own pre-created lane; the default wiring (trace.Enabled) puts a lone
// measurer on the root lane. Passing nil disables tracing.
func (m *Measurer) SetTracer(t *trace.Tracer) {
	m.tracer = t
	t.SetClock(m.v.Now)
}

// Params returns the measurer's configuration.
func (m *Measurer) Params() Params { return m.params }

// SetParams replaces the configuration.
func (m *Measurer) SetParams(p Params) { m.params = p }

// Vantage returns the vantage the measurer probes through.
func (m *Measurer) Vantage() Vantage { return m.v }

// freshAccount mints a measurement account never seen by the network.
func (m *Measurer) freshAccount() types.Address {
	m.acctSeq++
	return types.NamespacedAddress(types.SpaceTopoShot, m.acctSeq)
}

// EstimateY implements the paper's workload-adaptive pricing: rank the
// pending transactions in M's own (standard-policy) mempool by gas price
// and take the median (§5.2.1). The pool is the vantage's PendingPriceView
// when it has one (the supernode's shadow pool, also through a wrapper). It
// falls back to 0.1 Gwei on an empty pool, and over a live vantage, which
// keeps no estimation pool.
func (m *Measurer) EstimateY() uint64 {
	var prices []uint64
	if pv, ok := m.v.(interface{ PendingPriceView() []uint64 }); ok {
		prices = pv.PendingPriceView()
	}
	if len(prices) == 0 {
		return types.Gwei / 10
	}
	return stats.MedianUint64(prices)
}

// resolveY returns the configured or estimated txC price.
func (m *Measurer) resolveY() uint64 {
	y := m.params.Y
	if y == 0 {
		y = m.EstimateY()
	}
	m.metrics.yWei.Set(int64(y))
	return y
}

// futureRuns mints a fill: z future transactions at the given price as
// ⌈z/U⌉ runs, one per fresh account, of nonces 1..U (the nonce-0 gap stays
// open, so they can never turn pending). Each member pays a fresh recipient:
// the account counter moves as if mintTx had built every member, and every
// later account is the one it always was.
func (m *Measurer) futureRuns(z int, price uint64) []*types.Run {
	u := max(m.params.U, 1)
	var runs []*types.Run
	for ; z > 0; z -= u {
		r := &types.Run{From: m.freshAccount(), Nonce: 1, Count: min(z, u), Price: price,
			Tip: m.params.DynamicFeeTip, ToSpace: types.SpaceTopoShot, ToSeq: m.acctSeq + 1}
		m.acctSeq += uint64(r.Count)
		runs = append(runs, r)
	}
	return runs
}

// mintTx builds one nonce-0 measurement transaction at the given fee level,
// dynamic-fee when the params ask for it.
func (m *Measurer) mintTx(from types.Address, price uint64) *types.Transaction {
	to := m.freshAccount()
	if m.params.DynamicFeeTip > 0 {
		return types.NewDynamicFeeTransaction(from, to, 0, price, m.params.DynamicFeeTip, 0)
	}
	return types.NewTransaction(from, to, 0, price, 0)
}

// MeasureOneLink runs the four-step primitive of §5.2 against target nodes
// a and b and reports whether an active link a→b was detected. The
// measurement is directional in mechanics (txA planted on a, txB on b) but
// detects the undirected link.
func (m *Measurer) MeasureOneLink(a, b types.NodeID) (bool, error) {
	if a == b {
		return false, fmt.Errorf("core: cannot measure self-link %v", a)
	}
	if !m.v.Reaches(a) || !m.v.Reaches(b) {
		return false, fmt.Errorf("core: unknown target %v or %v", a, b)
	}
	m.v.Retire()
	probeStart := m.v.Now()
	span := m.tracer.StartSpan(SpanOneLink,
		trace.Int(attrNodeA, int64(a)), trace.Int(attrNodeB, int64(b)),
		trace.Int(attrRepeat, int64(m.repeatIdx)))
	defer span.End()

	ys := m.tracer.StartSpan(spanEstimateY)
	y := m.resolveY()
	ys.End()
	span.SetAttr(trace.Int(attrY, int64(y)))
	acctC := m.freshAccount()

	// Step 1: plant txC on A and let it flood the network for X seconds.
	sc := m.tracer.StartSpan(spanSendTxC)
	txC := m.mintTx(acctC, m.params.PriceTxC(y))
	m.Ledger.RecordPending(txC)
	m.inject(a, txC)
	sc.End()
	wx := m.tracer.StartSpan(spanWaitX)
	m.v.Wait(m.params.X)
	wx.End()

	// Step 2: fill B with futures (evicting txC there), then plant txB.
	ev := m.tracer.StartSpan(spanEvictZ,
		trace.Int(attrNode, int64(b)), trace.Int(attrZ, int64(m.params.Z)))
	m.fill(b, y)
	ev.End()
	pb := m.tracer.StartSpan(spanPlantTxB)
	txB := m.mintTx(acctC, m.params.PriceTxB(y))
	txB.To = txC.To
	m.Ledger.RecordPending(txB)
	m.inject(b, txB)
	pb.End()
	dr := m.tracer.StartSpan(spanDrain)
	m.v.WaitDrained(-1)
	dr.End()

	// Step 3: same on A, planting txA.
	ev = m.tracer.StartSpan(spanEvictZ,
		trace.Int(attrNode, int64(a)), trace.Int(attrZ, int64(m.params.Z)))
	m.fill(a, y)
	ev.End()
	pa := m.tracer.StartSpan(spanPlantTxA)
	txA := m.mintTx(acctC, m.params.PriceTxA(y))
	txA.To = txC.To
	m.Ledger.RecordPending(txA)
	checkFrom := m.v.Now()
	m.inject(a, txA)
	pa.End()
	dr = m.tracer.StartSpan(spanDrain)
	m.v.WaitDrained(-1)
	dr.End()

	// Step 4: does M receive txA from B — and only from B? Receiving txA
	// from any other peer means isolation broke; the observation is
	// discarded, trading recall for the guaranteed 100% precision.
	dc := m.tracer.StartSpan(spanDecide)
	m.v.Wait(m.params.SettleTime)
	verdict := VerdictOf(b, m.v.Sightings(txA.Hash(), checkFrom))
	detected := verdict.Detected()
	dc.SetAttr(trace.String(AttrVerdict, verdict.String()))
	dc.End()
	span.SetAttr(trace.String(AttrVerdict, verdict.String()))
	// One ledger line per probe: everything it recorded — txC/txB/txA and
	// both endpoints' eviction futures, fees in emission order.
	m.recordPairCost(a, b, m.Ledger.Cut(), probeStart, verdict.String(), detected)
	m.metrics.oneLinks.Inc()
	m.metrics.edgesMeasured.Inc()
	if detected {
		m.metrics.edgesDetected.Inc()
	}
	if err := m.injectErr(); err != nil {
		return false, err
	}
	return detected, nil
}

// MeasureLinkRepeated runs the primitive `repeats` times and ORs the
// results — the passive recall-improvement heuristic of §5.2.3.
func (m *Measurer) MeasureLinkRepeated(a, b types.NodeID, repeats int) (bool, error) {
	if repeats < 1 {
		repeats = 1
	}
	defer func() { m.repeatIdx = 0 }()
	for i := 0; i < repeats; i++ {
		m.repeatIdx = i
		ok, err := m.MeasureOneLink(a, b)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// inject sends txs through the vantage, keeping the first failure for
// injectErr: a probe runs to its end, then reports it instead of a verdict.
func (m *Measurer) inject(to types.NodeID, txs ...*types.Transaction) {
	m.keepErr(m.v.Inject(to, txs...))
}

// fill mints, records and injects target's mempool fill at txC price y,
// keeping a failure as inject does.
func (m *Measurer) fill(target types.NodeID, y uint64) {
	runs := m.futureRuns(m.params.Z, m.params.PriceFuture(y))
	m.Ledger.RecordFutures(runs)
	m.keepErr(m.v.InjectRuns(target, runs...))
}

// keepErr keeps err if it is the first injection failure since injectErr.
func (m *Measurer) keepErr(err error) {
	if err != nil && m.failed == nil {
		m.failed = err
	}
}

// injectErr returns and clears the first injection failure since the last
// call.
func (m *Measurer) injectErr() error {
	err := m.failed
	m.failed = nil
	return err
}

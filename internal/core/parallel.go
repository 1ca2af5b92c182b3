package core

import (
	"fmt"
	"sort"

	"toposhot/internal/obs"
	"toposhot/internal/trace"
	"toposhot/internal/types"
)

// Edge is one directed source→sink measurement target; detection implies the
// undirected active link.
type Edge struct {
	Source, Sink types.NodeID
}

// ParResult reports one parallel iteration.
type ParResult struct {
	// Detected holds the edges confirmed by Step p4.
	Detected *EdgeSet
	// DetectedVia maps each detected (normalized) edge to the txA hash that
	// proved it — forensic data for validation experiments.
	DetectedVia map[[2]types.NodeID]types.Hash
	// SetupFailed lists edges whose txA was not observed propagating from
	// the source (the p2 proceed-only-if check); they should be re-measured.
	SetupFailed []Edge
	// Duration is the virtual time the iteration consumed.
	Duration float64
}

// MeasurePar runs the parallel measurement primitive of §5.3.1 over the
// given edges. All sources must be distinct from all sinks.
//
// Ordering note: the paper lists source setup (p2) before sink setup (p3),
// but a source propagates its txA exactly once, on admission — the same
// reason the *serial* primitive plants txB on B (Step 2) before txA on A
// (Step 3). We therefore set up sinks first, then sources, which preserves
// every isolation argument of §5.3.1 (a not-yet-set-up node holds txC and
// rejects both txA — bump below R — and txB — priced below txC).
func (m *Measurer) MeasurePar(edges []Edge) (*ParResult, error) {
	start := m.v.Now()
	res := &ParResult{Detected: NewEdgeSet(), DetectedVia: make(map[[2]types.NodeID]types.Hash)}
	if len(edges) == 0 {
		res.Duration = 0
		return res, nil
	}

	sources, sinks := participantSets(edges)
	for s := range sources {
		if _, isSink := sinks[s]; isSink {
			return nil, fmt.Errorf("core: node %v is both source and sink", s)
		}
	}
	for id := range sources {
		if !m.v.Reaches(id) {
			return nil, fmt.Errorf("core: unknown source %v", id)
		}
	}
	for id := range sinks {
		if !m.v.Reaches(id) {
			return nil, fmt.Errorf("core: unknown sink %v", id)
		}
	}
	m.v.Retire()

	span := m.tracer.StartSpan(SpanPar, trace.Int(attrEdges, int64(len(edges))))
	defer span.End()

	ys := m.tracer.StartSpan(spanEstimateY)
	y := m.resolveY()
	ys.End()
	span.SetAttr(trace.Int(attrY, int64(y)))
	// Per-edge measurement transactions: txC_i (price Y), later replaced by
	// txA_i on the source and txB_i on the sink, all on edge-private
	// accounts (p1: "any two different transactions are sent from different
	// EOAs").
	txC := make([]*types.Transaction, len(edges))
	txA := make([]*types.Transaction, len(edges))
	txB := make([]*types.Transaction, len(edges))
	// Each edge owns its three measurement transactions: one cut per edge,
	// kept only when a cost ledger is attached to receive it.
	var edgeSpend []Spend
	if m.costs != nil {
		edgeSpend = make([]Spend, len(edges))
	}
	for i := range edges {
		acct := m.freshAccount()
		txC[i] = m.mintTx(acct, 0, m.params.PriceTxC(y))
		txA[i] = m.mintTx(acct, 0, m.params.PriceTxA(y))
		txA[i].To = txC[i].To
		txB[i] = m.mintTx(acct, 0, m.params.PriceTxB(y))
		txB[i].To = txC[i].To
		m.Ledger.RecordPending(txC[i])
		m.Ledger.RecordPending(txA[i])
		m.Ledger.RecordPending(txB[i])
		if s := m.Ledger.Cut(); edgeSpend != nil {
			edgeSpend[i] = s
		}
	}

	// p1: flood all txC through the network and wait X.
	sc := m.tracer.StartSpan(spanSendTxC)
	entries := m.entryNodes(sources, sinks)
	for i, tx := range txC {
		m.inject(entries[i%len(entries)], tx)
	}
	sc.End()
	wx := m.tracer.StartSpan(spanWaitX)
	m.v.Wait(m.params.X)
	wx.End()

	// Sink setup (paper's p3): Z futures evict the txCs, then the r-slot
	// stream plants txB for own edges and re-plants txC for the others.
	ss := m.tracer.StartSpan(spanSinkSetup, trace.Int(attrNodes, int64(len(sinks))))
	sinkOrder := sortedIDs(sinks)
	for _, b := range sinkOrder {
		m.fill(b, y)
		stream := make([]*types.Transaction, len(edges))
		for i, e := range edges {
			if e.Sink == b {
				stream[i] = txB[i]
			} else {
				stream[i] = txC[i]
			}
		}
		m.inject(b, stream...)
		m.v.WaitDrained(m.params.InterNodeWait)
	}
	m.v.WaitDrained(-1)
	ss.End()

	// Source setup (paper's p2): Z futures, other-edge txCs, own txAs.
	sp := m.tracer.StartSpan(spanSourceSetup, trace.Int(attrNodes, int64(len(sources))))
	checkFrom := m.v.Now()
	srcOrder := sortedIDs(sources)
	for _, a := range srcOrder {
		m.fill(a, y)
		var others, own []*types.Transaction
		for i, e := range edges {
			if e.Source == a {
				own = append(own, txA[i])
			} else {
				others = append(others, txC[i])
			}
		}
		m.inject(a, others...)
		m.inject(a, own...)
		m.v.WaitDrained(m.params.InterNodeWait)
	}
	m.v.WaitDrained(-1)
	sp.End()
	roundSpend := m.Ledger.Cut() // the two set-up phases' mempool fills

	// p2's proceed-only-if check: verify each txA actually stuck on its
	// source before trusting the iteration's negatives.
	vs := m.tracer.StartSpan(spanVerifyRPC)
	for i, e := range edges {
		if !m.v.Holds(e.Source, txA[i]) {
			res.SetupFailed = append(res.SetupFailed, e)
			m.tracer.Event(evSetupFailed,
				trace.Int(attrNodeA, int64(e.Source)), trace.Int(attrNodeB, int64(e.Sink)))
		}
	}
	vs.End()

	// p4: wait for propagation, then look for txA_i arriving from sink_i —
	// and from sink_i alone; a txA observed from anyone else has escaped
	// isolation and is discarded (precision over recall).
	dc := m.tracer.StartSpan(spanDecide)
	m.v.Wait(m.params.SettleTime)
	for i, e := range edges {
		if VerdictOf(e.Sink, m.v.Sightings(txA[i].Hash(), checkFrom)).Detected() {
			res.Detected.Add(e.Source, e.Sink)
			res.DetectedVia[norm(e.Source, e.Sink)] = txA[i].Hash()
		}
	}
	dc.End()
	span.SetAttr(trace.Int(attrDetected, int64(res.Detected.Len())))
	span.SetAttr(trace.Int(attrFailed, int64(len(res.SetupFailed))))
	res.Duration = m.v.Now() - start

	// Cost attribution: each edge owns its cut and its verdict; the
	// per-participant mempool fills are shared batch cost and land on one
	// round record. Records append in edge order, then the round line —
	// deterministic for a single engine at any lane width.
	if m.costs != nil {
		failed := make(map[Edge]struct{}, len(res.SetupFailed))
		for _, e := range res.SetupFailed {
			failed[e] = struct{}{}
		}
		for i, e := range edges {
			detected := res.Detected.Has(e.Source, e.Sink)
			verdict := "undetected"
			if detected {
				verdict = "detected"
			} else if _, ok := failed[e]; ok {
				verdict = obs.VerdictSetupFailed
			}
			m.recordPairCost(e.Source, e.Sink, edgeSpend[i], start, verdict, detected)
		}
		m.recordRoundCost(roundSpend, start)
	}

	m.metrics.rounds.Inc()
	m.metrics.edgesMeasured.Add(int64(len(edges)))
	m.metrics.edgesDetected.Add(int64(res.Detected.Len()))
	m.metrics.setupFailed.Add(int64(len(res.SetupFailed)))
	m.metrics.roundDuration.Observe(res.Duration)
	if err := m.injectErr(); err != nil {
		return nil, err
	}
	return res, nil
}

// participantSets splits the edge list into source and sink id sets.
func participantSets(edges []Edge) (sources, sinks map[types.NodeID]struct{}) {
	sources = make(map[types.NodeID]struct{})
	sinks = make(map[types.NodeID]struct{})
	for _, e := range edges {
		sources[e.Source] = struct{}{}
		sinks[e.Sink] = struct{}{}
	}
	return sources, sinks
}

func sortedIDs(set map[types.NodeID]struct{}) []types.NodeID {
	out := make([]types.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// entryNodes picks nodes to seed txC floods through among M's peers:
// preferably non-participants (plain C nodes), falling back to sinks — whose
// state is rebuilt during setup anyway. Within a MeasureNetwork run the peer
// list is read once and reused across every MeasurePar batch; the node set is
// static for the duration of a campaign, so the cached view filters to
// exactly what a fresh read would return.
func (m *Measurer) entryNodes(sources, sinks map[types.NodeID]struct{}) []types.NodeID {
	candidates := m.entryCandidates
	if candidates == nil {
		candidates = m.v.Peers()
	}
	var entries []types.NodeID
	for _, id := range candidates {
		if _, ok := sources[id]; ok {
			continue
		}
		if _, ok := sinks[id]; ok {
			continue
		}
		entries = append(entries, id)
		if len(entries) >= 8 {
			break
		}
	}
	if len(entries) == 0 {
		entries = sortedIDs(sinks)
	}
	return entries
}

// ScheduleResult reports a whole-network measurement.
type ScheduleResult struct {
	Detected *EdgeSet
	// DetectedVia maps detected edges to their proving txA hashes.
	DetectedVia map[[2]types.NodeID]types.Hash
	Iterations  int
	Calls       int
	SetupFails  int
	Duration    float64
	// PairsMeasured is the number of node pairs covered.
	PairsMeasured int
}

// MeasureNetwork measures every node pair among `nodes` with the two-round
// parallel schedule of §5.3.2: round 1 measures group-to-rest edges in N/K
// iterations; round 2 halves groups recursively for log K iterations of
// intra-group measurement. edgeBudget caps the edge count per MeasurePar
// call (the paper's ≤2000 mempool-slot discipline); oversized iterations are
// split into consecutive calls.
func (m *Measurer) MeasureNetwork(nodes []types.NodeID, k, edgeBudget int) (*ScheduleResult, error) {
	return m.MeasureNetworkResume(nodes, k, edgeBudget, nil, nil)
}

// planBatch is one deterministic campaign step: the edges of one MeasurePar
// call and the 1-based schedule iteration it belongs to.
type planBatch struct {
	edges     []Edge
	iteration int
}

// planNetworkBatches enumerates the complete batch sequence of a
// MeasureNetwork campaign. The plan is a pure function of (nodes, k,
// edgeBudget) — no RNG, no network state — which is what makes campaigns
// checkpoint-resumable: a resumed run re-derives the identical plan and
// skips the batches already executed.
func planNetworkBatches(nodes []types.NodeID, k, edgeBudget int) []planBatch {
	var plan []planBatch
	iteration := 0

	// Batches are shaped to bound participants as well as edges: each
	// participant costs a full mempool fill (Z futures) plus an r-slot
	// stream, so a batch of r edges is cheapest when it touches about √r
	// sources and √r sinks rather than 1×r.
	maxParticipants := 2 * isqrt(edgeBudget)
	if maxParticipants < 4 {
		maxParticipants = 4
	}
	emit := func(edges []Edge) {
		for len(edges) > 0 {
			srcs := make(map[types.NodeID]struct{})
			snks := make(map[types.NodeID]struct{})
			n := 0
			for n < len(edges) && n < edgeBudget {
				e := edges[n]
				srcs[e.Source] = struct{}{}
				snks[e.Sink] = struct{}{}
				if len(srcs)+len(snks) > maxParticipants && n > 0 {
					break
				}
				n++
			}
			plan = append(plan, planBatch{edges: edges[:n], iteration: iteration})
			edges = edges[n:]
		}
	}

	// Round 1: group i × everything after group i.
	var groups [][]types.NodeID
	for i := 0; i*k < len(nodes); i++ {
		lo, hi := i*k, (i+1)*k
		if hi > len(nodes) {
			hi = len(nodes)
		}
		groups = append(groups, nodes[lo:hi])
	}
	// Block-shaped enumeration: √budget sources × √budget sinks per batch
	// keeps per-batch mempool fills proportional to √r instead of r.
	sp := isqrt(edgeBudget)
	if sp < 1 {
		sp = 1
	}
	for i, g := range groups {
		restStart := (i + 1) * k
		if restStart >= len(nodes) {
			break
		}
		rest := nodes[restStart:]
		iteration++
		for s0 := 0; s0 < len(g); s0 += sp {
			schunk := g[s0:min(s0+sp, len(g))]
			sq := edgeBudget / len(schunk)
			if sq < 1 {
				sq = 1
			}
			for t0 := 0; t0 < len(rest); t0 += sq {
				tchunk := rest[t0:min(t0+sq, len(rest))]
				edges := make([]Edge, 0, len(schunk)*len(tchunk))
				for _, a := range schunk {
					for _, b := range tchunk {
						edges = append(edges, Edge{Source: a, Sink: b})
					}
				}
				emit(edges)
			}
		}
	}

	// Round 2: split every group in half; one iteration measures the
	// cross-half pairs of all groups simultaneously; recurse on halves.
	cur := groups
	for {
		var edges []Edge
		var next [][]types.NodeID
		for _, g := range cur {
			if len(g) < 2 {
				next = append(next, g)
				continue
			}
			half := len(g) / 2
			a, b := g[:half], g[half:]
			for _, s := range a {
				for _, t := range b {
					edges = append(edges, Edge{Source: s, Sink: t})
				}
			}
			next = append(next, a, b)
		}
		if len(edges) == 0 {
			break
		}
		iteration++
		emit(edges)
		cur = next
	}
	return plan
}

// MeasureNetworkResume is MeasureNetwork with checkpoint support. A non-nil
// `resume` continues a campaign from a previously captured CampaignState
// (the network itself must have been restored from its paired ethsim
// checkpoint). A non-nil `onBatch` is invoked after every completed batch
// with the campaign's current state; the caller pairs it with
// Network.Checkpoint to persist a resumable snapshot, and an error from the
// callback aborts the campaign.
func (m *Measurer) MeasureNetworkResume(nodes []types.NodeID, k, edgeBudget int,
	resume *CampaignState, onBatch func(*CampaignState) error) (*ScheduleResult, error) {
	if k < 1 {
		k = 1
	}
	if edgeBudget < 1 {
		edgeBudget = 2000
	}
	// Cache the flood-entry candidates for the whole campaign; no nodes
	// join or leave mid-run. Cleared on exit so direct MeasurePar callers
	// (which may add nodes between calls) keep the fresh-read behaviour.
	m.entryCandidates = m.v.Peers()
	defer func() { m.entryCandidates = nil }()

	plan := planNetworkBatches(nodes, k, edgeBudget)
	out := &ScheduleResult{Detected: NewEdgeSet(), DetectedVia: make(map[[2]types.NodeID]types.Hash)}
	start := m.v.Now()
	done := 0
	if resume != nil {
		if err := m.applyCampaignState(resume, len(plan), out); err != nil {
			return nil, err
		}
		done = resume.BatchesDone
		start = resume.StartTime
	}

	// The two-round schedule covers every pair exactly once; done/total pair
	// counts on the campaign span feed the /progress ETA extrapolation.
	totalPairs := len(nodes) * (len(nodes) - 1) / 2
	span := m.tracer.StartSpan(SpanNetwork,
		trace.Int(attrNodes, int64(len(nodes))), trace.Int(attrK, int64(k)),
		trace.Int(trace.AttrTotal, int64(totalPairs)))
	defer span.End()
	span.SetAttr(trace.Int(trace.AttrDone, int64(out.PairsMeasured)))
	// The span attr carries the trace cross-link: events and trace records
	// of one campaign join on (scope clock, span id).
	m.olog.Info(MsgCampaignStarted,
		obs.Int("nodes", int64(len(nodes))), obs.Int("k", int64(k)),
		obs.Int("pairs_total", int64(totalPairs)), obs.Int("batches", int64(len(plan))),
		obs.Int("batches_done", int64(done)), obs.Int("span", int64(span.ID())))

	for ; done < len(plan); done++ {
		b := plan[done]
		res, err := m.MeasurePar(b.edges)
		if err != nil {
			return nil, err
		}
		out.Calls++
		out.SetupFails += len(res.SetupFailed)
		out.Detected.Union(res.Detected)
		for e, v := range res.DetectedVia {
			out.DetectedVia[e] = v
		}
		out.PairsMeasured += len(b.edges)
		if b.iteration > out.Iterations {
			out.Iterations = b.iteration
		}
		span.SetAttr(trace.Int(trace.AttrDone, int64(out.PairsMeasured)))
		m.olog.Debug(MsgBatchDone,
			obs.Int("batch", int64(done+1)), obs.Int("batches", int64(len(plan))),
			obs.Int("pairs_done", int64(out.PairsMeasured)),
			obs.Int("detected", int64(out.Detected.Len())))
		if onBatch != nil {
			if err := onBatch(m.captureCampaignState(done+1, start, out)); err != nil {
				return nil, fmt.Errorf("core: campaign checkpoint: %w", err)
			}
		}
	}

	out.Duration = m.v.Now() - start
	m.olog.Info(MsgCampaignDone,
		obs.Int("pairs", int64(out.PairsMeasured)), obs.Int("detected", int64(out.Detected.Len())),
		obs.Int("calls", int64(out.Calls)), obs.Int("setup_fails", int64(out.SetupFails)),
		obs.Float("virtual_s", out.Duration))
	return out, nil
}

// isqrt returns ⌊√n⌋ for small non-negative n.
func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// MeasureAllPairsSerial measures every pair with the one-link primitive —
// the serial baseline Figure 5's speedup is computed against.
func (m *Measurer) MeasureAllPairsSerial(nodes []types.NodeID) (*ScheduleResult, error) {
	start := m.v.Now()
	out := &ScheduleResult{Detected: NewEdgeSet()}
	totalPairs := len(nodes) * (len(nodes) - 1) / 2
	span := m.tracer.StartSpan(SpanSerial,
		trace.Int(attrNodes, int64(len(nodes))), trace.Int(trace.AttrTotal, int64(totalPairs)))
	defer span.End()
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			ok, err := m.MeasureOneLink(nodes[i], nodes[j])
			if err != nil {
				return nil, err
			}
			out.Calls++
			out.Iterations++
			out.PairsMeasured++
			span.SetAttr(trace.Int(trace.AttrDone, int64(out.PairsMeasured)))
			if ok {
				out.Detected.Add(nodes[i], nodes[j])
			}
		}
	}
	out.Duration = m.v.Now() - start
	return out, nil
}

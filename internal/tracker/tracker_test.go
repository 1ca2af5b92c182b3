package tracker

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"toposhot/internal/core"
	"toposhot/internal/metrics"
	"toposhot/internal/types"
)

// oracleProber answers probes from a mutable ground-truth edge set,
// recording every probed pair. failNext makes the next batch report setup
// failures for every pair.
type oracleProber struct {
	truth    *core.EdgeSet
	probed   [][2]types.NodeID
	calls    int
	failNext bool
	err      error
}

func (o *oracleProber) ProbePairs(pairs [][2]types.NodeID) ([]ProbeResult, error) {
	o.calls++
	if o.err != nil {
		return nil, o.err
	}
	res := make([]ProbeResult, len(pairs))
	for i, pr := range pairs {
		o.probed = append(o.probed, pr)
		res[i] = ProbeResult{A: pr[0], B: pr[1], Present: o.truth.Has(pr[0], pr[1]), Failed: o.failNext}
	}
	o.failNext = false
	return res, nil
}

func targetIDs(n int) []types.NodeID {
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = types.NodeID(i + 1)
	}
	return ids
}

// ringTruth returns a ring over ids 1..n.
func ringTruth(n int) *core.EdgeSet {
	s := core.NewEdgeSet()
	for i := 1; i <= n; i++ {
		s.Add(types.NodeID(i), types.NodeID(i%n+1))
	}
	return s
}

// removeEdge churns {a,b} out of the ground truth the oracle reads.
func removeEdge(truth *core.EdgeSet, a, b types.NodeID) {
	next := core.NewEdgeSet()
	for _, e := range truth.Edges() {
		if e != [2]types.NodeID{a, b} && e != [2]types.NodeID{b, a} {
			next.Add(e[0], e[1])
		}
	}
	*truth = *next
}

// confidence is the decayed confidence of the tracker's verdict on (a, b):
// 0.5^(age/HalfLife), or 0 for an untracked pair.
func confidence(tr *Tracker, a, b types.NodeID) float64 {
	i, ok := tr.pairIndex(a, b)
	if !ok {
		return 0
	}
	return math.Pow(0.5, float64(tr.tick-tr.pairs[i].lastTick)/tr.cfg.HalfLife)
}

func TestTrackerSeedBelief(t *testing.T) {
	truth := ringTruth(10)
	tr, err := New(Config{}, targetIDs(10), truth, &oracleProber{truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.BeliefEdges(); got.Len() != truth.Len() {
		t.Fatalf("seed belief has %d edges, want %d", got.Len(), truth.Len())
	}
	if !tr.BeliefEdges().Has(1, 2) || tr.BeliefEdges().Has(1, 3) {
		t.Fatal("seed verdicts wrong")
	}
	if c := confidence(tr, 1, 2); c != 1 {
		t.Fatalf("fresh confidence = %v, want 1", c)
	}
	if c := confidence(tr, 99, 100); c != 0 {
		t.Fatalf("untracked confidence = %v, want 0", c)
	}
}

// TestPairIndex: the arithmetic index finds every pair where New put it, in
// either endpoint order, and reports unknown ids and self-pairs as absent.
func TestPairIndex(t *testing.T) {
	tr, err := New(Config{}, []types.NodeID{40, 7, 19, 3, 88}, nil, &oracleProber{truth: core.NewEdgeSet()})
	if err != nil {
		t.Fatal(err)
	}
	for k, p := range tr.pairs {
		for _, q := range [][2]types.NodeID{{p.a, p.b}, {p.b, p.a}} {
			if i, ok := tr.pairIndex(q[0], q[1]); !ok || int(i) != k {
				t.Fatalf("pairIndex(%v, %v) = %d, %v; want %d", q[0], q[1], i, ok, k)
			}
		}
	}
	for _, q := range [][2]types.NodeID{{7, 7}, {7, 8}, {2, 3}, {88, 89}} {
		if _, ok := tr.pairIndex(q[0], q[1]); ok {
			t.Fatalf("pairIndex(%v, %v) found a pair", q[0], q[1])
		}
	}
}

// TestTrackerConvergesAfterChurn: flip some truth links, feed hints for a
// subset, and verify hinted pairs correct on the next tick while unhinted
// ones correct once the sweep reaches them.
func TestTrackerConvergesAfterChurn(t *testing.T) {
	const n = 12
	truth := ringTruth(n)
	o := &oracleProber{truth: truth}
	tr, err := New(Config{Budget: 10, HalfLife: 4, MinConfidence: 0.5}, targetIDs(n), truth, o)
	if err != nil {
		t.Fatal(err)
	}
	// Churn: remove 1-2, add 1-7. Hint only the removal.
	removeEdge(truth, 1, 2)
	truth.Add(1, 7)
	tr.Observe(1, 2)

	rep, err := tr.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Urgent != 1 || rep.Changed != 1 {
		t.Fatalf("tick 1: %+v, want 1 urgent and 1 change", rep)
	}
	if tr.BeliefEdges().Has(1, 2) {
		t.Fatal("hinted removal not applied")
	}
	// The unhinted addition is found by the sweep within staleAfter + P/B
	// ticks (all 66 pairs re-probed every ~7 ticks past the cutoff).
	for i := 0; i < 20 && !tr.BeliefEdges().Has(1, 7); i++ {
		if _, err := tr.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if !tr.BeliefEdges().Has(1, 7) {
		t.Fatal("sweep never found the unhinted new link")
	}
	if got, want := tr.BeliefEdges().Edges(), truth.Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("belief did not converge: %v vs %v", got, want)
	}
}

// TestTrackerBudgetAndCutoff: a fresh tracker probes nothing until verdicts
// age past the confidence cutoff, then sweeps at most Budget pairs per tick.
func TestTrackerBudgetAndCutoff(t *testing.T) {
	const n = 10 // 45 pairs
	truth := ringTruth(n)
	o := &oracleProber{truth: truth}
	cfg := Config{Budget: 7, HalfLife: 3, MinConfidence: 0.25} // staleAfter = 6
	tr, err := New(cfg, targetIDs(n), truth, o)
	if err != nil {
		t.Fatal(err)
	}
	for tick := 1; tick <= 5; tick++ {
		rep, err := tr.Tick()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Planned != 0 {
			t.Fatalf("tick %d planned %d pairs before the staleness cutoff", tick, rep.Planned)
		}
	}
	rep, err := tr.Tick() // tick 6: the tick-0 bucket is now exactly stale
	if err != nil {
		t.Fatal(err)
	}
	if rep.Planned != 7 {
		t.Fatalf("tick 6 planned %d pairs, want the full budget 7", rep.Planned)
	}
	if rep.Changed != 0 {
		t.Fatalf("stable truth produced %d verdict flips", rep.Changed)
	}
}

// TestTrackerFailedProbesRequeue: setup failures keep the old belief and
// re-enter the urgent queue for the next tick.
func TestTrackerFailedProbesRequeue(t *testing.T) {
	const n = 8
	truth := ringTruth(n)
	o := &oracleProber{truth: truth}
	tr, err := New(Config{Budget: 4, HalfLife: 1, MinConfidence: 0.5}, targetIDs(n), truth, o)
	if err != nil {
		t.Fatal(err)
	}
	removeEdge(truth, 3, 4)
	tr.Observe(3, 4)
	o.failNext = true
	rep, err := tr.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 || rep.Changed != 0 {
		t.Fatalf("failed tick report %+v", rep)
	}
	if !tr.BeliefEdges().Has(3, 4) {
		t.Fatal("failed probe overwrote belief")
	}
	rep, err = tr.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Urgent == 0 || tr.BeliefEdges().Has(3, 4) {
		t.Fatalf("requeued pair not retried: %+v", rep)
	}
}

// TestTrackerProbeErrorRecovers: a transport error re-queues the whole plan;
// the next tick retries it.
func TestTrackerProbeErrorRecovers(t *testing.T) {
	const n = 6
	truth := ringTruth(n)
	o := &oracleProber{truth: truth}
	tr, err := New(Config{Budget: 5, HalfLife: 1, MinConfidence: 0.5}, targetIDs(n), truth, o)
	if err != nil {
		t.Fatal(err)
	}
	removeEdge(truth, 1, 2)
	tr.Observe(1, 2)
	o.err = fmt.Errorf("rpc down")
	if _, err := tr.Tick(); err == nil {
		t.Fatal("probe error swallowed")
	}
	if tr.BeliefEdges().Has(1, 2) == false {
		t.Fatal("belief mutated on errored tick")
	}
	o.err = nil
	if _, err := tr.Tick(); err != nil {
		t.Fatal(err)
	}
	if tr.BeliefEdges().Has(1, 2) {
		t.Fatal("retry after error did not correct belief")
	}
}

// TestTrackerStateRoundTrip: State → JSON → Restore reproduces belief,
// verdicts, confidence clocks, and — critically — the same future probe
// schedule as the original tracker.
func TestTrackerStateRoundTrip(t *testing.T) {
	const n = 11
	truth := ringTruth(n)
	o := &oracleProber{truth: truth}
	cfg := Config{Budget: 9, HalfLife: 3, MinConfidence: 0.25}
	tr, err := New(cfg, targetIDs(n), truth, o)
	if err != nil {
		t.Fatal(err)
	}
	removeEdge(truth, 2, 3)
	truth.Add(2, 8)
	tr.Observe(2, 3)
	tr.Observe(2, 8)
	for i := 0; i < 8; i++ {
		if _, err := tr.Tick(); err != nil {
			t.Fatal(err)
		}
	}

	blob, err := json.Marshal(tr.State())
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	o2 := &oracleProber{truth: truth}
	tr2, err := Restore(&st, cfg, o2)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.tick != tr.tick {
		t.Fatalf("tick count %d != %d", tr2.tick, tr.tick)
	}
	if !reflect.DeepEqual(tr2.BeliefEdges().Edges(), tr.BeliefEdges().Edges()) {
		t.Fatal("restored belief differs")
	}
	if tr2.edges != tr.edges || tr2.edges != tr2.BeliefEdges().Len() {
		t.Fatalf("restored edge count %d, original %d, restored belief %d",
			tr2.edges, tr.edges, tr2.BeliefEdges().Len())
	}
	for _, a := range tr.Targets() {
		for _, b := range tr.Targets() {
			if a < b && confidence(tr, a, b) != confidence(tr2, a, b) {
				t.Fatalf("confidence(%d,%d) differs after restore", a, b)
			}
		}
	}
	// Same continuation: both trackers must plan identical probes.
	for i := 0; i < 6; i++ {
		r1, err1 := tr.Tick()
		r2, err2 := tr2.Tick()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if r1.Planned != r2.Planned || r1.Probed != r2.Probed {
			t.Fatalf("continuation tick %d diverged: %+v vs %+v", i, r1, r2)
		}
	}
	if !reflect.DeepEqual(o.probed[len(o.probed)-len(o2.probed):], o2.probed) {
		t.Fatal("restored tracker probed a different pair sequence")
	}
	// State of a restored-and-continued tracker matches the original's.
	b1, _ := json.Marshal(tr.State())
	b2, _ := json.Marshal(tr2.State())
	if !reflect.DeepEqual(b1, b2) {
		t.Fatal("post-continuation states differ byte-wise")
	}
}

func TestTrackerRejectsBadInput(t *testing.T) {
	o := &oracleProber{truth: core.NewEdgeSet()}
	if _, err := New(Config{}, []types.NodeID{1}, nil, o); err == nil {
		t.Fatal("accepted single-target universe")
	}
	if _, err := New(Config{}, []types.NodeID{1, 2, 2}, nil, o); err == nil {
		t.Fatal("accepted duplicate targets")
	}
	st := &State{Tick: 1, Targets: []types.NodeID{1, 2, 3},
		Pairs: []PairState{{A: 1, B: 2}, {A: 1, B: 3}}}
	if _, err := Restore(st, Config{}, o); err == nil {
		t.Fatal("accepted truncated pair table")
	}
	st.Pairs = append(st.Pairs, PairState{A: 1, B: 9})
	if _, err := Restore(st, Config{}, o); err == nil {
		t.Fatal("accepted out-of-universe pair")
	}
}

// TestTrackerMetrics wires a registry and checks the per-tick instruments:
// budget accounting, urgent/stale split, verdict flips, and the belief
// gauges following the believed link set through a removal and an addition.
func TestTrackerMetrics(t *testing.T) {
	truth := ringTruth(8)
	o := &oracleProber{truth: truth}
	tr, err := New(Config{Budget: 6, HalfLife: 1, MinConfidence: 0.6}, targetIDs(8), truth, o)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	tr.SetMetrics(reg)

	if got := reg.Gauge("tracker.budget").Value(); got != 6 {
		t.Fatalf("tracker.budget = %d, want 6", got)
	}
	removeEdge(truth, 1, 2) // churn one link, tip the tracker off
	tr.Observe(1, 2)
	rep, err := tr.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if reg.Counter("tracker.ticks").Value() != 1 {
		t.Fatal("tracker.ticks did not count the tick")
	}
	if got := reg.Counter("tracker.pairs.planned").Value(); got != int64(rep.Planned) {
		t.Fatalf("tracker.pairs.planned = %d, want %d", got, rep.Planned)
	}
	if got := reg.Counter("tracker.pairs.urgent").Value(); got != int64(rep.Urgent) || rep.Urgent != 1 {
		t.Fatalf("tracker.pairs.urgent = %d (report %d), want 1", got, rep.Urgent)
	}
	if got := reg.Counter("tracker.pairs.stale").Value(); got != int64(rep.Planned-rep.Urgent) {
		t.Fatalf("tracker.pairs.stale = %d, want %d", got, rep.Planned-rep.Urgent)
	}
	if got := reg.Counter("tracker.verdict_flips").Value(); got != int64(rep.Changed) || rep.Changed < 1 {
		t.Fatalf("tracker.verdict_flips = %d (report %d), want ≥1", got, rep.Changed)
	}
	checkBelief := func(when string) {
		t.Helper()
		if got, want := reg.Gauge("tracker.belief.nodes").Value(), int64(len(tr.Targets())); got != want {
			t.Fatalf("after %s: tracker.belief.nodes = %d, want %d", when, got, want)
		}
		if got, want := reg.Gauge("tracker.belief.edges").Value(), int64(tr.BeliefEdges().Len()); got != want {
			t.Fatalf("after %s: tracker.belief.edges = %d, want %d", when, got, want)
		}
	}
	if tr.BeliefEdges().Has(1, 2) {
		t.Fatal("removal did not flip the verdict")
	}
	checkBelief("a removal flip")
	if got := reg.Gauge("tracker.budget_used").Value(); got != int64(rep.Planned) {
		t.Fatalf("tracker.budget_used = %d, want %d", got, rep.Planned)
	}

	truth.Add(1, 5)
	tr.Observe(1, 5)
	if _, err := tr.Tick(); err != nil {
		t.Fatal(err)
	}
	if !tr.BeliefEdges().Has(1, 5) {
		t.Fatal("addition did not flip the verdict")
	}
	checkBelief("an addition flip")

	// A failed batch lands in pairs.failed and leaves the queue non-empty.
	o.failNext = true
	if _, err := tr.Tick(); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("tracker.pairs.failed").Value() == 0 {
		t.Fatal("tracker.pairs.failed did not count the setup failures")
	}
	if reg.Gauge("tracker.urgent_depth").Value() == 0 {
		t.Fatal("tracker.urgent_depth did not reflect the re-queued pairs")
	}
}

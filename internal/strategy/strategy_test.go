package strategy

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"toposhot/internal/core"
	"toposhot/internal/ethsim"
	"toposhot/internal/obs"
	"toposhot/internal/runner"
	"toposhot/internal/trace"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// buildRing wires a ring of n capped-pool Geth nodes with a supernode and a
// prefilled background workload — the known topology every strategy is
// scored against. The nodes at the indices in unresponsive drop every
// message.
func buildRing(t testing.TB, seed int64, n int, unresponsive ...int) (*ethsim.Network, *ethsim.Supernode, []types.NodeID) {
	if t != nil {
		t.Helper()
	}
	cfg := ethsim.DefaultConfig(seed)
	cfg.LatencyTail = 0.02
	cfg.LatencyMax = 0.5
	net := ethsim.NewNetwork(cfg)
	pol := txpool.Geth.WithCapacity(256)
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = net.AddNode(ethsim.NodeConfig{Policy: pol, MaxPeers: 50,
			Unresponsive: slices.Contains(unresponsive, i)}).ID()
	}
	for i := range ids {
		if err := net.Connect(ids[i], ids[(i+1)%n]); err != nil {
			if t != nil {
				t.Fatal(err)
			}
			panic(err)
		}
	}
	super := ethsim.NewSupernode(net)
	super.ConnectAll()
	w := ethsim.NewWorkload(net, 0, types.Gwei/2, 2*types.Gwei)
	w.Prefill(20*n, 3)
	return net, super, ids
}

// ringPairs returns every ring edge plus one antipodal non-edge per node —
// a balanced probe list over the known topology.
func ringPairs(ids []types.NodeID) [][2]types.NodeID {
	n := len(ids)
	pairs := make([][2]types.NodeID, 0, 2*n)
	for i := range ids {
		pairs = append(pairs, [2]types.NodeID{ids[i], ids[(i+1)%n]})
	}
	for i := range ids {
		j := (i + n/2) % n
		if i < j {
			pairs = append(pairs, [2]types.NodeID{ids[i], ids[j]})
		}
	}
	return pairs
}

// testConfig sizes every method for the capped-pool ring, at the default
// waits (X=10, SettleTime=6).
func testConfig() Config {
	params := core.DefaultParams()
	params.Z = 256
	return Config{Params: params, EthnaSamples: 48}
}

// ringDegreeError is the mean absolute error of Ethna's fitted degrees on a
// ring, where every node has two peers besides M (0 when nothing was fitted).
func ringDegreeError(e *Ethna) float64 {
	sum, n := 0, 0
	for _, d := range e.Degrees() {
		sum += max(d-2, 2-d)
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// runOnRing builds a fresh same-seed ring and runs one method's campaign.
func runOnRing(t testing.TB, m Method, seed int64, n int, tr *trace.Tracer) (Strategy, *Outcome, *core.EdgeSet) {
	net, super, ids := buildRing(t, seed, n)
	s, err := NewMethod(m, net, super, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunPairs(tr, nil, net, s, ringPairs(ids))
	if err != nil {
		t.Fatalf("%s: %v", m, err)
	}
	return s, out, core.EdgeSetOf(net.Edges())
}

// TestConformanceScoring checks every built-in method's characteristic
// result on the known ring: TopoShot exact, DEthna cheap but useful,
// TxProbe flooded into false positives, Ethna degree-accurate but link-mute.
func TestConformanceScoring(t *testing.T) {
	outcomes := make(map[Method]*Outcome)
	for _, m := range Methods() {
		m := m
		t.Run(string(m), func(t *testing.T) {
			s, out, truth := runOnRing(t, m, 5, 10, nil)
			outcomes[m] = out
			sc := out.Score(truth)
			t.Logf("%s: %v cost=%+v virtual=%.1fs", m, sc, out.Cost, out.VirtualSeconds)
			switch m {
			case MethodTopoShot:
				if sc.FalsePositives != 0 {
					t.Errorf("TopoShot FPs = %d, want 0 (isolation verdict)", sc.FalsePositives)
				}
				if sc.Recall() != 1 {
					t.Errorf("TopoShot recall = %v, want 1 on the ring", sc.Recall())
				}
				if out.Cost.FutureTxs == 0 {
					t.Error("TopoShot reported no future transactions")
				}
			case MethodTxProbe:
				if sc.FalsePositives == 0 {
					t.Error("TxProbe unexpectedly clean: account-model flooding absent")
				}
				if out.Cost.FutureTxs != 0 {
					t.Errorf("TxProbe futures = %d, want 0", out.Cost.FutureTxs)
				}
			case MethodDEthna:
				if sc.Precision() < 0.6 {
					t.Errorf("DEthna precision = %v, want ≥ 0.6", sc.Precision())
				}
				if sc.Recall() < 0.6 {
					t.Errorf("DEthna recall = %v, want ≥ 0.6", sc.Recall())
				}
				if out.Cost.FutureTxs != 0 {
					t.Errorf("DEthna futures = %d, want 0", out.Cost.FutureTxs)
				}
			case MethodEthna:
				e := s.(*Ethna)
				if err := ringDegreeError(e); err > 1.0 {
					t.Errorf("Ethna mean degree error = %v, want ≤ 1 on the ring", err)
				}
				if sc.FalsePositives != 0 {
					t.Errorf("Ethna FPs = %d: Chung-Lu bound fired on a sparse ring", sc.FalsePositives)
				}
			}
		})
	}
	ts, de := outcomes[MethodTopoShot], outcomes[MethodDEthna]
	if ts != nil && de != nil && de.Cost.Total() >= ts.Cost.Total() {
		t.Errorf("DEthna cost %d not below TopoShot cost %d", de.Cost.Total(), ts.Cost.Total())
	}
}

// renderOutcome serializes everything an outcome asserts, for byte-level
// comparison across runner widths.
func renderOutcome(s Strategy, out *Outcome, truth *core.EdgeSet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s cost=%+v virtual=%.6f score=%v\n", out.Method, out.Cost, out.VirtualSeconds, out.Score(truth))
	for _, v := range out.Verdicts {
		fmt.Fprintf(&b, "%v-%v %v %s\n", v.A, v.B, v.Claim.Detected, v.Claim.Verdict)
	}
	if e, ok := s.(*Ethna); ok {
		fmt.Fprintf(&b, "degree-err=%.6f\n", ringDegreeError(e))
	}
	return b.String()
}

// TestSerialParallelByteIdentity runs all four methods as independent
// same-seed jobs at pool width 1 and width 4 and demands byte-identical
// renderings — the engine-per-goroutine guarantee extended to strategies.
func TestSerialParallelByteIdentity(t *testing.T) {
	ms := Methods()
	job := func(i int) string {
		s, out, truth := runOnRing(t, ms[i], 5, 8, nil)
		return renderOutcome(s, out, truth)
	}
	serial := runner.MapN(1, len(ms), job)
	parallel := runner.MapN(4, len(ms), job)
	for i, m := range ms {
		if serial[i] != parallel[i] {
			t.Errorf("%s: serial and parallel runs differ\nserial:\n%s\nparallel:\n%s",
				m, serial[i], parallel[i])
		}
	}
}

// TestVerdictSpansEmitted checks that every strategy's campaign records one
// probe span per pair carrying method and verdict attributes.
func TestVerdictSpansEmitted(t *testing.T) {
	for _, m := range Methods() {
		m := m
		t.Run(string(m), func(t *testing.T) {
			tr := trace.New(trace.Options{Level: trace.LevelMeasure, Deterministic: true})
			_, out, _ := runOnRing(t, m, 5, 6, tr)
			snap := tr.Snapshot()
			campaigns, probes := 0, 0
			for _, lane := range snap.Lanes {
				for i := range lane.Records {
					r := &lane.Records[i]
					switch r.Name {
					case SpanCampaign:
						campaigns++
						if _, ok := r.Attr(AttrMethod); !ok {
							t.Error("campaign span missing method attr")
						}
					case SpanProbe:
						probes++
						if a, ok := r.Attr(AttrVerdict); !ok || a.Value() == "" {
							t.Error("probe span missing verdict attr")
						}
						if _, ok := r.Attr(AttrMethod); !ok {
							t.Error("probe span missing method attr")
						}
					}
				}
			}
			if campaigns != 1 {
				t.Errorf("campaign spans = %d, want 1", campaigns)
			}
			if probes != len(out.Verdicts) {
				t.Errorf("probe spans = %d, want %d", probes, len(out.Verdicts))
			}
		})
	}
}

// TestAccountSpacesDisjoint pins the per-strategy sender namespaces: the
// TopoShot space reproduces the historical 1<<63 scheme bit-for-bit, and no
// two strategies can mint the same sender.
func TestAccountSpacesDisjoint(t *testing.T) {
	for _, seq := range []uint64{1, 7, 1 << 20} {
		want := types.AddressFromUint64(1<<63 | seq)
		if got := types.NamespacedAddress(types.SpaceTopoShot, seq); got != want {
			t.Fatalf("SpaceTopoShot seq %d: %v != historical %v", seq, got, want)
		}
	}
	spaces := []uint64{types.SpaceTopoShot, types.SpaceTxProbe, types.SpaceDEthna, types.SpaceEthna}
	seen := make(map[types.Address]uint64)
	for _, sp := range spaces {
		mint := minter(sp)
		for i := 0; i < 100; i++ {
			a := mint.fresh()
			if prev, dup := seen[a]; dup {
				t.Fatalf("address collision between spaces %#x and %#x", prev, sp)
			}
			seen[a] = sp
		}
	}
	// Each built-in strategy mints from its designated space.
	_, super, _ := buildRing(t, 9, 4)
	p := core.DefaultParams()
	if got := NewTxProbe(super, p).mint.space; got != types.SpaceTxProbe {
		t.Errorf("TxProbe space %#x", got)
	}
	if got := NewDEthna(super, p).mint.space; got != types.SpaceDEthna {
		t.Errorf("DEthna space %#x", got)
	}
	if got := NewEthna(super, p).mint.space; got != types.SpaceEthna {
		t.Errorf("Ethna space %#x", got)
	}
}

// TestRunPairsLedgerAttribution checks the cost-exactness invariant on every
// built-in method: the campaign ledger's aggregation equals the strategy's
// own cost counters (records are deltas of those counters, so the sum
// telescopes; this is where the identity is checked), one pair record per
// verdict, and an event log that carries the campaign lifecycle.
func TestRunPairsLedgerAttribution(t *testing.T) {
	for _, m := range Methods() {
		lg := obs.New(obs.Options{Level: obs.LevelDebug})
		net, super, ids := buildRing(t, 9, 6)
		s, err := NewMethod(m, net, super, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		out, err := RunPairs(nil, lg, net, s, ringPairs(ids))
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		tot := out.Ledger.Totals()
		if got := (Cost{PendingTxs: tot.Pending, FutureTxs: tot.Futures}); got != out.Cost {
			t.Fatalf("%s: ledger aggregation %+v != cost counters %+v", m, got, out.Cost)
		}
		pairRecords := 0
		for _, r := range out.Ledger.Records() {
			if r.Kind != obs.KindPair {
				continue
			}
			pairRecords++
			if r.Verdict == "" {
				t.Fatalf("%s: pair record %v-%v has no verdict", m, r.A, r.B)
			}
		}
		if pairRecords != len(out.Verdicts) {
			t.Fatalf("%s: %d pair records for %d verdicts", m, pairRecords, len(out.Verdicts))
		}
		snap := lg.Snapshot()
		if len(snap.Lanes) != 1 {
			t.Fatalf("%s: %d scopes in event log, want 1", m, len(snap.Lanes))
		}
		evs := snap.Lanes[0].Records
		if len(evs) < 2 || evs[0].Name != core.MsgCampaignStarted || evs[len(evs)-1].Name != core.MsgCampaignDone {
			t.Fatalf("%s: campaign lifecycle events missing: %d events", m, len(evs))
		}
	}
}

// TestTxProbeUnknownNode: the probe itself (not only RunPairs' up-front
// validation) refuses a target the network has never seen.
func TestTxProbeUnknownNode(t *testing.T) {
	_, super, ids := buildRing(t, 2, 3)
	if _, err := NewTxProbe(super, core.DefaultParams()).MeasurePair(ids[0], 999); err == nil {
		t.Fatal("unknown target accepted")
	}
}

// TestRunPairsValidates checks the campaign-level pair validation: typed
// unknown-node errors and self-pair rejection, before any probe is sent.
func TestRunPairsValidates(t *testing.T) {
	net, super, ids := buildRing(t, 3, 4)
	s, err := NewMethod(MethodTxProbe, net, super, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunPairs(nil, nil, net, s, [][2]types.NodeID{{ids[0], 999}})
	var unknown UnknownNodeError
	if !errors.As(err, &unknown) || unknown.ID != 999 {
		t.Fatalf("want UnknownNodeError{999}, got %v", err)
	}
	if _, err = RunPairs(nil, nil, net, s, [][2]types.NodeID{{ids[1], ids[1]}}); err == nil {
		t.Fatal("self-pair accepted")
	}
	if c := s.Cost(); c.Total() != 0 {
		t.Fatalf("validation emitted probes: %+v", c)
	}
}

// injections is a supernode that records every transaction injected through
// it.
type injections struct {
	*ethsim.Supernode
	txs []*types.Transaction
}

func (v *injections) Inject(to types.NodeID, txs ...*types.Transaction) error {
	v.txs = append(v.txs, txs...)
	return v.Supernode.Inject(to, txs...)
}

// TestEthnaSamplesFlood: Ethna seeds its samples only through M's peers, so
// every sample it pays for floods and M sees it. An unresponsive ring node is
// a node of the network but no peer; a sample rotated onto it would flood
// nowhere.
func TestEthnaSamplesFlood(t *testing.T) {
	_, super, ids := buildRing(t, 4, 6, 2)
	v := &injections{Supernode: super}
	e := NewEthna(v, core.DefaultParams())
	e.Samples = 2 * len(ids)
	if err := e.Prepare(nil); err != nil {
		t.Fatal(err)
	}
	if len(v.txs) != e.Samples {
		t.Fatalf("%d samples injected, want %d", len(v.txs), e.Samples)
	}
	for i, tx := range v.txs {
		if len(super.Sightings(tx.Hash(), 0)) == 0 {
			t.Errorf("sample %d reached M from no peer", i)
		}
	}
}

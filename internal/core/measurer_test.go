package core

import (
	"slices"
	"testing"
	"unsafe"

	"toposhot/internal/ethsim"
	"toposhot/internal/gossip"
	"toposhot/internal/netgen"
	"toposhot/internal/trace"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// buildRing creates a small ring network of n default Geth nodes with a
// supernode attached to all, pre-filled with background transactions so
// pools operate the way TopoShot expects, and returns the measurer.
// supernode returns the simulated measurement node M a measurer probes
// through.
func supernode(m *Measurer) *ethsim.Supernode { return m.v.(*ethsim.Supernode) }

func buildRing(t testing.TB, n int, seed int64) (*ethsim.Network, *Measurer, []types.NodeID) {
	t.Helper()
	cfg := ethsim.DefaultConfig(seed)
	net := ethsim.NewNetwork(cfg)
	// Scaled-down pools keep the unit tests fast while preserving every
	// policy ratio (Z fills the pool just as at full scale).
	pol := txpool.Geth.WithCapacity(512)
	ids := make([]types.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = net.AddNode(ethsim.NodeConfig{Policy: pol, MaxPeers: 50}).ID()
	}
	for i := 0; i < n; i++ {
		if err := net.Connect(ids[i], ids[(i+1)%n]); err != nil {
			t.Fatalf("connect: %v", err)
		}
	}
	super := ethsim.NewSupernode(net)
	super.ConnectAll()
	w := ethsim.NewWorkload(net, 0, types.Gwei/10, 2*types.Gwei)
	w.Prefill(40*n, 5)

	params := DefaultParams()
	params.Z = 512
	params.SettleTime = 8
	m := NewMeasurer(net, super, params)
	return net, m, ids
}

func TestMeasureOneLinkDetectsRingEdges(t *testing.T) {
	_, m, ids := buildRing(t, 8, 1)
	ok, err := m.MeasureOneLink(ids[0], ids[1])
	if err != nil {
		t.Fatalf("measure: %v", err)
	}
	if !ok {
		t.Fatalf("adjacent nodes %v-%v not detected", ids[0], ids[1])
	}
}

func TestMeasureOneLinkIsolationOnNonEdges(t *testing.T) {
	_, m, ids := buildRing(t, 8, 2)
	// Nodes 0 and 4 are antipodal on the ring: no direct link.
	ok, err := m.MeasureOneLink(ids[0], ids[4])
	if err != nil {
		t.Fatalf("measure: %v", err)
	}
	if ok {
		t.Fatalf("false positive on non-edge %v-%v", ids[0], ids[4])
	}
}

func TestMeasureOneLinkAllPairsPerfectOnRing(t *testing.T) {
	net, m, ids := buildRing(t, 6, 3)
	truth := EdgeSetOf(net.Edges())
	measured := NewEdgeSet()
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			ok, err := m.MeasureOneLink(ids[i], ids[j])
			if err != nil {
				t.Fatalf("measure %v-%v: %v", ids[i], ids[j], err)
			}
			if ok {
				measured.Add(ids[i], ids[j])
			}
		}
	}
	superID := supernode(m).ID()
	filter := func(id types.NodeID) bool { return id != superID }
	sc := ScoreAgainst(measured, truth, filter)
	if sc.Precision() != 1 {
		t.Errorf("precision %.3f, want 1.0 (%v)", sc.Precision(), sc)
	}
	if sc.Recall() != 1 {
		t.Errorf("recall %.3f, want 1.0 on a fully-default local net (%v)", sc.Recall(), sc)
	}
}

func TestMeasureParMatchesGroundTruth(t *testing.T) {
	net, m, ids := buildRing(t, 8, 4)
	// Sources 0..2, sinks 4..6; ring edges within that bipartite cut: none
	// except... ring edges are (i, i+1); cross pairs measured:
	var edges []Edge
	for _, a := range ids[:3] {
		for _, b := range ids[4:7] {
			edges = append(edges, Edge{Source: a, Sink: b})
		}
	}
	res, err := m.MeasurePar(edges)
	if err != nil {
		t.Fatalf("measurePar: %v", err)
	}
	truth := EdgeSetOf(net.Edges())
	for _, e := range edges {
		want := truth.Has(e.Source, e.Sink)
		got := res.Detected.Has(e.Source, e.Sink)
		if want != got {
			t.Errorf("edge %v-%v: got %v want %v", e.Source, e.Sink, got, want)
		}
	}
	if len(res.SetupFailed) != 0 {
		t.Errorf("setup failures: %v", res.SetupFailed)
	}
}

func TestMeasureNetworkRecoversRing(t *testing.T) {
	net, m, ids := buildRing(t, 8, 5)
	res, err := m.MeasureNetwork(ids, 3, 2000)
	if err != nil {
		t.Fatalf("measureNetwork: %v", err)
	}
	truth := EdgeSetOf(net.Edges())
	superID := supernode(m).ID()
	filter := func(id types.NodeID) bool { return id != superID }
	sc := ScoreAgainst(res.Detected, truth, filter)
	if sc.Precision() != 1 || sc.Recall() != 1 {
		t.Fatalf("schedule score %v, want perfect on local ring", sc)
	}
	if res.PairsMeasured != 8*7/2 {
		t.Errorf("pairs measured = %d, want 28", res.PairsMeasured)
	}
}

// TestCensusNeverHashesUnrelayedTransactions: a transaction no pool ever held
// as pending — every offer of it ended future, pool-full or over-account-cap,
// which is nearly every transaction a census mints — is never gossiped, so
// nobody can ask for it by hash, and nothing on the way through the pool, the
// delivery functions or the measurer's own checks may compute its digest.
// One by-hash pool call on a freshly filled target (the p2 check, a request
// answered through Get) hashes all Z futures there and fails this. Nor may it
// draw an ID: only a pool holding an object pending asks for one, so a
// duplicate check that draws (tx.ID() where AssignedID belongs) fails too.
// The futures reach the pools as runs; the hook is handed the object the pool
// keeps for an admitted member, so what this test watches is what the pool
// holds.
func TestCensusNeverHashesUnrelayedTransactions(t *testing.T) {
	net, m, ids := buildRing(t, 12, 5)
	unrelayed := make(map[*types.Transaction]bool)
	net.OnOffer = func(node, _ types.NodeID, tx *types.Transaction, status string) {
		if status == "future" && net.Node(node).Pool().GetBySenderNonce(tx.From, tx.Nonce) != tx {
			t.Fatalf("node %v admitted %v but keeps another object for it", node, tx)
		}
		quiet := status == "future" || status == "pool-full" || status == "over-account-cap"
		if was, seen := unrelayed[tx]; seen {
			quiet = quiet && was
		}
		unrelayed[tx] = quiet
	}
	if _, err := m.MeasureNetwork(ids, 3, 2000); err != nil {
		t.Fatalf("measureNetwork: %v", err)
	}
	quiet, hashed, numbered := 0, 0, 0
	for tx, q := range unrelayed {
		if !q {
			continue
		}
		quiet++
		if tx.Hashed() {
			hashed++
		}
		if tx.AssignedID() != 0 {
			numbered++
		}
	}
	if quiet < m.Params().Z {
		t.Fatalf("only %d of %d offered transactions were never pending; the census should be mostly futures", quiet, len(unrelayed))
	}
	if hashed != 0 || numbered != 0 {
		t.Fatalf("of %d never-pending transactions, %d were hashed and %d drew an ID", quiet, hashed, numbered)
	}
}

// TestFillAllocations: a Z = 512 fill — minted, recorded, injected in eight
// messages and admitted whole into one 512-slot pool — allocates a few dozen
// objects (its run, the sender record's growth, the engine's events), not one
// per future: minted as objects, every fill allocated at least its 512
// transactions. A by-hash call on the filled target, or a hook building what
// nobody asked for, would build all 512 members and fail here too.
func TestFillAllocations(t *testing.T) {
	net := ethsim.NewNetwork(ethsim.DefaultConfig(3))
	target := net.AddNode(ethsim.NodeConfig{Policy: txpool.Geth.WithCapacity(512), MaxPeers: 50})
	super := ethsim.NewSupernode(net)
	super.ConnectAll()
	params := DefaultParams()
	params.Z, params.Y = 512, types.Gwei
	m := NewMeasurer(net, super, params)
	pool := target.Pool()
	var from types.Address // the last fill's account
	fill := func() {
		if pool.Len() > 0 {
			pool.SetStateNonce(from, 1+uint64(params.Z)) // clear the last fill, recycling its entries
		}
		m.fill(target.ID(), params.Y)
		m.v.WaitDrained(-1)
		from = types.NamespacedAddress(types.SpaceTopoShot, m.acctSeq-uint64(params.Z))
		if pool.FutureCount() != params.Z {
			t.Fatalf("the target holds %d futures, want the fill's %d", pool.FutureCount(), params.Z)
		}
	}
	allocs := testing.AllocsPerRun(20, fill)
	if allocs >= 64 {
		t.Fatalf("a %d-future fill allocates %v objects, want fewer than 64", params.Z, allocs)
	}
	if pool.GetBySenderNonce(from, uint64(params.Z)) == nil {
		t.Fatal("the futures the target holds are not the last fill's")
	}
	t.Logf("a %d-future fill allocates %v objects", params.Z, allocs)
}

func TestMeasureSmallWorldNetwork(t *testing.T) {
	cfg := ethsim.DefaultConfig(7)
	net := ethsim.NewNetwork(cfg)
	g := netgen.ErdosRenyiNM(14, 30, 7)
	inst := netgen.InstantiateScaled(net, g, netgen.Uniform(), 7, 1)
	// Scale the pools down like buildRing does.
	// (InstantiateScaled at scale 1 used default Geth policy; rebuild with scaled policy.)
	_ = inst
	super := ethsim.NewSupernode(net)
	super.ConnectAll()
	w := ethsim.NewWorkload(net, 0, types.Gwei/10, 2*types.Gwei)
	w.Prefill(600, 5)
	params := DefaultParams()
	params.SettleTime = 8
	m := NewMeasurer(net, super, params)
	res, err := m.MeasureNetwork(inst.IDs, 4, 500)
	if err != nil {
		t.Fatalf("measureNetwork: %v", err)
	}
	truth := EdgeSetOf(net.Edges())
	superID := super.ID()
	sc := ScoreAgainst(res.Detected, truth, func(id types.NodeID) bool { return id != superID })
	if sc.Precision() != 1 {
		t.Errorf("precision %.3f want 1.0 (%v)", sc.Precision(), sc)
	}
	if sc.Recall() < 0.95 {
		t.Errorf("recall %.3f want ≥0.95 on uniform local net (%v)", sc.Recall(), sc)
	}
}

// TestMeasureOneLinkTraceSpans asserts the measurement layer's span
// structure: one measure-one-link span per primitive, the paper's phase
// children beneath it, and the Step-4 verdict as a structured attribute.
func TestMeasureOneLinkTraceSpans(t *testing.T) {
	_, m, ids := buildRing(t, 8, 5)
	tr := trace.New(trace.Options{Level: trace.LevelMeasure, Deterministic: true})
	m.SetTracer(tr)

	if ok, err := m.MeasureOneLink(ids[0], ids[1]); err != nil || !ok {
		t.Fatalf("adjacent measure = %v, %v", ok, err)
	}
	if ok, err := m.MeasureOneLink(ids[0], ids[4]); err != nil || ok {
		t.Fatalf("antipodal measure = %v, %v", ok, err)
	}

	snap := tr.Snapshot()
	if len(snap.Lanes) != 1 {
		t.Fatalf("got %d lanes, want 1", len(snap.Lanes))
	}
	var roots []trace.Record
	children := make(map[uint64]map[string]int)
	for _, r := range snap.Lanes[0].Records {
		if r.Name == SpanOneLink {
			roots = append(roots, r)
			continue
		}
		if r.Parent != 0 {
			if children[r.Parent] == nil {
				children[r.Parent] = make(map[string]int)
			}
			children[r.Parent][r.Name]++
		}
	}
	if len(roots) != 2 {
		t.Fatalf("got %d measure-one-link spans, want 2", len(roots))
	}
	wantVerdicts := []string{"detected", "timeout"}
	for i, root := range roots {
		a, ok := root.Attr(AttrVerdict)
		if !ok {
			t.Fatalf("span %d has no verdict attr: %+v", i, root)
		}
		if a.Value() != wantVerdicts[i] {
			t.Errorf("span %d verdict = %v, want %q", i, a.Value(), wantVerdicts[i])
		}
		kids := children[root.ID]
		for _, phase := range []string{spanEstimateY, spanSendTxC, spanWaitX, spanPlantTxB, spanPlantTxA, spanDecide} {
			if kids[phase] != 1 {
				t.Errorf("span %d: %d %q children, want 1", i, kids[phase], phase)
			}
		}
		for _, phase := range []string{spanEvictZ, spanDrain} {
			if kids[phase] != 2 {
				t.Errorf("span %d: %d %q children, want 2", i, kids[phase], phase)
			}
		}
		if _, ok := root.Attr("y"); !ok {
			t.Errorf("span %d missing y attr", i)
		}
	}
}

// TestVerdictReasons pins the Step-4 decision over sightings (since the
// plant) and the trace-attribute spellings the measurement spans record.
// node's TestVantageIsolationRule feeds the same cases through the live
// node's handlers.
func TestVerdictReasons(t *testing.T) {
	const sink, other = types.NodeID(1), types.NodeID(2)
	deliver := func(p types.NodeID) gossip.Sighting { return gossip.Sighting{At: 1, Peer: p, Pushed: true} }
	announce := func(p types.NodeID) gossip.Sighting { return gossip.Sighting{At: 1, Peer: p} }
	for _, tc := range []struct {
		name string
		ss   []gossip.Sighting
		want Verdict
	}{
		{"nothing", nil, VerdictTimeout},
		{"sink delivers alone", []gossip.Sighting{deliver(sink)}, VerdictDetected},
		{"sink announces alone", []gossip.Sighting{announce(sink)}, VerdictTimeout},
		{"sink announces, then delivers", []gossip.Sighting{announce(sink), deliver(sink)}, VerdictDetected},
		{"another peer delivers too", []gossip.Sighting{deliver(sink), deliver(other)}, VerdictIsolationViolated},
		{"another peer announces too", []gossip.Sighting{deliver(sink), announce(other)}, VerdictIsolationViolated},
		{"only another peer delivers", []gossip.Sighting{deliver(other)}, VerdictReplacedElsewhere},
		{"only another peer announces", []gossip.Sighting{announce(other)}, VerdictReplacedElsewhere},
		{"sink announces, another delivers", []gossip.Sighting{announce(sink), deliver(other)}, VerdictReplacedElsewhere},
	} {
		if got := VerdictOf(sink, tc.ss); got != tc.want {
			t.Errorf("%s: verdict = %v, want %v", tc.name, got, tc.want)
		}
	}
	if VerdictTimeout.String() != "timeout" ||
		VerdictIsolationViolated.String() != "isolation-violated" ||
		VerdictReplacedElsewhere.String() != "replaced-elsewhere" ||
		VerdictDetected.String() != "detected" {
		t.Error("verdict strings drifted from the trace-attribute spellings")
	}
	if !VerdictDetected.Detected() || VerdictTimeout.Detected() {
		t.Error("Detected() classification wrong")
	}
}

// TestFirstEvidence pins the per-peer reduction DEthna and Ethna read: the
// earliest sighting per peer, a delivery beating an announcement at an equal
// time, sorted by (time, peer).
func TestFirstEvidence(t *testing.T) {
	got := FirstEvidence([]gossip.Sighting{
		{At: 3, Peer: 7},
		{At: 2, Peer: 9},
		{At: 2, Peer: 9, Pushed: true}, // same time: the delivery wins
		{At: 2, Peer: 4},
		{At: 1, Peer: 7, Pushed: true},
		{At: 4, Peer: 4, Pushed: true}, // later than peer 4's announcement
	})
	want := []gossip.Sighting{
		{At: 1, Peer: 7, Pushed: true},
		{At: 2, Peer: 4},
		{At: 2, Peer: 9, Pushed: true},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("FirstEvidence = %v, want %v", got, want)
	}
	if FirstEvidence(nil) == nil || len(FirstEvidence(nil)) != 0 {
		t.Fatal("no sightings must give an empty, non-nil list")
	}
}

// TestSightingsSince: the supernode's log answers Sightings from its
// arrival-ordered suffix — everything before since is dropped — with the
// delivery flag intact. Only a watched hash (one M injected) is logged, and
// Retire empties the log.
func TestSightingsSince(t *testing.T) {
	net, m, ids := buildRing(t, 4, 6)
	super := supernode(m)
	nd := net.Node(super.ID())
	tx := types.NewTransaction(types.AddressFromUint64(100), types.AddressFromUint64(101), 0, 1, 0)
	other := types.NewTransaction(types.AddressFromUint64(102), types.AddressFromUint64(103), 0, 1, 0)
	_ = super.Inject(ids[2], tx)
	nd.OnTxDelivered(ids[0], other, 1)
	nd.OnHashAnnounced(ids[1], other.Hash(), 2)
	nd.OnTxDelivered(ids[0], tx, 1)
	nd.OnHashAnnounced(ids[1], tx.Hash(), 2)
	nd.OnTxDelivered(ids[1], tx, 3)
	want := []gossip.Sighting{{At: 2, Peer: ids[1]}, {At: 3, Peer: ids[1], Pushed: true}}
	if got := super.Sightings(tx.Hash(), 1.5); !slices.Equal(got, want) {
		t.Fatalf("Sightings since 1.5 = %v, want %v", got, want)
	}
	if got := super.Sightings(tx.Hash(), 4); len(got) != 0 {
		t.Fatalf("Sightings after the last one = %v, want none", got)
	}
	if got := super.Sightings(other.Hash(), 0); len(got) != 0 {
		t.Fatalf("Sightings of a hash M never injected = %v, want none", got)
	}
	super.Retire()
	if got := super.Sightings(tx.Hash(), 0); len(got) != 0 {
		t.Fatalf("Sightings after Retire = %v, want none", got)
	}
	nd.OnTxDelivered(ids[1], tx, 5)
	if got := super.Sightings(tx.Hash(), 0); len(got) != 0 {
		t.Fatalf("Sightings of a retired hash = %v, want none", got)
	}
	if size := unsafe.Sizeof(gossip.Sighting{}); size != 16 {
		t.Fatalf("a sighting takes %d bytes, want 16", size)
	}
}

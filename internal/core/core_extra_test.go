package core

import (
	"math/rand"
	"sort"
	"testing"

	"toposhot/internal/chain"
	"toposhot/internal/ethsim"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// chainOf builds a chain holding the given blocks in order.
func chainOf(blocks ...*types.Block) *chain.Chain {
	c := chain.NewChain()
	for _, b := range blocks {
		c.Append(b)
	}
	return c
}

func TestEdgeSetBasics(t *testing.T) {
	s := NewEdgeSet()
	s.Add(2, 1)
	s.Add(1, 2) // duplicate, normalized
	s.Add(3, 3) // self edge ignored
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	if !s.Has(1, 2) || !s.Has(2, 1) {
		t.Fatal("normalized membership broken")
	}
	other := EdgeSetOf([][2]types.NodeID{{4, 5}})
	s.Union(other)
	if s.Len() != 2 {
		t.Fatalf("union len = %d", s.Len())
	}
	edges := s.Edges()
	if edges[0][0] != 1 || edges[1][0] != 4 {
		t.Fatalf("edges not sorted: %v", edges)
	}
}

func TestScoreMath(t *testing.T) {
	truth := EdgeSetOf([][2]types.NodeID{{1, 2}, {2, 3}, {3, 4}})
	measured := EdgeSetOf([][2]types.NodeID{{1, 2}, {2, 3}, {7, 8}})
	sc := ScoreAgainst(measured, truth, nil)
	if sc.TruePositives != 2 || sc.FalsePositives != 1 || sc.FalseNegatives != 1 {
		t.Fatalf("score = %+v", sc)
	}
	if sc.Precision() != 2.0/3 || sc.Recall() != 2.0/3 {
		t.Fatalf("precision=%v recall=%v", sc.Precision(), sc.Recall())
	}
	// Filter excludes node 7 and 8 → the FP is out of scope.
	filtered := ScoreAgainst(measured, truth, func(id types.NodeID) bool { return id < 7 })
	if filtered.FalsePositives != 0 {
		t.Fatalf("filtered FPs = %d", filtered.FalsePositives)
	}
	// Empty measurement: precision 1 by convention.
	empty := ScoreAgainst(NewEdgeSet(), truth, nil)
	if empty.Precision() != 1 || empty.Recall() != 0 {
		t.Fatalf("empty score = %v", empty)
	}
}

func TestLedgerAccounting(t *testing.T) {
	l := NewLedger()
	tx1 := types.NewTransaction(types.AddressFromUint64(1), types.AddressFromUint64(2), 0, 100, 0)
	tx2 := types.NewTransaction(types.AddressFromUint64(3), types.AddressFromUint64(4), 0, 200, 0)
	l.RecordPending(tx1)
	l.RecordPending(tx2)
	l.RecordFutures([]*types.Run{{From: tx1.From, Nonce: 1, Count: 1, Price: 100}}) // count only
	if l.PendingCount() != 2 || l.FutureCount() != 1 {
		t.Fatalf("counts wrong: %d/%d", l.PendingCount(), l.FutureCount())
	}
	wantWorst := float64(tx1.Fee() + tx2.Fee())
	if l.WorstCaseWei() != wantWorst {
		t.Fatalf("worst case = %v, want %v", l.WorstCaseWei(), wantWorst)
	}
	if Ether(1e18) != 1 {
		t.Fatal("wei→ether conversion wrong")
	}
}

// TestLedgerIncrementalTotalMatchesFullSort: the ledger keeps its
// hash-ordered slice between reads and merges in only what was recorded
// since. After each of three batches (fees large and varied enough that the
// float sum depends on the order of addition) the total must equal — with ==
// — a from-scratch sort of every transaction by hash followed by the same
// left-to-right sum, which is what every read used to do.
func TestLedgerIncrementalTotalMatchesFullSort(t *testing.T) {
	l := NewLedger()
	const base = 1.25e17
	l.RestoreAggregates(7, 0, base)
	rng := rand.New(rand.NewSource(3))
	var all []*types.Transaction
	for batch := 0; batch < 3; batch++ {
		for i := 0; i < 400; i++ {
			price := types.Gwei + uint64(rng.Int63n(int64(500*types.Gwei)))
			tx := types.NewTransaction(types.AddressFromUint64(uint64(len(all)+1)), types.AddressFromUint64(2), uint64(batch), price, 0)
			l.RecordPending(tx)
			all = append(all, tx)
		}
		l.RecordPending(all[rng.Intn(len(all))]) // recorded twice: priced once
		l.RecordPending(all[0].Copy())           // equal content behind another pointer: the same transaction

		ref := append([]*types.Transaction(nil), all...)
		sort.Slice(ref, func(i, j int) bool {
			hi, hj := ref[i].Hash(), ref[j].Hash()
			return string(hi[:]) < string(hj[:])
		})
		want := float64(base)
		for _, tx := range ref {
			want += float64(tx.Fee())
		}
		if got := l.WorstCaseWei(); got != want {
			t.Fatalf("batch %d: total %v, full sort-and-sum %v", batch, got, want)
		}
		if l.PendingCount() != len(all)+7 {
			t.Fatalf("batch %d: PendingCount %d, want %d", batch, l.PendingCount(), len(all)+7)
		}
	}
	// A sum in recording order differs: the order is what the test pins.
	unordered := float64(base)
	for _, tx := range all {
		unordered += float64(tx.Fee())
	}
	if unordered == l.WorstCaseWei() {
		t.Fatal("fees too tame: the float total does not depend on order, so the test shows nothing")
	}
}

func TestNIVerifierConditions(t *testing.T) {
	full := &types.Block{Number: 1, Time: 10, GasLimit: types.TxGasTransfer,
		GasUsed: types.TxGasTransfer,
		Txs: []*types.Transaction{
			types.NewTransaction(types.AddressFromUint64(1), types.AddressFromUint64(2), 0, 1000, 0),
		}}
	slack := &types.Block{Number: 2, Time: 20, GasLimit: 10 * types.TxGasTransfer,
		GasUsed: types.TxGasTransfer,
		Txs: []*types.Transaction{
			types.NewTransaction(types.AddressFromUint64(3), types.AddressFromUint64(4), 0, 50, 0),
		}}
	c := chainOf(full, slack)
	v := NIVerifier{Chain: c, Y0: 100, T1: 0, T2: 15, Expiry: 10}
	violations := v.Check()
	// Block 2 (time 20 ≤ T2+Expiry=25) violates both V1 (not full) and V2
	// (tx priced 50 ≤ 100); block 1 is clean.
	if len(violations) != 2 {
		t.Fatalf("violations = %v", violations)
	}
	if len(v.Check()) == 0 {
		t.Fatal("verifier passes a window with violations")
	}
	clean := NIVerifier{Chain: c, Y0: 10, T1: 0, T2: 4, Expiry: 7}
	// Window [0,11]: only block 1, which is full with tx priced 1000 > 10.
	if len(clean.Check()) != 0 {
		t.Fatalf("clean window flagged: %v", clean.Check())
	}
}

func TestSafeY0(t *testing.T) {
	b := &types.Block{Number: 1, Txs: []*types.Transaction{
		types.NewTransaction(types.AddressFromUint64(1), types.AddressFromUint64(2), 0, 1000, 0),
		types.NewTransaction(types.AddressFromUint64(3), types.AddressFromUint64(4), 0, 400, 0),
	}}
	c := chainOf(b)
	if y := SafeY0(c); y != 200 {
		t.Fatalf("SafeY0 = %d, want 200 (half of 400)", y)
	}
	if y := SafeY0(chain.NewChain()); y != 0 {
		t.Fatalf("empty chain Y0 = %d", y)
	}
}

func TestCompareTwinWorlds(t *testing.T) {
	mk := func(price uint64) *chain.Chain {
		return chainOf(&types.Block{Number: 1, Txs: []*types.Transaction{
			types.NewTransaction(types.AddressFromUint64(1), types.AddressFromUint64(2), 0, price, 0),
		}})
	}
	same := CompareTwinWorlds(mk(100), mk(100))
	if same.Interfered() || same.BlocksCompared != 1 {
		t.Fatalf("identical worlds flagged: %+v", same)
	}
	diff := CompareTwinWorlds(mk(100), mk(200))
	if !diff.Interfered() {
		t.Fatal("different worlds not flagged")
	}
}

func TestFilterMeasurement(t *testing.T) {
	l := NewLedger()
	mtx := types.NewTransaction(types.AddressFromUint64(1), types.AddressFromUint64(2), 0, 5, 0)
	other := types.NewTransaction(types.AddressFromUint64(3), types.AddressFromUint64(4), 0, 6, 0)
	l.RecordPending(mtx)
	b := &types.Block{Number: 1, Txs: []*types.Transaction{mtx, other}}
	got := FilterMeasurement(b, l)
	if len(got.Txs) != 1 || got.Txs[0].Hash() != other.Hash() {
		t.Fatalf("filter kept %v", got.Txs)
	}
	if len(b.Txs) != 2 {
		t.Fatal("filter mutated the original block")
	}
}

func TestPreprocessExcludesMisbehavers(t *testing.T) {
	cfg := ethsim.DefaultConfig(21)
	cfg.LatencyTail = 0.02
	cfg.LatencyMax = 0.5
	net := ethsim.NewNetwork(cfg)
	pol := txpool.Geth.WithCapacity(256)
	good := net.AddNode(ethsim.NodeConfig{Policy: pol})
	fwd := net.AddNode(ethsim.NodeConfig{Policy: pol, ForwardFutures: true})
	dead := net.AddNode(ethsim.NodeConfig{Policy: pol, Unresponsive: true})
	aleth := net.AddNode(ethsim.NodeConfig{Policy: txpool.Aleth.WithCapacity(256)})
	// Link everyone so forwarded futures can reach the supernode.
	_ = net.Connect(good.ID(), fwd.ID())
	super := ethsim.NewSupernode(net)
	super.ConnectAll()
	params := DefaultParams()
	params.Z = 256
	m := NewMeasurer(net, super, params)
	rep := m.Preprocess([]types.NodeID{good.ID(), fwd.ID(), dead.ID(), aleth.ID()})
	if !rep.Eligible(good.ID()) {
		t.Error("conforming node excluded")
	}
	if rep.Eligible(fwd.ID()) {
		t.Error("future-forwarder not excluded")
	}
	if rep.Eligible(dead.ID()) {
		t.Error("unresponsive node not excluded")
	}
	if rep.Eligible(aleth.ID()) {
		t.Error("zero-R client not excluded")
	}
	elig := rep.EligibleNodes([]types.NodeID{good.ID(), fwd.ID(), dead.ID(), aleth.ID()})
	if len(elig) != 1 || elig[0] != good.ID() {
		t.Errorf("eligible = %v", elig)
	}
}

// TestEntryNodesAreLinkedPeers: Preprocess leaves its monitor supernode in
// the world with every link retired. A batch that leaves only a few
// non-participants must seed its txC floods through M's linked peers, never
// through that isolated node, whose txCs would never flood.
func TestEntryNodesAreLinkedPeers(t *testing.T) {
	net, m, ids := buildRing(t, 8, 7)
	m.Preprocess(ids)
	var edges []Edge
	for _, a := range ids[:3] {
		for _, b := range ids[3:6] {
			edges = append(edges, Edge{Source: a, Sink: b})
		}
	}
	sources, sinks := participantSets(edges)
	for _, e := range m.entryNodes(sources, sinks) {
		if !net.Connected(supernode(m).ID(), e) {
			t.Errorf("flood entry %v is not linked to M", e)
		}
	}
}

func TestMeasureOneLinkErrors(t *testing.T) {
	_, m, ids := buildRing(t, 4, 41)
	if _, err := m.MeasureOneLink(ids[0], ids[0]); err == nil {
		t.Error("self-measurement accepted")
	}
	if _, err := m.MeasureOneLink(ids[0], 999); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestPriceLadderInvariants(t *testing.T) {
	p := DefaultParams()
	for _, y := range []uint64{1000, 999999937, 123456789} {
		txB := p.PriceTxB(y)
		txA := p.PriceTxA(y)
		fut := p.PriceFuture(y)
		geth := txpool.Geth
		// txA replaces txB but not txC.
		if txA < geth.ReplaceThreshold(txB) {
			t.Errorf("y=%d: txA cannot replace txB", y)
		}
		if txA >= geth.ReplaceThreshold(y) {
			t.Errorf("y=%d: txA can replace txC — isolation broken", y)
		}
		// txB cannot replace txC; txC cannot replace txB.
		if txB >= geth.ReplaceThreshold(y) {
			t.Errorf("y=%d: txB can replace txC", y)
		}
		if y >= geth.ReplaceThreshold(txB) {
			t.Errorf("y=%d: txC can replace txB back", y)
		}
		// Futures outbid txC for eviction.
		if fut <= y {
			t.Errorf("y=%d: futures cannot evict txC", y)
		}
	}
}

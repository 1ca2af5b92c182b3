package ethsim

import (
	"fmt"
	"slices"
	"testing"

	"toposhot/internal/gossip"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

func testNet(seed int64) *Network {
	cfg := DefaultConfig(seed)
	cfg.LatencyTail = 0.02
	cfg.LatencyMax = 0.5
	return NewNetwork(cfg)
}

func addNodes(net *Network, n int, capacity int) []types.NodeID {
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = net.AddNode(NodeConfig{Policy: txpool.Geth.WithCapacity(capacity), MaxPeers: 50}).ID()
	}
	return ids
}

func TestConnectDisconnect(t *testing.T) {
	net := testNet(1)
	ids := addNodes(net, 3, 64)
	if err := net.Connect(ids[0], ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := net.Connect(ids[0], ids[0]); err == nil {
		t.Fatal("self-link accepted")
	}
	if err := net.Connect(ids[0], 999); err == nil {
		t.Fatal("unknown node accepted")
	}
	if !net.Connected(ids[0], ids[1]) || net.Connected(ids[0], ids[2]) {
		t.Fatal("connectivity wrong")
	}
	net.Disconnect(ids[0], ids[1])
	if net.Connected(ids[0], ids[1]) {
		t.Fatal("disconnect failed")
	}
}

func TestEdgesNormalized(t *testing.T) {
	net := testNet(2)
	ids := addNodes(net, 4, 64)
	_ = net.Connect(ids[2], ids[0])
	_ = net.Connect(ids[1], ids[3])
	edges := net.Edges()
	if len(edges) != 2 {
		t.Fatalf("edges = %d", len(edges))
	}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Fatalf("edge not normalized: %v", e)
		}
	}
}

func TestGossipReachesAllNodes(t *testing.T) {
	net := testNet(3)
	ids := addNodes(net, 20, 256)
	// Ring plus chords.
	for i := range ids {
		_ = net.Connect(ids[i], ids[(i+1)%len(ids)])
		_ = net.Connect(ids[i], ids[(i+5)%len(ids)])
	}
	tx := types.NewTransaction(types.AddressFromUint64(1), types.AddressFromUint64(2), 0, types.Gwei, 0)
	net.Node(ids[0]).SubmitLocal(tx)
	net.RunFor(10)
	for _, id := range ids {
		if !net.Node(id).Pool().Has(tx.Hash()) {
			t.Fatalf("node %v missed the gossip", id)
		}
	}
}

func TestFuturesStayLocal(t *testing.T) {
	net := testNet(4)
	ids := addNodes(net, 5, 64)
	for i := 0; i+1 < len(ids); i++ {
		_ = net.Connect(ids[i], ids[i+1])
	}
	fut := types.NewTransaction(types.AddressFromUint64(3), types.AddressFromUint64(4), 5, types.Gwei, 0)
	net.Node(ids[0]).SubmitLocal(fut)
	net.RunFor(5)
	for _, id := range ids[1:] {
		if net.Node(id).Pool().Has(fut.Hash()) {
			t.Fatalf("future gossiped to %v", id)
		}
	}
}

func TestForwardFuturesNode(t *testing.T) {
	net := testNet(5)
	a := net.AddNode(NodeConfig{Policy: txpool.Geth.WithCapacity(64), ForwardFutures: true})
	b := net.AddNode(NodeConfig{Policy: txpool.Geth.WithCapacity(64)})
	_ = net.Connect(a.ID(), b.ID())
	fut := types.NewTransaction(types.AddressFromUint64(3), types.AddressFromUint64(4), 5, types.Gwei, 0)
	a.SubmitLocal(fut)
	net.RunFor(5)
	if !b.Pool().Has(fut.Hash()) {
		t.Fatal("future-forwarding node did not forward")
	}
}

func TestNoForwardNode(t *testing.T) {
	net := testNet(6)
	a := net.AddNode(NodeConfig{Policy: txpool.Geth.WithCapacity(64), NoForward: true})
	b := net.AddNode(NodeConfig{Policy: txpool.Geth.WithCapacity(64)})
	c := net.AddNode(NodeConfig{Policy: txpool.Geth.WithCapacity(64)})
	_ = net.Connect(a.ID(), b.ID())
	_ = net.Connect(a.ID(), c.ID())
	tx := types.NewTransaction(types.AddressFromUint64(1), types.AddressFromUint64(2), 0, types.Gwei, 0)
	// b submits; a receives but must not relay to c.
	_ = net.Connect(b.ID(), a.ID())
	b.SubmitLocal(tx)
	net.RunFor(5)
	if !a.Pool().Has(tx.Hash()) {
		t.Fatal("a did not receive")
	}
	if c.Pool().Has(tx.Hash()) {
		t.Fatal("no-forward node relayed")
	}
}

func TestUnresponsiveNodeDropsEverything(t *testing.T) {
	net := testNet(7)
	a := net.AddNode(NodeConfig{Policy: txpool.Geth.WithCapacity(64)})
	dead := net.AddNode(NodeConfig{Policy: txpool.Geth.WithCapacity(64), Unresponsive: true})
	_ = net.Connect(a.ID(), dead.ID())
	tx := types.NewTransaction(types.AddressFromUint64(1), types.AddressFromUint64(2), 0, types.Gwei, 0)
	a.SubmitLocal(tx)
	net.RunFor(5)
	if dead.Pool().Len() != 0 {
		t.Fatal("unresponsive node admitted a transaction")
	}
	if _, err := dead.RPC().ClientVersion(); err == nil {
		t.Fatal("unresponsive RPC answered")
	}
}

func TestSupernodeObservesSources(t *testing.T) {
	net := testNet(8)
	ids := addNodes(net, 3, 64)
	for i := 0; i+1 < len(ids); i++ {
		_ = net.Connect(ids[i], ids[i+1])
	}
	super := NewSupernode(net)
	super.ConnectAll()
	tx := types.NewTransaction(types.AddressFromUint64(1), types.AddressFromUint64(2), 0, types.Gwei, 0)
	super.Inject(ids[0], tx)
	net.RunFor(5)
	// Everyone got it, and M observed it from at least one real peer.
	if !net.Node(ids[2]).Pool().Has(tx.Hash()) {
		t.Fatal("injection did not propagate")
	}
	seen := super.Sightings(tx.Hash(), 0)
	if !slices.ContainsFunc(seen, func(s gossip.Sighting) bool { return s.Pushed }) {
		t.Fatal("supernode observed no delivery")
	}
	if slices.ContainsFunc(seen, func(s gossip.Sighting) bool { return s.Peer == super.ID() }) {
		t.Fatal("supernode observed itself")
	}
}

func TestSupernodeInjectionOrderFIFO(t *testing.T) {
	net := testNet(9)
	ids := addNodes(net, 1, 8)
	super := NewSupernode(net)
	super.ConnectAll()
	target := ids[0]
	// Fill the pool, then a same-sender/nonce pair: the replacement must
	// arrive after the original (FIFO), so the pool ends with the bump.
	acct := types.AddressFromUint64(42)
	first := types.NewTransaction(acct, acct, 0, 1000, 0)
	second := types.NewTransaction(acct, acct, 0, 1100, 0)
	super.Inject(target, first)
	super.Inject(target, second)
	net.RunFor(5)
	pool := net.Node(target).Pool()
	if !pool.Has(second.Hash()) || pool.Has(first.Hash()) {
		t.Fatal("injection order violated FIFO")
	}
}

func TestRPCQueries(t *testing.T) {
	net := testNet(10)
	ids := addNodes(net, 2, 64)
	_ = net.Connect(ids[0], ids[1])
	nd := net.Node(ids[0])
	v, err := nd.RPC().ClientVersion()
	if err != nil || v == "" {
		t.Fatalf("clientVersion: %q %v", v, err)
	}
	tx := types.NewTransaction(types.AddressFromUint64(1), types.AddressFromUint64(2), 0, types.Gwei, 0)
	nd.SubmitLocal(tx)
	got, err := nd.RPC().GetTransactionByHash(tx.Hash())
	if err != nil || got == nil {
		t.Fatal("getTransactionByHash failed")
	}
	// Asked by object: the same answer for the held object and for another of
	// equal content, no for a transaction that differs in its payload only.
	other := tx.Copy()
	other.Value++
	for _, c := range []struct {
		tx   *types.Transaction
		want bool
	}{{tx, true}, {tx.Copy(), true}, {other, false}} {
		if held, err := nd.RPC().HasTransaction(c.tx); err != nil || held != c.want {
			t.Fatalf("hasTransaction(%v) = %v, %v; want %v", c.tx, held, err, c.want)
		}
	}
	peers, err := nd.RPC().PeerList()
	if err != nil || len(peers) != 1 || peers[0] != ids[1] {
		t.Fatalf("peerList = %v", peers)
	}
	p, f, err := nd.RPC().TxpoolStatus()
	if err != nil || p != 1 || f != 0 {
		t.Fatalf("txpoolStatus = %d/%d", p, f)
	}
}

func TestVersionTag(t *testing.T) {
	net := testNet(11)
	nd := net.AddNode(NodeConfig{Policy: txpool.Geth, VersionTag: "SrvM1-backend-03"})
	v, _ := nd.RPC().ClientVersion()
	if v == txpool.Geth.ClientVersion {
		t.Fatal("version tag not appended")
	}
}

func TestWorkloadPrefillPopulatesPools(t *testing.T) {
	net := testNet(12)
	ids := addNodes(net, 5, 512)
	for i := 0; i+1 < len(ids); i++ {
		_ = net.Connect(ids[i], ids[i+1])
	}
	w := NewWorkload(net, 0, types.Gwei/10, 2*types.Gwei)
	w.Prefill(200, 5)
	for _, id := range ids {
		if got := net.Node(id).Pool().PendingCount(); got < 150 {
			t.Fatalf("node %v pending = %d after prefill", id, got)
		}
	}
}

func TestWorkloadRateProducesTraffic(t *testing.T) {
	net := testNet(13)
	ids := addNodes(net, 3, 512)
	_ = net.Connect(ids[0], ids[1])
	_ = net.Connect(ids[1], ids[2])
	w := NewWorkload(net, 5, types.Gwei, 2*types.Gwei)
	w.Start(0)
	net.RunFor(20)
	w.Stop()
	if got := net.Node(ids[1]).Pool().Len(); got < 50 {
		t.Fatalf("pool after 20s of 5/s workload = %d", got)
	}
}

func TestJanitorExpiresPools(t *testing.T) {
	net := testNet(14)
	nd := net.AddNode(NodeConfig{Policy: txpool.Geth.WithCapacity(64).WithExpiry(10)})
	tx := types.NewTransaction(types.AddressFromUint64(1), types.AddressFromUint64(2), 0, types.Gwei, 0)
	nd.SubmitLocal(tx)
	net.StartJanitor(5)
	net.RunFor(30)
	if nd.Pool().Has(tx.Hash()) {
		t.Fatal("janitor did not expire the transaction")
	}
}

// TestDeliveryWatermarksPruned: the per-link FIFO watermark map must not
// grow without bound over a long run — janitor ticks drop watermarks older
// than the latency horizon, and traffic that stops leaves the map empty.
func TestDeliveryWatermarksPruned(t *testing.T) {
	net := testNet(21)
	ids := addNodes(net, 12, 256)
	for i := range ids {
		_ = net.Connect(ids[i], ids[(i+1)%len(ids)])
		_ = net.Connect(ids[i], ids[(i+5)%len(ids)])
	}
	net.StartJanitor(5)
	w := NewWorkload(net, 2, types.Gwei, 2*types.Gwei)
	w.Start(0)
	net.RunFor(60)
	w.Stop()
	if net.liveDeliveryMarks() == 0 {
		t.Fatal("no watermarks while traffic flows — test is vacuous")
	}
	// All deliveries land within LatencyMax+SpikeMax; two janitor ticks
	// beyond that horizon must clear every stale watermark.
	net.RunFor(net.Config().LatencyMax + net.Config().SpikeMax + 11)
	if n := net.liveDeliveryMarks(); n != 0 {
		t.Fatalf("%d live watermarks survived past the horizon", n)
	}
}

// TestDeliveryPruningPreservesReplay: pruning only removes watermarks that
// can never clamp a future delivery, so a run with aggressive janitor ticks
// must replay identically to one with none.
func TestDeliveryPruningPreservesReplay(t *testing.T) {
	run := func(janitor float64) string {
		net := testNet(33)
		ids := addNodes(net, 10, 256)
		for i := range ids {
			_ = net.Connect(ids[i], ids[(i+1)%len(ids)])
		}
		if janitor > 0 {
			net.StartJanitor(janitor)
		}
		w := NewWorkload(net, 3, types.Gwei, 2*types.Gwei)
		w.Start(0)
		net.RunFor(45)
		w.Stop()
		sum := ""
		for _, id := range ids {
			sum += fmt.Sprintf("%d/", net.Node(id).Pool().Len())
		}
		return sum
	}
	if a, b := run(0), run(0.5); a != b {
		t.Fatalf("janitor pruning changed the replay: %s vs %s", a, b)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() int {
		net := testNet(99)
		ids := addNodes(net, 10, 256)
		for i := range ids {
			_ = net.Connect(ids[i], ids[(i+1)%len(ids)])
		}
		w := NewWorkload(net, 3, types.Gwei, 2*types.Gwei)
		w.Start(0)
		net.RunFor(30)
		return net.Node(ids[0]).Pool().Len()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("seeded replay diverged: %d vs %d", a, b)
	}
}

// liveDeliveryMarks counts FIFO watermarks still able to clamp a future
// send: dense in-arena marks at or past the horizon plus every overflow
// entry. It is the boundedness observable the lastDelivery regression test
// asserts on.
func (n *Network) liveDeliveryMarks() int {
	horizon := n.eng.Now() - (n.cfg.LatencyMax + n.cfg.SpikeMax)
	live := len(n.overflowMark)
	for _, nd := range n.nodes {
		for _, mark := range nd.marksSeg() {
			if mark >= horizon && mark > 0 {
				live++
			}
		}
	}
	return live
}

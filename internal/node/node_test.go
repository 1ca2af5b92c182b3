package node

import (
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"toposhot/internal/core"
	"toposhot/internal/ethsim"
	"toposhot/internal/gossip"
	"toposhot/internal/obs"
	"toposhot/internal/strategy"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
	"toposhot/internal/wire"
)

const testNetID = 1337

func startTestNode(t *testing.T, seed int64) *Node {
	t.Helper()
	n, err := Start(Config{
		ClientVersion: "geth-lite/test",
		NetworkID:     testNetID,
		Policy:        txpool.Geth.WithCapacity(256),
		MaxPeers:      32,
		Seed:          seed,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n
}

// waitFor polls cond until true or the deadline elapses.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return cond()
}

func TestHandshakeAndPeering(t *testing.T) {
	a := startTestNode(t, 1)
	b := startTestNode(t, 2)
	if err := a.Dial(b.Addr()); err != nil {
		t.Fatalf("dial: %v", err)
	}
	if !waitFor(t, 2*time.Second, func() bool { return a.PeerCount() == 1 && b.PeerCount() == 1 }) {
		t.Fatalf("peer counts: a=%d b=%d", a.PeerCount(), b.PeerCount())
	}
}

func TestNetworkIDMismatchRejected(t *testing.T) {
	a := startTestNode(t, 3)
	other, err := Start(Config{
		ClientVersion: "geth-lite/other",
		NetworkID:     testNetID + 1,
		Policy:        txpool.Geth.WithCapacity(64),
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	defer other.Close()
	if err := a.Dial(other.Addr()); err == nil {
		t.Fatal("dial across network ids succeeded, want handshake error")
	}
}

func TestGossipAcrossChain(t *testing.T) {
	// a — b — c: a submission must reach c through b.
	a := startTestNode(t, 4)
	b := startTestNode(t, 5)
	c := startTestNode(t, 6)
	if err := a.Dial(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.Dial(c.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return b.PeerCount() == 2 })
	tx := types.NewTransaction(types.AddressFromUint64(1), types.AddressFromUint64(2), 0, types.Gwei, 0)
	if st := a.SubmitLocal(tx); st != txpool.StatusPending {
		t.Fatalf("submit: %v", st)
	}
	if !waitFor(t, 3*time.Second, func() bool { return c.HasTx(tx.Hash()) }) {
		t.Fatalf("tx did not reach node c")
	}
}

func TestFuturesNotGossiped(t *testing.T) {
	a := startTestNode(t, 7)
	b := startTestNode(t, 8)
	if err := a.Dial(b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return b.PeerCount() == 1 })
	future := types.NewTransaction(types.AddressFromUint64(3), types.AddressFromUint64(4), 5, types.Gwei, 0)
	if st := a.SubmitLocal(future); st != txpool.StatusFuture {
		t.Fatalf("submit: %v", st)
	}
	time.Sleep(300 * time.Millisecond)
	if b.HasTx(future.Hash()) {
		t.Fatal("future transaction was gossiped")
	}
}

// TestFanoutIndependentOfMapOrder: two nodes with one seed and one peer set
// must split every propagation into the same push and announce sets. The
// peers live in a map, so a split drawn over map order differs between the
// two (Go randomizes each iteration) within a few rounds. The split follows
// the shared rule: ⌈√16⌉ = 4 push slots of a permutation over all 16 peers,
// the source's slot skipped rather than refilled.
func TestFanoutIndependentOfMapOrder(t *testing.T) {
	const seed = 11
	newNode := func() *Node {
		n := &Node{peers: make(map[string]*peer), rng: rand.New(rand.NewSource(seed))}
		for i := 0; i < 16; i++ {
			addr := fmt.Sprintf("10.0.0.%d:30303", i)
			n.peers[addr] = &peer{addr: addr}
		}
		return n
	}
	a, b := newNode(), newNode()
	var sorted []string
	for addr := range a.peers {
		sorted = append(sorted, addr)
	}
	slices.Sort(sorted)
	ref := rand.New(rand.NewSource(seed)) // replays the draws to find the source's slot
	addrs := func(ps []*peer) []string {
		out := make([]string, len(ps))
		for i, p := range ps {
			out[i] = p.addr
		}
		return out
	}
	sourcePushSlots := 0
	for round := 0; round < 200; round++ {
		exclude := fmt.Sprintf("10.0.0.%d:30303", round%16)
		wantPush := 4
		if slot := slices.IndexFunc(ref.Perm(16), func(pi int) bool { return sorted[pi] == exclude }); slot < 4 {
			wantPush, sourcePushSlots = 3, sourcePushSlots+1
		}
		pushA, annA := a.fanout(exclude)
		pushB, annB := b.fanout(exclude)
		if len(pushA) != wantPush || len(pushA)+len(annA) != 15 {
			t.Fatalf("round %d: split %d/%d of the 15 non-source peers, want %d pushed", round, len(pushA), len(annA), wantPush)
		}
		if slices.Contains(addrs(pushA), exclude) || slices.Contains(addrs(annA), exclude) {
			t.Fatalf("round %d: the source %s was sent its own transactions", round, exclude)
		}
		if !slices.Equal(addrs(pushA), addrs(pushB)) || !slices.Equal(addrs(annA), addrs(annB)) {
			t.Fatalf("round %d: same seed and peers, different splits:\n push %v\n   vs %v", round, addrs(pushA), addrs(pushB))
		}
	}
	if sourcePushSlots == 0 {
		t.Fatal("the source never drew a push slot in 200 rounds; the skip rule went untested")
	}
}

// TestLiveAnnounceLocksExpire: an announced hash is requested once per
// gossip.AnnounceLock window, requested again once the window has passed,
// and the lock table drains back to empty when a later announcement sweeps
// it — no lock outlives its window on a long-running node.
func TestLiveAnnounceLocksExpire(t *testing.T) {
	local, remote := net.Pipe()
	defer local.Close()
	defer remote.Close()
	clock := 0.0
	n := &Node{pool: txpool.New(txpool.Geth.WithCapacity(16)), now: func() float64 { return clock }}
	p := &peer{conn: local, addr: "announcer", w: local, writeTimeout: DefaultWriteTimeout}
	requests := make(chan []types.Hash)
	go func() {
		for {
			m, err := wire.ReadMsg(remote)
			if err != nil {
				return
			}
			if m.Code == wire.CodeGetPooledTransactions {
				requests <- m.Hashes
			}
		}
	}()
	expect := func(step string, want bool) {
		t.Helper()
		select {
		case hs := <-requests:
			if !want {
				t.Fatalf("%s: unexpected request for %d hashes", step, len(hs))
			}
		case <-time.After(200 * time.Millisecond):
			if want {
				t.Fatalf("%s: no request", step)
			}
		}
	}
	locks := func() int {
		live := 0
		n.locks.Live(func(types.Hash, float64) { live++ })
		return live
	}
	h := types.Hash{31: 0xaa}

	n.handleAnnounce(p, []types.Hash{h})
	expect("first announcement", true)
	clock = 1
	n.handleAnnounce(p, []types.Hash{h})
	expect("announcement inside the window", false)
	clock = gossip.AnnounceLock + 0.5
	n.handleAnnounce(p, []types.Hash{h})
	expect("announcement after the window", true)
	if got := locks(); got != 1 {
		t.Fatalf("lock table holds %d locks after re-arming one hash, want 1", got)
	}
	clock = 3 * gossip.AnnounceLock
	n.handleAnnounce(p, nil)
	if got := locks(); got != 0 {
		t.Fatalf("lock table holds %d locks after the sweep, want 0", got)
	}
}

// startVantage starts a live vantage dialed into every node, returning the
// ids the probe addresses them by, in node order.
func startVantage(t *testing.T, nodes []*Node) (*Vantage, []types.NodeID) {
	t.Helper()
	v, err := NewVantage(testNetID, 99)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = v.Close() })
	ids := make([]types.NodeID, len(nodes))
	for i, nd := range nodes {
		if ids[i], err = v.Dial(nd.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	return v, ids
}

// startTopology starts n live nodes linked along edges (index pairs).
func startTopology(t *testing.T, n int, edges [][2]int) []*Node {
	t.Helper()
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = startTestNode(t, int64(10+i))
	}
	for _, e := range edges {
		if err := nodes[e[0]].Dial(nodes[e[1]].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	return nodes
}

// pathEdges links 0 — 1 — … — n-1.
func pathEdges(n int) [][2]int {
	var out [][2]int
	for i := 0; i+1 < n; i++ {
		out = append(out, [2]int{i, i + 1})
	}
	return out
}

// TestLiveTopoShot runs core.Measurer's four-step primitive over real TCP
// sockets: a 5-node path topology; adjacent pair detected, non-adjacent pair
// not.
func TestLiveTopoShot(t *testing.T) {
	v, ids := startVantage(t, startTopology(t, 5, pathEdges(5)))
	m := core.NewMeasurerAt(v, DefaultProbeParams(256))
	got, err := m.MeasureOneLink(ids[1], ids[2])
	if err != nil {
		t.Fatalf("measure adjacent: %v", err)
	}
	if !got {
		t.Error("adjacent pair 1-2 not detected over TCP")
	}
	got, err = m.MeasureOneLink(ids[0], ids[4])
	if err != nil {
		t.Fatalf("measure non-adjacent: %v", err)
	}
	if got {
		t.Error("false positive on non-adjacent pair 0-4 over TCP")
	}
}

// TestLiveMeasurePar drives the parallel primitive over TCP on a two-edge
// batch of the 5-node path: one linked pair, one not, both set up (the p2
// GetPooledTransactions check passes) and judged correctly.
func TestLiveMeasurePar(t *testing.T) {
	v, ids := startVantage(t, startTopology(t, 5, pathEdges(5)))
	m := core.NewMeasurerAt(v, DefaultProbeParams(256))
	res, err := m.MeasurePar([]core.Edge{{Source: ids[1], Sink: ids[2]}, {Source: ids[0], Sink: ids[4]}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SetupFailed) != 0 {
		t.Errorf("setup failed on %v", res.SetupFailed)
	}
	if !res.Detected.Has(ids[1], ids[2]) || res.Detected.Len() != 1 {
		t.Errorf("detected %v, want exactly 1-2", res.Detected.Edges())
	}
}

// censusGraph is the fixed 8-node topology the live census and comparison
// run on: a ring with two chords.
func censusGraph() (int, [][2]int) {
	const n = 8
	return n, append(pathEdges(n), [2]int{7, 0}, [2]int{0, 4}, [2]int{2, 6})
}

// simGraph builds the simulator's copy of a topology: capped-pool Geth nodes,
// in node order, and a supernode linked to each.
func simGraph(t *testing.T, n int, edges [][2]int) (*ethsim.Network, *ethsim.Supernode, []types.NodeID) {
	t.Helper()
	net := ethsim.NewNetwork(ethsim.DefaultConfig(1))
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = net.AddNode(ethsim.NodeConfig{Policy: txpool.Geth.WithCapacity(256)}).ID()
	}
	for _, e := range edges {
		if err := net.Connect(ids[e[0]], ids[e[1]]); err != nil {
			t.Fatal(err)
		}
	}
	super := ethsim.NewSupernode(net)
	super.ConnectAll()
	return net, super, ids
}

// simParams is the simulator's counterpart of DefaultProbeParams(256): the
// same Y and Z at the paper's waits.
func simParams() core.Params {
	params := core.DefaultParams()
	params.Y, params.Z = types.Gwei, 256
	return params
}

// TestLiveCensus runs the two-round schedule over TCP on a fixed 8-node
// topology and over the simulator on the same graph: both must return the
// true edge set.
func TestLiveCensus(t *testing.T) {
	n, edges := censusGraph()
	edgeSet := func(ids []types.NodeID) *core.EdgeSet {
		s := core.NewEdgeSet()
		for _, e := range edges {
			s.Add(ids[e[0]], ids[e[1]])
		}
		return s
	}
	started := time.Now()
	v, ids := startVantage(t, startTopology(t, n, edges))
	live, err := core.NewMeasurerAt(v, DefaultProbeParams(256)).MeasureNetwork(ids, 4, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(started); elapsed > 15*time.Second {
		t.Errorf("loopback census took %v, want under 15 s", elapsed)
	}

	net, super, simIDs := simGraph(t, n, edges)
	sim, err := core.NewMeasurer(net, super, simParams()).MeasureNetwork(simIDs, 4, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := live.Detected.Edges(), edgeSet(ids).Edges(); !slices.Equal(got, want) {
		t.Errorf("live census found %v, want %v", got, want)
	}
	if got, want := sim.Detected.Edges(), edgeSet(simIDs).Edges(); !slices.Equal(got, want) {
		t.Errorf("simulated census found %v, want %v", got, want)
	}
}

// pairClaims lists an outcome's per-pair claims in campaign order, from its
// ledger's pair records.
func pairClaims(o *strategy.Outcome) []strategy.Claim {
	var out []strategy.Claim
	for _, r := range o.Ledger.Records() {
		if r.Kind == obs.KindPair {
			out = append(out, strategy.Claim{Detected: r.Detected, Verdict: r.Verdict})
		}
	}
	return out
}

// TestLiveCompare runs all four strategies over the census graph, each on
// its own loopback copy and on its own simulated copy, over two links and two
// non-links. The loopback campaigns run at once, since they mostly wait.
// TopoShot must agree with the simulator and the truth on every pair. The
// rivals read timing on wall time, so a verdict of theirs may differ from the
// simulator's; every such pair is counted and logged. Every strategy must
// spend exactly what it spends in the simulator.
func TestLiveCompare(t *testing.T) {
	n, edges := censusGraph()
	pairs := [][2]int{{0, 1}, {2, 6}, {1, 5}, {3, 7}}
	idPairs := func(ids []types.NodeID) [][2]types.NodeID {
		out := make([][2]types.NodeID, len(pairs))
		for i, pr := range pairs {
			out[i] = [2]types.NodeID{ids[pr[0]], ids[pr[1]]}
		}
		return out
	}
	linked := func(pr [2]int) bool {
		return slices.ContainsFunc(edges, func(e [2]int) bool { return e == pr || e == [2]int{pr[1], pr[0]} })
	}
	const samples = 16
	methods := strategy.Methods()
	lives := make([]*strategy.Outcome, len(methods))
	errs := make([]error, len(methods))
	var wg sync.WaitGroup
	for i, m := range methods {
		v, ids := startVantage(t, startTopology(t, n, edges))
		s, err := strategy.NewMethodAt(m, v, strategy.Config{Params: DefaultProbeParams(256), EthnaSamples: samples})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			lives[i], errs[i] = strategy.RunPairs(nil, nil, v, s, idPairs(ids))
		}()
	}
	wg.Wait()
	for i, m := range methods {
		t.Run(string(m), func(t *testing.T) {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			net, super, simIDs := simGraph(t, n, edges)
			s, err := strategy.NewMethod(m, net, super, strategy.Config{Params: simParams(), EthnaSamples: samples})
			if err != nil {
				t.Fatal(err)
			}
			sim, err := strategy.RunPairs(nil, nil, net, s, idPairs(simIDs))
			if err != nil {
				t.Fatal(err)
			}
			live, differ := lives[i], 0
			liveClaims, simClaims := pairClaims(live), pairClaims(sim)
			for j, pr := range pairs {
				lc, sc := liveClaims[j], simClaims[j]
				if m == strategy.MethodTopoShot && (lc != sc || lc.Detected != linked(pr)) {
					t.Errorf("pair %d-%d: live %q, simulated %q, linked %v", pr[0], pr[1], lc.Verdict, sc.Verdict, linked(pr))
				}
				if lc != sc {
					differ++
					t.Logf("pair %d-%d: live %q, simulated %q", pr[0], pr[1], lc.Verdict, sc.Verdict)
				}
			}
			t.Logf("%d of %d verdicts differ from the simulator's", differ, len(pairs))
			lt, st := live.Ledger.Totals(), sim.Ledger.Totals()
			if lt.Pending != st.Pending || lt.Futures != st.Futures {
				t.Errorf("live cost %d pending, %d futures; simulated %d, %d", lt.Pending, lt.Futures, st.Pending, st.Futures)
			}
		})
	}
}

// SubmitLocal offers a transaction as a local user would (RPC submission)
// and gossips it when executable.
func (n *Node) SubmitLocal(tx *types.Transaction) txpool.Status {
	n.mu.Lock()
	res := n.pool.Offer(tx)
	out := gossip.Propagatable(nil, tx, res, n.pool, false)
	n.mu.Unlock()
	n.propagate("", out)
	return res.Status
}

// HasTx reports whether the pool buffers the hash (the RPC
// eth_getTransactionByHash analogue).
func (n *Node) HasTx(h types.Hash) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pool.Has(h)
}

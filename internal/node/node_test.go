package node

import (
	"fmt"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"toposhot/internal/gossip"
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
	p := &peer{conn: local, addr: "announcer", w: local}
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
	h := types.BytesToHash([]byte{0xaa})

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

// TestLiveTopoShot runs the full four-step primitive over real TCP sockets:
// a 5-node path topology; adjacent pair detected, non-adjacent pair not.
func TestLiveTopoShot(t *testing.T) {
	const n = 5
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = startTestNode(t, int64(10+i))
	}
	for i := 0; i+1 < n; i++ {
		if err := nodes[i].Dial(nodes[i+1].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	prober, err := NewProber(testNetID, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer prober.Close()
	for _, nd := range nodes {
		if err := prober.Dial(nd.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return prober.Node().PeerCount() == n })
	params := DefaultProbeParams(256)

	got, err := prober.MeasureOneLink(nodes[1].Addr(), nodes[2].Addr(), params)
	if err != nil {
		t.Fatalf("measure adjacent: %v", err)
	}
	if !got {
		t.Error("adjacent pair 1-2 not detected over TCP")
	}
	got, err = prober.MeasureOneLink(nodes[0].Addr(), nodes[4].Addr(), params)
	if err != nil {
		t.Fatalf("measure non-adjacent: %v", err)
	}
	if got {
		t.Error("false positive on non-adjacent pair 0-4 over TCP")
	}
}

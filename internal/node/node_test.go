package node

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"toposhot/internal/txpool"
	"toposhot/internal/types"
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
// two (Go randomizes each iteration) within a few rounds.
func TestFanoutIndependentOfMapOrder(t *testing.T) {
	newNode := func() *Node {
		n := &Node{peers: make(map[string]*peer), rng: rand.New(rand.NewSource(11))}
		for i := 0; i < 16; i++ {
			addr := fmt.Sprintf("10.0.0.%d:30303", i)
			n.peers[addr] = &peer{addr: addr}
		}
		return n
	}
	addrs := func(ps []*peer) []string {
		out := make([]string, len(ps))
		for i, p := range ps {
			out[i] = p.addr
		}
		return out
	}
	a, b := newNode(), newNode()
	for round := 0; round < 200; round++ {
		exclude := fmt.Sprintf("10.0.0.%d:30303", round%16)
		pushA, annA := a.fanout(exclude)
		pushB, annB := b.fanout(exclude)
		if len(pushA) != 4 || len(pushA)+len(annA) != 15 {
			t.Fatalf("round %d: split %d/%d of 15 peers, want ⌈√15⌉ = 4 pushed", round, len(pushA), len(annA))
		}
		if !slices.Equal(addrs(pushA), addrs(pushB)) || !slices.Equal(addrs(annA), addrs(annB)) {
			t.Fatalf("round %d: same seed and peers, different splits:\n push %v\n   vs %v", round, addrs(pushA), addrs(pushB))
		}
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

package ethsim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"toposhot/internal/types"
)

// buildChurnNet assembles a churning network: chorded ring, supernode,
// workload traffic, janitor, and a churn process over the ring nodes.
func buildChurnNet() (*Network, *Churn) {
	net := NewNetwork(DefaultConfig(99))
	for i := 0; i < 20; i++ {
		net.AddNode(DefaultNodeConfig())
	}
	for i := 1; i <= 20; i++ {
		_ = net.Connect(types.NodeID(i), types.NodeID(i%20+1))
		_ = net.Connect(types.NodeID(i), types.NodeID((i+5)%20+1))
	}
	sn := NewSupernode(net)
	sn.ConnectAll()
	net.StartJanitor(5)
	w := NewWorkload(net, 30, types.Gwei, 8*types.Gwei)
	w.Start(0)
	c := net.StartChurn(ChurnConfig{Interval: 2})
	return net, c
}

// churnDigest renders the full churn observation: every applied event plus
// the resulting ground-truth edge list.
func churnDigest(net *Network, c *Churn) []string {
	var out []string
	for _, ev := range c.Events(0) {
		out = append(out, fmt.Sprintf("%.9f %d-%d added=%v", ev.At, ev.A, ev.B, ev.Added))
	}
	out = append(out, fmt.Sprintf("edges=%v", net.Edges()))
	return out
}

func TestChurnDeterministic(t *testing.T) {
	netA, cA := buildChurnNet()
	netA.RunFor(60)
	netB, cB := buildChurnNet()
	netB.RunFor(60)
	a, b := churnDigest(netA, cA), churnDigest(netB, cB)
	if len(a) < 10 {
		t.Fatalf("churn barely ran: %d log lines over 60 s at interval 2", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed churn runs diverged")
	}
	adds, removes := 0, 0
	for _, ev := range cA.Events(0) {
		if ev.Added {
			adds++
		} else {
			removes++
		}
	}
	if adds == 0 || removes == 0 {
		t.Fatalf("churn one-sided: %d adds, %d removes", adds, removes)
	}
}

// TestChurnSerialParallelIdentical pins that a churning network holds no
// state shared with another: the event stream, the evolving topology, and
// the full gossip observation after it must be byte-identical between a run
// on its own and two same-seed runs stepped concurrently.
func TestChurnSerialParallelIdentical(t *testing.T) {
	netS, cS := buildChurnNet()
	netS.RunFor(45)
	wantChurn := churnDigest(netS, cS)
	wantObs := observeRun(netS, 15)

	var gotChurn, gotObs [2][]string
	var wg sync.WaitGroup
	for i := range gotChurn {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			netP, cP := buildChurnNet()
			netP.RunFor(45)
			gotChurn[i] = churnDigest(netP, cP)
			gotObs[i] = observeRun(netP, 15)
		}(i)
	}
	wg.Wait()
	for i := range gotChurn {
		if !reflect.DeepEqual(wantChurn, gotChurn[i]) {
			t.Fatalf("churn stream of concurrent run %d differs from the serial run", i)
		}
		if !reflect.DeepEqual(wantObs, gotObs[i]) {
			t.Fatalf("post-churn gossip observation of concurrent run %d differs from the serial run", i)
		}
	}
}

// TestChurnCheckpointRestore: a mid-churn checkpoint must restore a network
// whose continuation — including future churn picks — replays
// byte-identically, with the churn registry and RNG position intact.
func TestChurnCheckpointRestore(t *testing.T) {
	net, c := buildChurnNet()
	net.RunFor(30)
	before := c.NumEvents()
	if before == 0 {
		t.Fatal("no churn before checkpoint")
	}

	blob, err := net.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	restored, err := RestoreNetwork(blob)
	if err != nil {
		t.Fatalf("RestoreNetwork: %v", err)
	}
	rc := restored.Churns()
	if len(rc) != 1 {
		t.Fatalf("restored churn registry has %d entries", len(rc))
	}
	// The event log is observation state: it restarts empty after restore.
	if rc[0].NumEvents() != 0 {
		t.Fatalf("restored churn log not empty: %d events", rc[0].NumEvents())
	}

	want := observeRun(net, 25)
	got := observeRun(restored, 25)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("post-restore churned run diverged from original")
	}
	// Continuation events match the original's post-checkpoint suffix.
	wantEvents := c.Events(before)
	gotEvents := rc[0].Events(0)
	if !reflect.DeepEqual(wantEvents, gotEvents) {
		t.Fatalf("continuation churn events diverged:\n  orig: %v\n  rest: %v", wantEvents, gotEvents)
	}
	if len(wantEvents) == 0 {
		t.Fatal("no churn after checkpoint; test window too short")
	}
}

// TestChurnStaysInPopulation: churn respects population restriction and the
// supernode exclusion, and a stopped process (as a restored image with
// Stopped set leaves it) applies nothing more.
func TestChurnStaysInPopulation(t *testing.T) {
	cfg := DefaultConfig(5)
	net := NewNetwork(cfg)
	for i := 0; i < 12; i++ {
		net.AddNode(DefaultNodeConfig())
	}
	for i := 1; i <= 12; i++ {
		_ = net.Connect(types.NodeID(i), types.NodeID(i%12+1))
	}
	sn := NewSupernode(net)
	sn.ConnectAll()
	pop := []types.NodeID{1, 2, 3, 4, 5, 6}
	c := net.StartChurn(ChurnConfig{Interval: 1, Population: pop})
	net.RunFor(40)
	if c.NumEvents() == 0 {
		t.Fatal("no churn in 40 s")
	}
	inPop := func(id types.NodeID) bool { return id >= 1 && id <= 6 }
	for _, ev := range c.Events(0) {
		if !inPop(ev.A) || !inPop(ev.B) {
			t.Fatalf("churn touched out-of-population link %d-%d", ev.A, ev.B)
		}
		if ev.A == sn.ID() || ev.B == sn.ID() {
			t.Fatal("churn touched the supernode")
		}
	}
	// Out-of-population ring links survive untouched.
	for i := 7; i <= 11; i++ {
		if !net.Connected(types.NodeID(i), types.NodeID(i+1)) {
			t.Fatalf("protected link %d-%d was churned", i, i+1)
		}
	}
	c.stopped = true
	n := c.NumEvents()
	net.RunFor(20)
	if c.NumEvents() != n {
		t.Fatal("a stopped churn process kept churning")
	}
}

// TestChurnExercisesArenaOverflow: repeated add/remove cycles under live
// traffic must push watermarks through the adjacency arena's overflow path
// (links torn down with deliveries in flight) and relocate grown segments,
// while horizon pruning keeps the overflow map bounded.
func TestChurnExercisesArenaOverflow(t *testing.T) {
	cfg := DefaultConfig(17)
	net := NewNetwork(cfg)
	const nodes = 16
	for i := 0; i < nodes; i++ {
		nc := DefaultNodeConfig()
		nc.MaxPeers = 6 // small segments force relocations as churn adds links
		net.AddNode(nc)
	}
	for i := 1; i <= nodes; i++ {
		_ = net.Connect(types.NodeID(i), types.NodeID(i%nodes+1))
	}
	net.StartJanitor(5)
	w := NewWorkload(net, 80, types.Gwei, 4*types.Gwei)
	w.Start(0)
	net.StartChurn(ChurnConfig{Interval: 0.5})

	sawOverflow := false
	for round := 0; round < 12; round++ {
		net.RunFor(10)
		if len(net.overflowMark) > 0 {
			sawOverflow = true
		}
	}
	if !sawOverflow {
		t.Fatal("churn under traffic never used the overflow watermark path")
	}
	if len(net.overflowMark) > 2*nodes {
		t.Fatalf("overflow map unbounded under churn: %d entries", len(net.overflowMark))
	}
}

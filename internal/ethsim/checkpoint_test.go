package ethsim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"toposhot/internal/types"
)

// buildCheckpointNet assembles a network with every checkpointable moving
// part active: chorded ring topology, supernode observing everything,
// background workload, janitor, and congestion spikes.
func buildCheckpointNet() (*Network, *Supernode) {
	cfg := DefaultConfig(42)
	cfg.SpikeProb = 0.05
	cfg.SpikeMax = 0.5
	net := NewNetwork(cfg)
	for i := 0; i < 24; i++ {
		net.AddNode(DefaultNodeConfig())
	}
	for i := 1; i <= 24; i++ {
		_ = net.Connect(types.NodeID(i), types.NodeID(i%24+1))
		_ = net.Connect(types.NodeID(i), types.NodeID((i+6)%24+1))
	}
	sn := NewSupernode(net)
	sn.ConnectAll()
	net.StartJanitor(5)
	w := NewWorkload(net, 40, types.Gwei, 10*types.Gwei)
	w.Start(0)
	return net, sn
}

// observeRun advances the network d virtual seconds logging every offer on
// every node, then appends a full state digest. Two networks producing equal
// logs are observably byte-identical over the window.
func observeRun(net *Network, d float64) []string {
	var log []string
	net.OnOffer = func(node, from types.NodeID, tx *types.Transaction, status string) {
		log = append(log, fmt.Sprintf("%d<-%d %v %s", node, from, tx.Hash(), status))
	}
	net.RunFor(d)
	net.OnOffer = nil
	log = append(log, fmt.Sprintf("t=%.9f seq=%d draws=%d marks=%d",
		net.Now(), net.Engine().SeqCount(), net.Engine().RandDraws(), net.liveDeliveryMarks()))
	counts := net.MsgCounts()
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		log = append(log, fmt.Sprintf("msg %s=%d", k, counts[k]))
	}
	for _, nd := range net.Nodes() {
		log = append(log, fmt.Sprintf("pool %d len=%d pending=%d future=%d degree=%d",
			nd.ID(), nd.Pool().Len(), nd.Pool().PendingCount(), nd.Pool().FutureCount(), nd.Degree()))
		for _, tx := range nd.Pool().Content() {
			log = append(log, fmt.Sprintf("  %v", tx.Hash()))
		}
	}
	for _, s := range net.Supernodes() {
		log = append(log, fmt.Sprintf("shadow view=%v cursor=%.9f", s.PendingPriceView(), s.sendCursor))
	}
	return log
}

// TestCheckpointRoundTrip pins the resume contract: checkpoint mid-run,
// restore, and the restored network replays the continuation byte-identically — every offer
// on every node in the same order with the same verdict, every pool ending
// with the same contents, the engine at the same (time, seq, draw) point.
func TestCheckpointRoundTrip(t *testing.T) {
	net, _ := buildCheckpointNet()
	net.RunFor(30)

	blob, err := net.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	want := observeRun(net, 20)

	restored, err := RestoreNetwork(blob)
	if err != nil {
		t.Fatalf("RestoreNetwork: %v", err)
	}
	got := observeRun(restored, 20)

	if !reflect.DeepEqual(want, got) {
		for i := range want {
			if i >= len(got) || want[i] != got[i] {
				t.Fatalf("resumed run diverged at line %d:\n  orig: %q\n  rest: %q", i, want[i], got[i])
			}
		}
		t.Fatalf("resumed run diverged (lengths %d vs %d)", len(want), len(got))
	}
}

// TestCheckpointDeterministicBytes: checkpointing the same state twice must
// produce identical bytes — map-ordered structures are canonicalized.
func TestCheckpointDeterministicBytes(t *testing.T) {
	net, _ := buildCheckpointNet()
	net.RunFor(15)
	a, err := net.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	b, err := net.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("checkpoint encoding is not deterministic")
	}
	// And a checkpoint of the restored network matches too.
	restored, err := RestoreNetwork(a)
	if err != nil {
		t.Fatalf("RestoreNetwork: %v", err)
	}
	c, err := restored.Checkpoint()
	if err != nil {
		t.Fatalf("re-Checkpoint: %v", err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatal("restore→checkpoint does not round-trip to identical bytes")
	}
}

// TestDeliveryMarksBoundedUnderFlood is the lastDelivery regression test: a
// sustained gossip flood with link churn must keep the live watermark
// population bounded by the directed-link count plus in-flight traffic on
// dead links — not grow with total messages sent, as the old per-pair map
// did before horizon pruning and dense in-place reuse.
func TestDeliveryMarksBoundedUnderFlood(t *testing.T) {
	cfg := DefaultConfig(7)
	net := NewNetwork(cfg)
	const nodes = 30
	for i := 0; i < nodes; i++ {
		net.AddNode(DefaultNodeConfig())
	}
	for i := 1; i <= nodes; i++ {
		_ = net.Connect(types.NodeID(i), types.NodeID(i%nodes+1))
		_ = net.Connect(types.NodeID(i), types.NodeID((i+7)%nodes+1))
	}
	net.StartJanitor(5)
	w := NewWorkload(net, 120, types.Gwei, 4*types.Gwei)
	w.Start(0)

	directed := 2 * len(net.Edges())
	// Warm up, then sample under churn: tearing links down mid-flight pushes
	// watermarks into the overflow map, which horizon pruning must drain.
	net.RunFor(20)
	peak := 0
	for round := 0; round < 10; round++ {
		a := types.NodeID(round%nodes + 1)
		b := types.NodeID(a%nodes + 1)
		net.Disconnect(a, b)
		net.RunFor(5)
		_ = net.Connect(a, b)
		net.RunFor(5)
		if live := net.liveDeliveryMarks(); live > peak {
			peak = live
		}
	}
	// The bound: one live mark per directed link, plus a small allowance for
	// overflow entries on torn-down links still inside the latency horizon.
	if limit := directed + 2*nodes; peak > limit {
		t.Fatalf("live delivery marks peaked at %d under flood; want <= %d (directed links %d)",
			peak, limit, directed)
	}
	if len(net.overflowMark) > 2*nodes {
		t.Fatalf("overflow watermark map holds %d entries after churn; pruning failed", len(net.overflowMark))
	}
}

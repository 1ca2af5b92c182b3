package ethsim

import (
	"reflect"
	"testing"
	"unsafe"

	"toposhot/internal/trace"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// TestFlushCoalescesWindow pins the coalescing contract: every admission
// inside one flushInterval rides a single flush, producing exactly one
// Transactions message per pushed peer — not one message per admission.
func TestFlushCoalescesWindow(t *testing.T) {
	net := testNet(11)
	ids := addNodes(net, 2, 64)
	if err := net.Connect(ids[0], ids[1]); err != nil {
		t.Fatal(err)
	}
	a, b := net.Node(ids[0]), net.Node(ids[1])

	// Two admissions at t=0, both inside the first coalescing window.
	tx1 := types.NewTransaction(types.AddressFromUint64(1), types.AddressFromUint64(9), 0, types.Gwei, 0)
	tx2 := types.NewTransaction(types.AddressFromUint64(2), types.AddressFromUint64(9), 0, types.Gwei, 0)
	a.SubmitLocal(tx1)
	a.SubmitLocal(tx2)
	net.RunFor(5)

	// B's only peer is A (the exclude), so B sends nothing back: the single
	// message on the wire is A's one batched flush.
	if got := net.MsgCounts()["txs"]; got != 1 {
		t.Fatalf("txs messages after one window = %d, want 1 (flush not coalesced)", got)
	}
	if !b.Pool().Has(tx1.Hash()) || !b.Pool().Has(tx2.Hash()) {
		t.Fatal("batched flush did not deliver both transactions")
	}

	// A later admission opens a fresh window and a second flush.
	tx3 := types.NewTransaction(types.AddressFromUint64(3), types.AddressFromUint64(9), 0, types.Gwei, 0)
	a.SubmitLocal(tx3)
	net.RunFor(5)
	if got := net.MsgCounts()["txs"]; got != 2 {
		t.Fatalf("txs messages after second window = %d, want 2", got)
	}
}

// TestPropagateEmptyBatchSchedulesNothing guards the propagate early-return:
// an empty transaction set must neither arm the flush timer nor enqueue
// anything (the pre-overhaul code checked the out-queue instead of the input
// and the guard was dead).
func TestPropagateEmptyBatchSchedulesNothing(t *testing.T) {
	net := testNet(12)
	ids := addNodes(net, 2, 64)
	if err := net.Connect(ids[0], ids[1]); err != nil {
		t.Fatal(err)
	}
	nd := net.Node(ids[0])
	pending := net.Engine().Pending()
	nd.propagate(nd.id, nil)
	if nd.flushScheduled {
		t.Fatal("empty propagate armed the flush timer")
	}
	if got := net.Engine().Pending(); got != pending {
		t.Fatalf("empty propagate scheduled an event: pending %d -> %d", pending, got)
	}
	if len(nd.outQ) != 0 {
		t.Fatalf("empty propagate enqueued %d items", len(nd.outQ))
	}
}

// TestPeersCachedSortedCopy pins the Peers() contract over the incrementally
// maintained sorted peer list: ascending order after arbitrary add/remove,
// and a fresh copy per call that callers may mutate freely.
func TestPeersCachedSortedCopy(t *testing.T) {
	net := testNet(13)
	ids := addNodes(net, 6, 64)
	nd := net.Node(ids[0])
	// Connect out of id order, with one disconnect in the middle.
	for _, i := range []int{4, 1, 5, 2, 3} {
		if err := net.Connect(ids[0], ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	net.Disconnect(ids[0], ids[2])

	got := nd.Peers()
	want := []types.NodeID{ids[1], ids[3], ids[4], ids[5]}
	if len(got) != len(want) {
		t.Fatalf("peers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("peers = %v, want %v (sorted order broken)", got, want)
		}
	}

	// Mutating the returned slice must not reach the node's cache.
	got[0] = 999
	again := nd.Peers()
	if again[0] != want[0] {
		t.Fatal("Peers() returned the backing slice, not a copy")
	}

	// Duplicate connect is a no-op on the cache.
	_ = net.Connect(ids[0], ids[1])
	if len(nd.Peers()) != len(want) {
		t.Fatal("duplicate connect grew the sorted peer list")
	}
}

// TestAnnounceLockStillFiltersDuplicates is the behavioral complement of
// gossip's TestLocksSweepRing: within the lock window a second announcement of the same hash
// triggers no second request.
func TestAnnounceLockStillFiltersDuplicates(t *testing.T) {
	net := testNet(15)
	nd := net.AddNode(DefaultNodeConfig())
	src := net.AddNode(DefaultNodeConfig())
	if err := net.Connect(nd.ID(), src.ID()); err != nil {
		t.Fatal(err)
	}
	h := types.Hash{31: 0xaa}
	nd.deliverAnnounce(src.ID(), []types.Hash{h}, nil)
	nd.deliverAnnounce(src.ID(), []types.Hash{h}, nil)
	net.RunFor(5)
	if got := net.MsgCounts()["request"]; got != 1 {
		t.Fatalf("requests after duplicate announce = %d, want 1", got)
	}
}

// TestAnnounceTakesSlotOnlyWhenAsking: an announcement that wants nothing
// leaves no message slot live and takes no payload, and one from an unknown
// announcer asks nothing but still locks what it announced.
func TestAnnounceTakesSlotOnlyWhenAsking(t *testing.T) {
	net := testNet(15)
	nd := net.AddNode(DefaultNodeConfig())
	src := net.AddNode(DefaultNodeConfig())
	if err := net.Connect(nd.ID(), src.ID()); err != nil {
		t.Fatal(err)
	}
	held := types.NewTransaction(types.AddressFromUint64(1), types.AddressFromUint64(2), 0, types.Gwei, 0)
	nd.pool.Offer(held)
	nd.deliverAnnounce(src.ID(), []types.Hash{held.Hash()}, nil)
	if live := len(net.msgs) - len(net.msgFree); live != 0 || len(net.privs) != 1 {
		t.Fatalf("an announcement wanting nothing holds %d message slots and took %d payloads", live, len(net.privs)-1)
	}

	h := types.Hash{31: 0xbb}
	nd.deliverAnnounce(99, []types.Hash{h}, nil)
	if live := len(net.msgs) - len(net.msgFree); live != 0 {
		t.Fatalf("an unknown announcer was sent a request (%d message slots live)", live)
	}
	nd.deliverAnnounce(src.ID(), []types.Hash{h}, nil)
	net.RunFor(5)
	if got := net.MsgCounts()["request"]; got != 0 {
		t.Fatalf("%d requests for a hash an unknown announcer locked, want 0", got)
	}
}

// TestNetMsgSize: the message arena holds every in-flight message, so its
// slot is the arena's memory and what the garbage collector must scan. A
// slot is 32 B with no pointer-typed field; the payloads live in side
// arenas.
func TestNetMsgSize(t *testing.T) {
	if got := unsafe.Sizeof(netMsg{}); got != 32 {
		t.Errorf("sizeof(netMsg) = %d B, want 32", got)
	}
	typ := reflect.TypeOf(netMsg{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func,
			reflect.Interface, reflect.String, reflect.UnsafePointer, reflect.Struct, reflect.Array:
			t.Errorf("netMsg.%s is a %v, which holds or may hold a pointer", f.Name, f.Type.Kind())
		}
	}
}

// BenchmarkGossipFlood measures one full flood — SubmitLocal at a rotating
// origin through delivery at every node on a 100-node ring-with-chords —
// per op. allocs/op divided by the reported msgs/op approximates allocations
// per delivered message, the tentpole's ≥50% reduction target.
func BenchmarkGossipFlood(b *testing.B) {
	net := testNet(7)
	ids := addNodes(net, 100, 1<<14)
	for i := range ids {
		_ = net.Connect(ids[i], ids[(i+1)%len(ids)])
		_ = net.Connect(ids[i], ids[(i+7)%len(ids)])
		_ = net.Connect(ids[i], ids[(i+29)%len(ids)])
	}
	net.StartJanitor(5)
	// Warm the arenas: a few floods grow the event arena, message pool, and
	// per-node scratch buffers to their steady-state footprint.
	for i := 0; i < 16; i++ {
		tx := types.NewTransaction(types.AddressFromUint64(uint64(i+1)), types.AddressFromUint64(2), 0, types.Gwei, 0)
		net.Node(ids[i%len(ids)]).SubmitLocal(tx)
		net.RunFor(2)
	}
	base := net.MsgCounts()["txs"] + net.MsgCounts()["announce"] + net.MsgCounts()["request"]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := types.NewTransaction(types.AddressFromUint64(uint64(1000+i)), types.AddressFromUint64(2), 0, types.Gwei, 0)
		net.Node(ids[i%len(ids)]).SubmitLocal(tx)
		net.RunFor(2)
	}
	b.StopTimer()
	delivered := net.MsgCounts()["txs"] + net.MsgCounts()["announce"] + net.MsgCounts()["request"] - base
	b.ReportMetric(float64(delivered)/float64(b.N), "msgs/op")
}

// benchFloodNet builds the BenchmarkGossipFlood topology with its arenas
// warmed, so the trace on/off variants measure the identical workload.
func benchFloodNet(seed int64) (*Network, []types.NodeID) {
	net := testNet(seed)
	ids := addNodes(net, 100, 1<<14)
	for i := range ids {
		_ = net.Connect(ids[i], ids[(i+1)%len(ids)])
		_ = net.Connect(ids[i], ids[(i+7)%len(ids)])
		_ = net.Connect(ids[i], ids[(i+29)%len(ids)])
	}
	net.StartJanitor(5)
	for i := 0; i < 16; i++ {
		tx := types.NewTransaction(types.AddressFromUint64(uint64(i+1)), types.AddressFromUint64(2), 0, types.Gwei, 0)
		net.Node(ids[i%len(ids)]).SubmitLocal(tx)
		net.RunFor(2)
	}
	return net, ids
}

func benchFlood(b *testing.B, net *Network, ids []types.NodeID) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := types.NewTransaction(types.AddressFromUint64(uint64(1000+i)), types.AddressFromUint64(2), 0, types.Gwei, 0)
		net.Node(ids[i%len(ids)]).SubmitLocal(tx)
		net.RunFor(2)
	}
}

// BenchmarkGossipFloodTracedOff attaches a measure-level tracer, which
// leaves engine events gated off: the flood hot path pays exactly one
// pre-resolved bool branch per emission site. The delta against
// BenchmarkGossipFlood is the cost of having tracing wired but quiet —
// it must stay ~zero (and allocation-free) to protect the hot-path wins.
func BenchmarkGossipFloodTracedOff(b *testing.B) {
	net, ids := benchFloodNet(7)
	net.SetTracer(trace.New(trace.Options{Level: trace.LevelMeasure}))
	benchFlood(b, net, ids)
}

// BenchmarkGossipFloodTraced records engine events (msg-enqueue,
// msg-deliver, evictions, replacement outcomes) into the ring buffer while
// flooding; the delta against BenchmarkGossipFlood is the trace-on
// overhead reported in the PR description.
func BenchmarkGossipFloodTraced(b *testing.B) {
	net, ids := benchFloodNet(7)
	net.SetTracer(trace.New(trace.Options{Level: trace.LevelEngine, Deterministic: true}))
	benchFlood(b, net, ids)
}

// BenchmarkGossipFloodLegacy floods the same topology under LegacyPushAll
// (push to every peer, no announcements) — the heavier per-flush path.
func BenchmarkGossipFloodLegacy(b *testing.B) {
	net := testNet(8)
	ids := make([]types.NodeID, 100)
	for i := range ids {
		ids[i] = net.AddNode(NodeConfig{
			Policy:        txpool.Geth.WithCapacity(1 << 14),
			MaxPeers:      50,
			LegacyPushAll: true,
		}).ID()
	}
	for i := range ids {
		_ = net.Connect(ids[i], ids[(i+1)%len(ids)])
		_ = net.Connect(ids[i], ids[(i+7)%len(ids)])
	}
	net.StartJanitor(5)
	for i := 0; i < 16; i++ {
		tx := types.NewTransaction(types.AddressFromUint64(uint64(i+1)), types.AddressFromUint64(2), 0, types.Gwei, 0)
		net.Node(ids[i%len(ids)]).SubmitLocal(tx)
		net.RunFor(2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := types.NewTransaction(types.AddressFromUint64(uint64(1000+i)), types.AddressFromUint64(2), 0, types.Gwei, 0)
		net.Node(ids[i%len(ids)]).SubmitLocal(tx)
		net.RunFor(2)
	}
}

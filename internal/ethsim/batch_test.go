package ethsim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// TestFlushSkipsFullyExcludedPeer: a flush whose every item is excluded for
// a peer sends that peer nothing, yet takes and returns a message slot for it
// exactly as before, so message tallies, event sequence numbers and RNG draws
// are where the per-peer-copy implementation left them. The pinned numbers
// were recorded on the parent commit (f23ef1b), before batches were shared.
//
// The network is a star, hub 1 with leaves 2, 3, 4, and one transaction
// submitted at leaf 2: the hub's flush holds a single item that arrived from
// leaf 2 (nothing is addressed back to it), and every other leaf's flush
// holds a single item that arrived from its only peer (nothing is addressed
// to anyone, and the batch goes straight back to the pool).
func TestFlushSkipsFullyExcludedPeer(t *testing.T) {
	net := testNet(21)
	ids := addNodes(net, 4, 64)
	for _, leaf := range ids[1:] {
		_ = net.Connect(ids[0], leaf)
	}
	tx := types.NewTransaction(types.AddressFromUint64(1), types.AddressFromUint64(9), 0, types.Gwei, 0)
	net.Node(ids[1]).SubmitLocal(tx)
	received := make(map[types.NodeID]int)
	for _, id := range ids {
		id := id
		net.Node(id).OnTxDelivered = func(types.NodeID, *types.Transaction, float64) { received[id]++ }
		net.Node(id).OnHashAnnounced = func(types.NodeID, types.Hash, float64) { received[id]++ }
	}
	net.RunFor(10)

	if received[ids[1]] != 0 {
		t.Fatalf("the submitting leaf was sent its own transaction back %d times", received[ids[1]])
	}
	for _, id := range ids {
		if !net.Node(id).Pool().Has(tx.Hash()) {
			t.Fatalf("node %v missed the transaction", id)
		}
	}
	got := fmt.Sprintf("%v seq=%d draws=%d", net.MsgCounts(), net.Engine().SeqCount(), net.Engine().RandDraws())
	const parent = "map[announce:1 request:1 txs:3] seq=9 draws=11"
	if got != parent {
		t.Fatalf("tallies moved:\n got    %s\n parent %s", got, parent)
	}
	checkBatches(t, net)
	if len(net.batchFree) != len(net.batches)-1 {
		t.Fatalf("idle network: %d of %d batches are free", len(net.batchFree), len(net.batches)-1)
	}
}

// checkBatches asserts the shared-payload bookkeeping: a batch's reference
// count equals the live messages pointing at it, a batch is on the free list
// exactly when that count is zero, and never twice.
func checkBatches(t *testing.T, net *Network) {
	t.Helper()
	refs := make([]int32, len(net.batches))
	for i := range net.msgs {
		if m := &net.msgs[i]; m.to != 0 && m.batch != 0 {
			refs[m.batch]++
		}
	}
	free := make([]int, len(net.batches))
	for _, bi := range net.batchFree {
		free[bi]++
	}
	if refs[0] != 0 || free[0] != 0 {
		t.Fatalf("reserved batch 0 is in use: refs %d, free %d", refs[0], free[0])
	}
	for bi := 1; bi < len(net.batches); bi++ {
		b := &net.batches[bi]
		if b.refs != refs[bi] {
			t.Fatalf("batch %d counts %d references, %d live messages carry it", bi, b.refs, refs[bi])
		}
		if (b.refs == 0) != (free[bi] == 1) || free[bi] > 1 {
			t.Fatalf("batch %d (refs %d) is on the free list %d times", bi, b.refs, free[bi])
		}
	}
}

// TestFlushBatchRecycledOnce steps a flood one event at a time and checks
// the batch bookkeeping after every event. One node is unresponsive, so some
// batches lose their last reference to a dropped message; the test insists on
// having seen that case.
func TestFlushBatchRecycledOnce(t *testing.T) {
	droppedLast := false
	for seed := int64(1); seed <= 8; seed++ {
		net := testNet(seed)
		ids := addNodes(net, 8, 256)
		dead := net.AddNode(NodeConfig{Unresponsive: true})
		ids = append(ids, dead.ID())
		for i := range ids {
			_ = net.Connect(ids[i], ids[(i+1)%len(ids)])
			_ = net.Connect(ids[i], ids[(i+3)%len(ids)])
		}
		for i := 0; i < 6; i++ {
			tx := types.NewTransaction(types.AddressFromUint64(uint64(i+1)), types.AddressFromUint64(99), 0, types.Gwei, 0)
			net.Node(ids[i]).SubmitLocal(tx)
		}
		for steps := 0; net.Engine().Pending() > 0; steps++ {
			if steps > 100000 {
				t.Fatal("flood does not settle")
			}
			// Is the next event the delivery of a batch's last message to
			// the unresponsive node?
			var last int32
			for i := range net.msgs {
				m := &net.msgs[i]
				if m.to == dead.id && m.batch != 0 && net.batches[m.batch].refs == 1 {
					last = m.batch
				}
			}
			freeBefore := len(net.batchFree)
			delivered := net.msgTally
			net.Engine().Step()
			checkBatches(t, net)
			if last != 0 && net.batches[last].refs == 0 && len(net.batchFree) == freeBefore+1 && net.msgTally == delivered {
				droppedLast = true
			}
		}
		if len(net.batchFree) != len(net.batches)-1 {
			t.Fatalf("seed %d: settled network keeps %d of %d batches", seed, len(net.batches)-1-len(net.batchFree), len(net.batches)-1)
		}
	}
	if !droppedLast {
		t.Fatal("no batch lost its last reference at the unresponsive node; the case went untested")
	}
}

// TestCheckpointWithSharedBatchesInFlight: a checkpoint taken mid-flood —
// live messages pointing at shared batches, some with items excluded for
// their destination — writes each message as the private payload it stands
// for: the blob is byte for byte what the parent commit (f23ef1b), whose
// messages owned such payloads, wrote for the same seed (its SHA-256 was
// recorded there). Restoring it and continuing equals the uninterrupted run.
func TestCheckpointWithSharedBatchesInFlight(t *testing.T) {
	net, _ := buildCheckpointNet(1)
	net.RunFor(12.34)
	shared, filtered := 0, 0
	for i := range net.msgs {
		m := &net.msgs[i]
		if m.to == 0 || m.batch == 0 {
			continue
		}
		shared++
		if items := net.batches[m.batch].items; addressedTo(items, m.to) < len(items) {
			filtered++
		}
	}
	if shared == 0 || filtered == 0 {
		t.Fatalf("checkpoint point has %d messages on shared batches, %d with an excluded item; the test needs both", shared, filtered)
	}

	blob, err := net.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	const parent = "1a23b8c5eaa618146ce44e561ef5ec38512bc822cbfcce49e5e60c9145c90202"
	if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != parent {
		t.Fatalf("checkpoint bytes moved: sha256 %s (%d bytes), parent %s", got, len(blob), parent)
	}

	want := observeRun(net, 15)
	restored, err := RestoreNetwork(blob)
	if err != nil {
		t.Fatalf("RestoreNetwork: %v", err)
	}
	for i := range restored.msgs {
		if restored.msgs[i].batch != 0 {
			t.Fatalf("restored message %d points at a batch", i)
		}
	}
	if got := observeRun(restored, 15); !reflect.DeepEqual(want, got) {
		for i := range want {
			if i >= len(got) || want[i] != got[i] {
				t.Fatalf("resumed run diverged at line %d:\n  orig: %q\n  rest: %q", i, want[i], got[i])
			}
		}
		t.Fatalf("resumed run diverged (lengths %d vs %d)", len(want), len(got))
	}
}

// TestCheckpointWithHintedRequestInFlight: a request sent in answer to a
// shared-batch announcement carries the asked objects beside its hashes — a
// run-time hint that is no part of the message. A checkpoint taken with such
// requests in flight is byte for byte what the parent commit (f70b0d4), whose
// requests carried hashes only, wrote for the same seed (its SHA-256 was
// recorded there); the restored requests have lost the hint and answer by
// hash, and the continuation still equals the uninterrupted run.
func TestCheckpointWithHintedRequestInFlight(t *testing.T) {
	net, _ := buildCheckpointNet(1)
	net.RunFor(12)
	hinted := func(net *Network) (requests, withHint int) {
		for i := range net.msgs {
			m := &net.msgs[i]
			if m.to == 0 || m.kind != msgRequest {
				continue
			}
			requests++
			if len(net.privs[m.priv].txs) > 0 {
				withHint++
				for j, tx := range net.privs[m.priv].txs {
					if len(net.privs[m.priv].txs) != len(net.privs[m.priv].hashes) || tx.Hash() != net.privs[m.priv].hashes[j] {
						t.Fatalf("request in slot %d: asked objects are not parallel to its %d hashes", i, len(net.privs[m.priv].hashes))
					}
				}
			}
		}
		return requests, withHint
	}
	requests, withHint := hinted(net)
	if requests == 0 || withHint != requests {
		t.Fatalf("checkpoint point has %d live requests, %d carrying the asked objects; the test needs all of several", requests, withHint)
	}

	blob, err := net.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	const parent = "556da473e4a71800609f33097d18c16a0b88e0d31ada7518a27e63770143c828"
	if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != parent {
		t.Fatalf("checkpoint bytes moved: sha256 %s (%d bytes), parent %s", got, len(blob), parent)
	}

	want := observeRun(net, 15)
	restored, err := RestoreNetwork(blob)
	if err != nil {
		t.Fatalf("RestoreNetwork: %v", err)
	}
	if r, h := hinted(restored); r != requests || h != 0 {
		t.Fatalf("restored network has %d live requests (want %d), %d with a hint (want none)", r, requests, h)
	}
	if got := observeRun(restored, 15); !reflect.DeepEqual(want, got) {
		for i := range want {
			if i >= len(got) || want[i] != got[i] {
				t.Fatalf("resumed run diverged at line %d:\n  orig: %q\n  rest: %q", i, want[i], got[i])
			}
		}
		t.Fatalf("resumed run diverged (lengths %d vs %d)", len(want), len(got))
	}
}

// TestWarmFloodAllocatesNothing: once its buffers have grown, a whole gossip
// round over known transactions — queueing, the flush with its permutation,
// batch and message slots, routing, and every delivery — allocates nothing.
func TestWarmFloodAllocatesNothing(t *testing.T) {
	net := testNet(5)
	ids := addNodes(net, 12, 256)
	for i := range ids {
		_ = net.Connect(ids[i], ids[(i+1)%len(ids)])
		_ = net.Connect(ids[i], ids[(i+5)%len(ids)])
	}
	txs := make([]*types.Transaction, 6)
	for i := range txs {
		txs[i] = types.NewTransaction(types.AddressFromUint64(uint64(i+1)), types.AddressFromUint64(99), 0, types.Gwei, 0)
		net.Node(ids[i]).SubmitLocal(txs[i])
	}
	net.RunFor(10)
	round := func() {
		for i, id := range ids {
			nd := net.Node(id)
			nd.propagate(ids[(i+1)%len(ids)], txs[:3]) // arrived from one peer…
			nd.propagate(nd.id, txs[3:])               // …and submitted here
		}
		net.RunFor(10)
	}
	for i := 0; i < 20; i++ {
		round() // batches and spare buffers trade places until all have grown
	}
	msgs := net.msgTally
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("a warmed-up gossip round allocates %v times", allocs)
	}
	if net.msgTally == msgs {
		t.Fatal("the measured rounds delivered nothing")
	}
}

// injectFill sends target a mempool fill the way core.Measurer mints one: z
// futures at one price over ⌈z/u⌉ fresh accounts, nonces 1…u each, every
// member paying a fresh recipient; seq is the last account number used.
func injectFill(sn *Supernode, to types.NodeID, seq uint64, z, u int, price uint64) {
	var runs []*types.Run
	for ; z > 0; z -= u {
		r := &types.Run{From: types.NamespacedAddress(types.SpaceTopoShot, seq+1), Nonce: 1, Count: min(z, u),
			Price: price, ToSpace: types.SpaceTopoShot, ToSeq: seq + 2}
		seq += 1 + uint64(r.Count)
		runs = append(runs, r)
	}
	_ = sn.InjectRuns(to, runs...)
}

// fillInFlight counts the messages leaving src that carry fill members: those
// still queued on its uplink, and those flying to the target.
func fillInFlight(net *Network, src types.NodeID) (queued, flying int) {
	for i := range net.msgs {
		m := &net.msgs[i]
		if m.to == 0 || m.from != src || m.runs == 0 {
			continue
		}
		switch m.kind {
		case msgInject:
			queued++
		case msgTxs:
			flying++
		}
	}
	return queued, flying
}

// TestCheckpointWithFillInFlight: a checkpoint taken in the middle of a
// mempool fill — some of its 64-member messages admitted into the target's
// pool, some flying as Transactions messages, some still queued on M's uplink
// — is byte for byte what the parent commit (cf2653d), which injected futures
// as transaction objects, wrote for the same seed (its SHA-256 was recorded
// there). Restoring it and running on equals the uninterrupted run line for
// line.
func TestCheckpointWithFillInFlight(t *testing.T) {
	net, sn := buildCheckpointNet(1)
	net.RunFor(6)
	target := types.NodeID(5)
	injectFill(sn, target, 1000, 5120, 4096, 2*types.Gwei)
	net.RunFor(0.14)
	queued, flying := fillInFlight(net, sn.ID())
	if held := net.Node(target).Pool().FutureCount(); queued == 0 || flying == 0 || held < InjectBatchSize {
		t.Fatalf("checkpoint point has %d fill messages queued, %d flying and %d futures held; the test needs all three", queued, flying, held)
	}

	blob, err := net.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	const parent = "0359c7dd949a6c452a48e8b2cfdac9fa51813ef9a34e05cc2d0a24cc0326578e"
	if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != parent {
		t.Fatalf("checkpoint bytes moved: sha256 %s (%d bytes), parent %s", got, len(blob), parent)
	}

	want := observeRun(net, 10)
	restored, err := RestoreNetwork(blob)
	if err != nil {
		t.Fatalf("RestoreNetwork: %v", err)
	}
	if got := observeRun(restored, 10); !reflect.DeepEqual(want, got) {
		for i := range want {
			if i >= len(got) || want[i] != got[i] {
				t.Fatalf("resumed run diverged at line %d:\n  orig: %q\n  rest: %q", i, want[i], got[i])
			}
		}
		t.Fatalf("resumed run diverged (lengths %d vs %d)", len(want), len(got))
	}
}

// TestInjectRunsMatchesObjects: injecting a fill as runs is, observably,
// injecting its members' objects. Two same-seed worlds, one injecting runs
// and one their members' objects, write equal checkpoints after the fills:
// three runs packed across message boundaries into a target whose full pool
// evicts and whose per-account cap refuses members, and one into a
// ForwardFutures node, which relays what it admits — its peers receive the
// admitting pool's own objects.
func TestInjectRunsMatchesObjects(t *testing.T) {
	world := func(asRuns bool) *Network {
		net := testNet(8)
		pol := txpool.Geth.WithCapacity(96)
		pol.MaxFuturePerAccount = 40
		var ids []types.NodeID
		for i := 0; i < 4; i++ {
			ids = append(ids, net.AddNode(NodeConfig{Policy: pol, MaxPeers: 50, ForwardFutures: i == 3}).ID())
		}
		for _, id := range ids[:3] {
			_ = net.Connect(ids[3], id)
		}
		_ = net.Connect(ids[0], ids[1])
		sn := NewSupernode(net)
		sn.ConnectAll()
		NewWorkload(net, 0, types.Gwei, 3*types.Gwei).Prefill(150, 2)
		mk := func(seq uint64, n int, price uint64) *types.Run {
			return &types.Run{From: types.NamespacedAddress(types.SpaceTopoShot, seq), Nonce: 1, Count: n, Price: price,
				ToSpace: types.SpaceTopoShot, ToSeq: seq + 1}
		}
		fills := [][]*types.Run{{mk(100, 50, 2*types.Gwei), mk(200, 50, 2*types.Gwei), mk(300, 20, 4*types.Gwei)}, {mk(400, 30, 5*types.Gwei)}}
		for i, to := range []types.NodeID{ids[0], ids[3]} {
			if asRuns {
				_ = sn.InjectRuns(to, fills[i]...)
				continue
			}
			var txs []*types.Transaction
			for _, r := range fills[i] {
				for k := 0; k < r.Count; k++ {
					txs = append(txs, r.Tx(k))
				}
			}
			_ = sn.Inject(to, txs...)
		}
		net.RunFor(5)
		relayed := fills[1][0]
		for _, id := range ids[:3] {
			got := net.Node(id).Pool().GetBySenderNonce(relayed.From, 1)
			if got == nil || got != net.Node(ids[3]).Pool().GetBySenderNonce(relayed.From, 1) {
				t.Fatalf("runs=%v: node %v holds %v of the relayed fill, not the forwarding pool's object", asRuns, id, got)
			}
		}
		return net
	}
	objects, runs := world(false), world(true)
	if runs.msgTally != objects.msgTally {
		t.Fatalf("message tallies differ: runs %v, objects %v", runs.msgTally, objects.msgTally)
	}
	a, err := objects.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := runs.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("checkpoints differ: %d bytes injecting objects, %d injecting runs", len(a), len(b))
	}
}

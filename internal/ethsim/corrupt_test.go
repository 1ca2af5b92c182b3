package ethsim

import (
	"testing"

	"toposhot/internal/rlp"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// corruptWorld checkpoints a small world with every kind of reference a blob
// carries live: four nodes on a ring plus a supernode, 8-slot pools, a
// workload, a churn process, a janitor, and — at the checkpoint instant — a
// request and a shared flush batch in flight. The blob is a few KB, so a
// sweep over every byte stays fast.
func corruptWorld(tb testing.TB) []byte {
	tb.Helper()
	cfg := DefaultConfig(11)
	cfg.SpikeProb = 0.05
	cfg.SpikeMax = 0.5
	net := NewNetwork(cfg)
	const nodes = 4
	for i := 0; i < nodes; i++ {
		net.AddNode(NodeConfig{Policy: txpool.Geth.WithCapacity(8), MaxPeers: 50})
	}
	for i := 1; i <= nodes; i++ {
		_ = net.Connect(types.NodeID(i), types.NodeID(i%nodes+1))
	}
	sn := NewSupernode(net)
	sn.ConnectAll()
	net.StartJanitor(1)
	NewWorkload(net, 8, types.Gwei, 10*types.Gwei).Start(0)
	net.StartChurn(ChurnConfig{Interval: 1, Start: 0.5, RemoveFrac: 0.5})
	net.RunFor(1)
	for step := 0; step < 1000; step++ {
		request, shared := false, false
		for i := range net.msgs {
			m := &net.msgs[i]
			request = request || (m.to != 0 && m.kind == msgRequest)
			shared = shared || (m.to != 0 && m.batch != 0)
		}
		if request && shared {
			blob, err := net.Checkpoint()
			if err != nil {
				tb.Fatalf("Checkpoint: %v", err)
			}
			return blob
		}
		net.RunFor(0.01)
	}
	tb.Fatal("no instant with a request and a shared batch both in flight")
	return nil
}

// survives restores data and, when that succeeds, runs the network for two
// virtual seconds; a panic anywhere fails the test with the case's name. The
// run stops early after survivalEvents events: a flipped exponent can leave a
// valid but absurd period (a 1e-150 s janitor) that would take forever.
func survives(t testing.TB, data []byte, what string, off int) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s at byte %d: panic %v", what, off, r)
		}
	}()
	net, err := RestoreNetwork(data)
	if err != nil {
		return
	}
	eng := net.Engine()
	stop := eng.Now() + 2
	for i := 0; i < survivalEvents && eng.Now() <= stop && eng.Step(); i++ {
	}
}

// survivalEvents is over thirty times what the intact world runs in two
// seconds (134 events).
const survivalEvents = 5000

// TestRestoreRejectsCorruptBlob: a damaged checkpoint is an error or a network
// that runs, never a panic. Every truncation and one bit flipped at every byte
// (the bit varying with the offset) is restored and, if accepted, run — so any
// index the blob carries (event argument, free slot, message endpoint, peer,
// supernode, transaction reference) that escapes its table surfaces here.
func TestRestoreRejectsCorruptBlob(t *testing.T) {
	blob := corruptWorld(t)
	if _, err := RestoreNetwork(blob); err != nil {
		t.Fatalf("intact blob: %v", err)
	}
	for off := 0; off < len(blob); off++ {
		survives(t, blob[:off], "truncation", off)
	}
	buf := make([]byte, len(blob))
	for off := range blob {
		copy(buf, blob)
		buf[off] ^= 1 << (off % 8)
		survives(t, buf, "bit flip", off)
	}
}

// TestRestoreRejectsUnknownConfigFlag: a node-config flag bit with no switch
// behind it (bit 4 held a miner switch nothing read) is a damaged blob, not a
// silently dropped setting; the highest real switch still restores.
func TestRestoreRejectsUnknownConfigFlag(t *testing.T) {
	net, _ := buildCheckpointNet(1)
	for _, tc := range []struct {
		flags uint64
		ok    bool
	}{{1 << 3, true}, {1 << 4, false}, {1 << 63, false}} {
		img, err := net.image()
		if err != nil {
			t.Fatal(err)
		}
		img.Nodes[0].Config.Flags |= tc.flags
		blob, err := rlp.Marshal(img)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreNetwork(blob)
		if (err == nil) != tc.ok {
			t.Fatalf("flags %#x: err = %v, want accepted %v", tc.flags, err, tc.ok)
		}
		if tc.ok && !restored.Node(1).Config().Unresponsive {
			t.Fatalf("flags %#x: Unresponsive not restored", tc.flags)
		}
	}
}

// FuzzRestoreNetwork: any input restores to an error or to a network that
// survives two virtual seconds.
func FuzzRestoreNetwork(f *testing.F) {
	f.Add(corruptWorld(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		survives(t, data, "input", 0)
	})
}

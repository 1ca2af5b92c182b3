package node

import (
	"net"
	"testing"
	"time"

	"toposhot/internal/metrics"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
	"toposhot/internal/wire"
)

// rawPeer dials a node and completes the Status handshake over a bare TCP
// connection, returning the connection — a peer whose behaviour (silence,
// refusal to read) the test controls completely.
func rawPeer(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	status := wire.Msg{Code: wire.CodeStatus, Status: wire.Status{
		ProtocolVersion: wire.ProtocolVersion,
		NetworkID:       testNetID,
		ClientVersion:   "raw/test",
	}}
	if err := wire.WriteMsg(conn, status); err != nil {
		t.Fatalf("raw handshake write: %v", err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatalf("arm handshake read deadline: %v", err)
	}
	if m, err := wire.ReadMsg(conn); err != nil || m.Code != wire.CodeStatus {
		t.Fatalf("raw handshake read: %v (code %d)", err, m.Code)
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		t.Fatalf("clear handshake read deadline: %v", err)
	}
	return conn
}

// TestSilentPeerIdleDisconnect proves the idle read deadline: a peer that
// completes the handshake and then goes silent is disconnected and
// deregistered instead of parking the read loop forever.
func TestSilentPeerIdleDisconnect(t *testing.T) {
	reg := metrics.NewRegistry()
	n, err := Start(Config{
		ClientVersion: "geth-lite/test",
		NetworkID:     testNetID,
		Policy:        txpool.Geth.WithCapacity(64),
		Metrics:       reg,
		readIdle:      150 * time.Millisecond,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	conn := rawPeer(t, n.Addr())
	if !waitFor(t, time.Second, func() bool { return n.PeerCount() == 1 }) {
		t.Fatal("raw peer not registered")
	}
	// Stay silent. The node must disconnect us within the idle deadline.
	if !waitFor(t, 2*time.Second, func() bool { return n.PeerCount() == 0 }) {
		t.Fatal("silent peer was not disconnected after the idle deadline")
	}
	// Our side of the connection must observe the close.
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatalf("arm read deadline: %v", err)
	}
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection still open after idle disconnect")
	}
	if got := reg.Snapshot().Counters["node.idle_disconnects"]; got != 1 {
		t.Fatalf("node.idle_disconnects = %d, want 1", got)
	}
}

// bigTx mints a pending transaction with a payload large enough to fill
// socket buffers quickly.
func bigTx(seq uint64, size int) *types.Transaction {
	tx := types.NewTransaction(
		types.AddressFromUint64(0xb16<<32|seq), types.AddressFromUint64(2), 0, types.Gwei, 0)
	tx.Data = make([]byte, size)
	return tx
}

// TestStalledWriterDoesNotBlockBroadcast proves the per-peer write deadline:
// one peer that stops reading (kernel buffers fill, writes block) is dropped
// after WriteTimeout, and broadcasts keep reaching healthy peers.
func TestStalledWriterDoesNotBlockBroadcast(t *testing.T) {
	reg := metrics.NewRegistry()
	a, err := Start(Config{
		ClientVersion: "geth-lite/a",
		NetworkID:     testNetID,
		Policy:        txpool.Geth.WithCapacity(1024),
		Seed:          1,
		Metrics:       reg,
		writeTimeout:  250 * time.Millisecond,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b := startTestNode(t, 2) // healthy: reads everything

	if err := b.Dial(a.Addr()); err != nil {
		t.Fatal(err)
	}
	stalled := rawPeer(t, a.Addr()) // never reads after the handshake
	_ = stalled
	if !waitFor(t, time.Second, func() bool { return a.PeerCount() == 2 }) {
		t.Fatalf("peer setup failed: %d peers", a.PeerCount())
	}

	// Pump large transactions until the stalled peer's buffers fill and the
	// write deadline fires. 64 × 256 KiB = 16 MiB far exceeds loopback
	// socket buffering.
	deadline := time.Now().Add(30 * time.Second)
	for i := uint64(0); a.PeerCount() == 2 && time.Now().Before(deadline); i++ {
		a.SubmitLocal(bigTx(i, 256<<10))
	}
	if a.PeerCount() != 1 {
		t.Fatal("stalled peer was never dropped")
	}
	if got := reg.Snapshot().Counters["node.write_stall_drops"]; got < 1 {
		t.Fatalf("node.write_stall_drops = %d, want >= 1", got)
	}

	// Broadcast must still reach the healthy peer promptly.
	tx := types.NewTransaction(types.AddressFromUint64(7), types.AddressFromUint64(8), 0, 2*types.Gwei, 0)
	if st := a.SubmitLocal(tx); st != txpool.StatusPending {
		t.Fatalf("submit after drop: %v", st)
	}
	if !waitFor(t, 3*time.Second, func() bool { return b.HasTx(tx.Hash()) }) {
		t.Fatal("healthy peer no longer receives broadcasts")
	}
}

// TestPeerRemovedExactlyOnceAndSlotFreed kills a live connection and
// verifies the peer is removed exactly once — the MaxPeers slot frees up and
// a re-dial succeeds.
func TestPeerRemovedExactlyOnceAndSlotFreed(t *testing.T) {
	reg := metrics.NewRegistry()
	a, err := Start(Config{
		ClientVersion: "geth-lite/a",
		NetworkID:     testNetID,
		Policy:        txpool.Geth.WithCapacity(64),
		MaxPeers:      1, // one slot: stale entries would block the re-dial
		Seed:          3,
		Metrics:       reg,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	b := startTestNode(t, 4)
	if err := b.Dial(a.Addr()); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, time.Second, func() bool { return a.PeerCount() == 1 }) {
		t.Fatal("initial peering failed")
	}

	// Kill the live connection from b's side.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 2*time.Second, func() bool { return a.PeerCount() == 0 }) {
		t.Fatal("dead peer left a stale entry in the peer table")
	}

	// The single MaxPeers slot must be free again.
	c := startTestNode(t, 5)
	if err := c.Dial(a.Addr()); err != nil {
		t.Fatalf("re-dial after peer death: %v", err)
	}
	if !waitFor(t, time.Second, func() bool { return a.PeerCount() == 1 }) {
		t.Fatal("re-dial did not register")
	}

	// Exactly one disconnect recorded for the one dead peer.
	s := reg.Snapshot()
	if got := s.Counters["node.peers.disconnected"]; got != 1 {
		t.Fatalf("node.peers.disconnected = %d, want 1", got)
	}
	if got := s.Counters["node.peers.connected"]; got != 2 {
		t.Fatalf("node.peers.connected = %d, want 2", got)
	}
}

// TestPeerStatsAccounting checks the per-peer frame/byte counters move.
func TestPeerStatsAccounting(t *testing.T) {
	a := startTestNode(t, 6)
	b := startTestNode(t, 7)
	if err := a.Dial(b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool { return a.PeerCount() == 1 && b.PeerCount() == 1 })
	tx := types.NewTransaction(types.AddressFromUint64(9), types.AddressFromUint64(10), 0, types.Gwei, 0)
	if st := a.SubmitLocal(tx); st != txpool.StatusPending {
		t.Fatalf("submit: %v", st)
	}
	if !waitFor(t, 2*time.Second, func() bool { return b.HasTx(tx.Hash()) }) {
		t.Fatal("tx did not arrive")
	}
	stats := a.PeerStats()
	if len(stats) != 1 {
		t.Fatalf("want 1 peer stat, got %d", len(stats))
	}
	if stats[0].FramesOut < 1 || stats[0].BytesOut == 0 {
		t.Fatalf("outbound accounting did not move: %+v", stats[0])
	}
	bs := b.PeerStats()
	if len(bs) != 1 || bs[0].FramesIn < 1 || bs[0].BytesIn == 0 {
		t.Fatalf("inbound accounting did not move: %+v", bs)
	}
}

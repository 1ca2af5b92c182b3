// Package node implements a runnable Ethereum-lite peer over real TCP: a
// txpool-backed gossip node speaking the internal/wire protocol. It exists
// so TopoShot can be exercised end-to-end over genuine sockets — the
// substitution for "live testnet nodes and peering" — and is used by the
// live integration tests, the live-tcp example and cmd/toposhotd.
package node

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"toposhot/internal/gossip"
	"toposhot/internal/metrics"
	"toposhot/internal/trace"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
	"toposhot/internal/wire"
)

// Default deadlines. A peer that sends nothing for DefaultReadIdleTimeout is
// assumed dead and disconnected; a frame write that cannot complete within
// DefaultWriteTimeout marks the peer stalled and drops it rather than
// head-of-line-blocking broadcasts to everyone else.
const (
	DefaultReadIdleTimeout = 2 * time.Minute
	DefaultWriteTimeout    = 10 * time.Second
)

// Config parameterizes a live node.
type Config struct {
	// ClientVersion is sent in the handshake (web3_clientVersion analogue).
	ClientVersion string
	// NetworkID must match between peers.
	NetworkID uint64
	// Policy is the mempool policy.
	Policy txpool.Policy
	// MaxPeers bounds accepted connections (0 = 50).
	MaxPeers int
	// NoForward makes the node buffer without relaying (instrumented
	// measurement client behaviour).
	NoForward bool
	// Seed drives peer sampling for push/announce splits.
	Seed int64
	// Metrics, when set, receives node instrumentation under the "node."
	// prefix (and mempool counters under "txpool."). Nil falls back to the
	// process default registry (metrics.Enable), and to no-op instruments
	// when that is off too.
	Metrics *metrics.Registry

	// readIdle is the idle read deadline, refreshed before every frame: a
	// peer silent for this long is disconnected and deregistered. writeTimeout
	// bounds each frame write; on expiry the stalled peer is dropped. 0 means
	// DefaultReadIdleTimeout and DefaultWriteTimeout; only the stall tests
	// shorten them.
	readIdle, writeTimeout time.Duration
}

// Trace event names for the live node (the trace-spanname lint rule keeps
// these constants).
const (
	evPeerConnect    = "peer-connect"
	evPeerDisconnect = "peer-disconnect"
	evReplaceAccept  = "replace-accept"
	evReplaceReject  = "replace-reject"
)

const attrAddr = "addr"

// Node is a live TCP peer.
type Node struct {
	cfg Config
	ln  net.Listener

	mu     sync.Mutex
	pool   *txpool.Pool
	peers  map[string]*peer // keyed by remote address
	locks  gossip.Locks
	rng    *rand.Rand
	closed bool

	// now reads the announce-lock clock: wall seconds since Start.
	now func() float64

	wg sync.WaitGroup

	metrics nodeMetrics

	// tracer records peer-lifecycle events (and, at LevelEngine,
	// replacement outcomes) on the process-default tracer. Nil no-ops.
	tracer      *trace.Tracer
	traceEngine bool

	// onSeen, when set, receives the hash of every transaction a peer
	// delivers (pushed; admitted or not) and every hash it announces, with the
	// peer's remote address. A Vantage sets it before any peer connects.
	onSeen func(fromAddr string, hashes []types.Hash, pushed bool)
}

// nodeMetrics pre-resolves the node's instruments; the zero value (nil
// instruments) makes every update a single no-op branch.
type nodeMetrics struct {
	framesIn, framesOut *metrics.Counter
	bytesIn, bytesOut   *metrics.Counter
	peersConnected      *metrics.Counter
	peersDisconnected   *metrics.Counter
	writeStallDrops     *metrics.Counter
	idleDisconnects     *metrics.Counter
}

func newNodeMetrics(r *metrics.Registry) nodeMetrics {
	if r == nil {
		return nodeMetrics{}
	}
	return nodeMetrics{
		framesIn:          r.Counter("node.frames.in"),
		framesOut:         r.Counter("node.frames.out"),
		bytesIn:           r.Counter("node.bytes.in"),
		bytesOut:          r.Counter("node.bytes.out"),
		peersConnected:    r.Counter("node.peers.connected"),
		peersDisconnected: r.Counter("node.peers.disconnected"),
		writeStallDrops:   r.Counter("node.write_stall_drops"),
		idleDisconnects:   r.Counter("node.idle_disconnects"),
	}
}

type peer struct {
	conn    net.Conn
	addr    string
	version string

	writeMu      sync.Mutex
	writeTimeout time.Duration
	w            io.Writer // byte-counting writer over conn

	// asked holds one entry per GetPooledTransactions sent to the peer,
	// oldest first: the channel awaiting a query's answer, or nil for an
	// announce fetch, whose answer goes through handleTxs. A peer answers
	// every request once and in order, so each answer pops the front.
	// Guarded by writeMu, which also orders the requests on the wire.
	asked []chan []*types.Transaction

	closeOnce sync.Once

	// Per-peer traffic accounting (DEthna-style per-peer message flow).
	framesIn, framesOut atomic.Int64
	bytesIn, bytesOut   atomic.Int64
}

// close shuts the connection exactly once; concurrent droppers race safely.
func (p *peer) close() {
	p.closeOnce.Do(func() { _ = p.conn.Close() })
}

// counting tallies the bytes read from and written to a peer's connection.
type counting struct {
	p *peer
	n *Node
}

func (c counting) Write(b []byte) (int, error) {
	n, err := c.p.conn.Write(b)
	if n > 0 {
		c.p.bytesOut.Add(int64(n))
		c.n.metrics.bytesOut.Add(int64(n))
	}
	return n, err
}

func (c counting) Read(b []byte) (int, error) {
	n, err := c.p.conn.Read(b)
	if n > 0 {
		c.p.bytesIn.Add(int64(n))
		c.n.metrics.bytesIn.Add(int64(n))
	}
	return n, err
}

// send writes one frame to the peer under its write deadline. It reports
// wire/IO errors verbatim; the caller decides whether to drop the peer. A
// request queues reply (see asked) under the lock that orders the writes.
func (p *peer) send(m wire.Msg, reply chan []*types.Transaction) error {
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	if m.Code == wire.CodeGetPooledTransactions {
		p.asked = append(p.asked, reply)
	}
	//lint:ignore locksafe writeMu exists to serialize whole frames; the deadline set here bounds how long it is held
	if err := p.conn.SetWriteDeadline(time.Now().Add(p.writeTimeout)); err != nil {
		return err
	}
	//lint:ignore locksafe frame serialization is writeMu's purpose; the write deadline above caps the hold time
	return wire.WriteMsg(p.w, m)
}

// answered pops the channel awaiting the oldest outstanding request's answer:
// nil for an announce fetch, or for an answer nobody asked for.
func (p *peer) answered() chan []*types.Transaction {
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	if len(p.asked) == 0 {
		return nil
	}
	reply := p.asked[0]
	p.asked = p.asked[1:]
	return reply
}

// Start launches a node listening on addr (use "127.0.0.1:0" for an
// ephemeral port).
func Start(cfg Config, addr string) (*Node, error) {
	if cfg.MaxPeers == 0 {
		cfg.MaxPeers = 50
	}
	if cfg.Policy.Capacity == 0 {
		cfg.Policy = txpool.Geth
	}
	if cfg.readIdle == 0 {
		cfg.readIdle = DefaultReadIdleTimeout
	}
	if cfg.writeTimeout == 0 {
		cfg.writeTimeout = DefaultWriteTimeout
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.Enabled()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	// A configured seed is honored exactly so probe jitter is reproducible;
	// only an unset seed falls back to the wall clock.
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	start := time.Now()
	n := &Node{
		cfg:     cfg,
		ln:      ln,
		pool:    txpool.New(cfg.Policy),
		peers:   make(map[string]*peer),
		rng:     rand.New(rand.NewSource(seed)),
		now:     func() float64 { return time.Since(start).Seconds() },
		metrics: newNodeMetrics(cfg.Metrics),
		tracer:  trace.Enabled(),
	}
	n.traceEngine = n.tracer.Enabled(trace.LevelEngine)
	if cfg.Metrics != nil {
		n.pool.SetMetrics(txpool.NewMetrics(cfg.Metrics))
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Close stops the node and disconnects all peers.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	peers := n.sortedPeers()
	n.mu.Unlock()
	err := n.ln.Close()
	for _, p := range peers {
		p.close()
	}
	n.wg.Wait()
	return err
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			if err := n.setupPeer(conn); err != nil {
				_ = conn.Close()
			}
		}()
	}
}

// Dial connects to a remote node and registers it as a peer.
func (n *Node) Dial(addr string) error {
	_, err := n.dial(addr)
	return err
}

// dial is Dial returning the address the peer is registered under.
func (n *Node) dial(addr string) (string, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return "", err
	}
	if err := n.setupPeer(conn); err != nil {
		_ = conn.Close()
		return "", err
	}
	return conn.RemoteAddr().String(), nil
}

// setupPeer performs the Status handshake and launches the read loop.
func (n *Node) setupPeer(conn net.Conn) error {
	status := wire.Msg{Code: wire.CodeStatus, Status: wire.Status{
		ProtocolVersion: wire.ProtocolVersion,
		NetworkID:       n.cfg.NetworkID,
		ClientVersion:   n.cfg.ClientVersion,
	}}
	// Both sides send Status first, then read the remote's.
	if err := wire.WriteMsg(conn, status); err != nil {
		return err
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return err
	}
	remote, err := wire.ReadMsg(conn)
	if err != nil {
		return err
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return err
	}
	if remote.Code != wire.CodeStatus {
		return fmt.Errorf("node: expected status, got code %d", remote.Code)
	}
	if remote.Status.NetworkID != n.cfg.NetworkID {
		return fmt.Errorf("node: network id mismatch: %d != %d",
			remote.Status.NetworkID, n.cfg.NetworkID)
	}
	p := &peer{
		conn:         conn,
		addr:         conn.RemoteAddr().String(),
		version:      remote.Status.ClientVersion,
		writeTimeout: n.cfg.writeTimeout,
	}
	p.w = counting{p: p, n: n}

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("node: closed")
	}
	if len(n.peers) >= n.cfg.MaxPeers {
		n.mu.Unlock()
		return errors.New("node: too many peers")
	}
	if old, ok := n.peers[p.addr]; ok {
		// A stale entry under the same remote address (reconnect racing the
		// old read loop's teardown) must not leak: evict it explicitly.
		delete(n.peers, p.addr)
		old.close()
		n.metrics.peersDisconnected.Inc()
	}
	n.peers[p.addr] = p
	n.mu.Unlock()
	n.metrics.peersConnected.Inc()
	n.tracer.Event(evPeerConnect, trace.String(attrAddr, p.addr))

	n.wg.Add(1)
	go n.readLoop(p)
	return nil
}

// dropPeer deregisters and closes a peer. It is idempotent and exactly-once
// per registered peer: the write-error path and the read loop's deferred
// teardown may both call it, and a reconnect that reuses the remote address
// is never clobbered (the map entry is removed only if it is this peer).
func (n *Node) dropPeer(p *peer) {
	n.mu.Lock()
	dropped := false
	if cur, ok := n.peers[p.addr]; ok && cur == p {
		delete(n.peers, p.addr)
		n.metrics.peersDisconnected.Inc()
		dropped = true
	}
	n.mu.Unlock()
	if dropped {
		n.tracer.Event(evPeerDisconnect, trace.String(attrAddr, p.addr))
	}
	p.close()
	// Queries still waiting for an answer get none.
	p.writeMu.Lock()
	asked := p.asked
	p.asked = nil
	p.writeMu.Unlock()
	for _, reply := range asked {
		if reply != nil {
			close(reply)
		}
	}
}

// sendTo writes one frame to a peer and handles failure: a write error —
// including a deadline expiry on a stalled connection — drops the peer so
// it cannot block future broadcasts.
func (n *Node) sendTo(p *peer, m wire.Msg) error { return n.ask(p, m, nil) }

// ask is sendTo for a frame whose answer, if it is a request, goes to reply.
func (n *Node) ask(p *peer, m wire.Msg, reply chan []*types.Transaction) error {
	err := p.send(m, reply)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			n.metrics.writeStallDrops.Inc()
		}
		n.dropPeer(p)
		return err
	}
	p.framesOut.Add(1)
	n.metrics.framesOut.Inc()
	return nil
}

func (n *Node) readLoop(p *peer) {
	defer n.wg.Done()
	defer n.dropPeer(p)
	r := counting{p: p, n: n}
	for {
		// A connection that cannot even arm its deadline is dead; bail out
		// through the deferred teardown.
		if err := p.conn.SetReadDeadline(time.Now().Add(n.cfg.readIdle)); err != nil {
			return
		}
		m, err := wire.ReadMsg(r)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				n.metrics.idleDisconnects.Inc()
			}
			return
		}
		p.framesIn.Add(1)
		n.metrics.framesIn.Inc()
		switch m.Code {
		case wire.CodeTransactions:
			n.handleTxs(p, m.Txs)
		case wire.CodePooledTransactions:
			if reply := p.answered(); reply != nil {
				reply <- m.Txs // buffered: a query waits for exactly one answer
			} else {
				n.handleTxs(p, m.Txs)
			}
		case wire.CodeNewPooledTransactionHashes:
			n.handleAnnounce(p, m.Hashes)
		case wire.CodeGetPooledTransactions:
			n.handleRequest(p, m.Hashes)
		case wire.CodeDisconnect:
			return
		}
	}
}

func (n *Node) handleTxs(p *peer, txs []*types.Transaction) {
	var out []*types.Transaction
	var accepted, rejected int64
	n.mu.Lock()
	for _, tx := range txs {
		res := n.pool.Offer(tx)
		if res.Status == txpool.StatusReplaced {
			accepted++
		} else if res.Status == txpool.StatusUnderpriced {
			rejected++
		}
		out = gossip.Propagatable(out, tx, res, n.pool, false)
	}
	onSeen := n.onSeen
	var seen []types.Hash
	if onSeen != nil {
		// Hashed under the lock: a pooled transaction's digest memo is
		// written by whoever hashes it first.
		for _, tx := range txs {
			seen = append(seen, tx.Hash())
		}
	}
	n.mu.Unlock()
	if n.traceEngine {
		if accepted > 0 {
			n.tracer.Event(evReplaceAccept, trace.String(attrAddr, p.addr), trace.Int("n", accepted))
		}
		if rejected > 0 {
			n.tracer.Event(evReplaceReject, trace.String(attrAddr, p.addr), trace.Int("n", rejected))
		}
	}
	if onSeen != nil {
		onSeen(p.addr, seen, true)
	}
	n.propagate(p.addr, out)
}

// handleAnnounce requests the announced hashes the pool lacks and no live
// lock covers, and reports all of them to onSeen. Expired locks are swept
// first, so the table stays bounded without a timer of its own. Concurrent
// announcers may arm a few locks slightly out of expiry order; the sweep then
// frees those late, never early.
func (n *Node) handleAnnounce(p *peer, hashes []types.Hash) {
	now := n.now()
	var want []types.Hash
	n.mu.Lock()
	n.locks.Sweep(now)
	for _, h := range hashes {
		if !n.pool.Has(h) && n.locks.Fetch(h, now) {
			want = append(want, h)
		}
	}
	onSeen := n.onSeen
	n.mu.Unlock()
	if onSeen != nil {
		onSeen(p.addr, hashes, false)
	}
	if len(want) > 0 {
		_ = n.sendTo(p, wire.Msg{Code: wire.CodeGetPooledTransactions, Hashes: want})
	}
}

// handleRequest answers every request, with an empty list when the pool
// holds none of the hashes, as devp2p peers do: the asker pairs answers with
// requests by order.
func (n *Node) handleRequest(p *peer, hashes []types.Hash) {
	n.mu.Lock()
	txs := gossip.Answer(nil, n.pool, hashes, nil)
	n.mu.Unlock()
	_ = n.sendTo(p, wire.Msg{Code: wire.CodePooledTransactions, Txs: txs})
}

// query asks the peer at addr for the pooled transactions with the given
// hashes and returns its answer, the ones it holds. The answer bypasses the
// pool and onSeen.
func (n *Node) query(addr string, hashes []types.Hash) ([]*types.Transaction, error) {
	n.mu.Lock()
	p := n.peers[addr]
	n.mu.Unlock()
	if p == nil {
		return nil, fmt.Errorf("node: no peer %s", addr)
	}
	reply := make(chan []*types.Transaction, 1)
	if err := n.ask(p, wire.Msg{Code: wire.CodeGetPooledTransactions, Hashes: hashes}, reply); err != nil {
		return nil, err
	}
	txs, ok := <-reply
	if !ok {
		return nil, fmt.Errorf("node: peer %s dropped before answering", addr)
	}
	return txs, nil
}

// propagate gossips what an admission made propagatable: the full
// transactions to the push slots, their hashes to the rest, nothing back to
// the source peer. A NoForward node relays nothing.
func (n *Node) propagate(excludeAddr string, txs []*types.Transaction) {
	if len(txs) == 0 || n.cfg.NoForward {
		return
	}
	push, announce := n.fanout(excludeAddr)
	for _, p := range push {
		_ = n.sendTo(p, wire.Msg{Code: wire.CodeTransactions, Txs: txs})
	}
	if len(announce) == 0 {
		return
	}
	hashes := make([]types.Hash, len(txs))
	// Hashed under the lock: a pooled transaction's digest memo is written by
	// whoever hashes it first, and a request's answer hashes under the lock.
	n.mu.Lock()
	for i, tx := range txs {
		hashes[i] = tx.Hash()
	}
	n.mu.Unlock()
	for _, p := range announce {
		_ = n.sendTo(p, wire.Msg{Code: wire.CodeNewPooledTransactionHashes, Hashes: hashes})
	}
}

// fanout draws one propagation's split of the peers: a permutation over all
// of them in address order, whose first gossip.PushCount slots get the full
// transactions and the rest announcements. The slot of excludeAddr (the
// source) is skipped, not refilled — the simulator's rule. Sorting before the
// draw makes the split depend on the seeded RNG and the peer set alone, never
// on map iteration order.
func (n *Node) fanout(excludeAddr string) (push, announce []*peer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	peers := n.sortedPeers()
	pushCount := gossip.PushCount(len(peers), false)
	for i, pi := range n.rng.Perm(len(peers)) {
		p := peers[pi]
		if p.addr == excludeAddr {
			continue
		}
		if i < pushCount {
			push = append(push, p)
		} else {
			announce = append(announce, p)
		}
	}
	return push, announce
}

// SendTo pushes transactions to one specific peer, bypassing the local pool
// — the instrumented-client injection a measurement node needs (futures
// included).
func (n *Node) SendTo(peerAddr string, txs []*types.Transaction) error {
	n.mu.Lock()
	p := n.peers[peerAddr]
	n.mu.Unlock()
	if p == nil {
		return fmt.Errorf("node: no peer %s", peerAddr)
	}
	return n.sendTo(p, wire.Msg{Code: wire.CodeTransactions, Txs: txs})
}

// PoolStats returns (total, pending, future) population counts.
func (n *Node) PoolStats() (int, int, int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pool.Len(), n.pool.PendingCount(), n.pool.FutureCount()
}

// PeerCount returns the number of connected peers.
func (n *Node) PeerCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.peers)
}

// PeerStat is one connected peer's traffic accounting. toposhotd's /peers
// encodes it whole, so no field is read by name.
type PeerStat struct {
	Addr      string
	Version   string
	FramesIn  int64
	FramesOut int64
	BytesIn   int64
	BytesOut  int64
}

// PeerStats returns per-peer frame and byte counts, sorted by address — the
// per-peer message-flow view topology-measurement diagnosis needs.
func (n *Node) PeerStats() []PeerStat {
	n.mu.Lock()
	peers := n.sortedPeers()
	n.mu.Unlock()
	out := make([]PeerStat, 0, len(peers))
	for _, p := range peers {
		out = append(out, PeerStat{
			Addr:      p.addr,
			Version:   p.version,
			FramesIn:  p.framesIn.Load(),
			FramesOut: p.framesOut.Load(),
			BytesIn:   p.bytesIn.Load(),
			BytesOut:  p.bytesOut.Load(),
		})
	}
	return out
}

// sortedPeers returns the connected peers in address order; the caller holds
// n.mu.
func (n *Node) sortedPeers() []*peer {
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].addr < peers[j].addr })
	return peers
}

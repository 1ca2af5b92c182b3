package ethsim

import (
	"math"

	"toposhot/internal/trace"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// NodeConfig describes one simulated node's client behaviour. The non-default
// knobs model the measurement hazards §6.1 attributes missing recall to.
type NodeConfig struct {
	// Policy is the mempool policy (client type and R/U/P/L values).
	Policy txpool.Policy
	// MaxPeers caps active neighbors; 0 means the Geth default of 50.
	MaxPeers int
	// LegacyPushAll disables announcements: every pending transaction is
	// pushed whole to every peer (pre-1.9.11 Geth, Parity).
	LegacyPushAll bool
	// NoForward marks a node that buffers but never relays transactions
	// (§6.1 culprit 3 for missing recall).
	NoForward bool
	// ForwardFutures marks a non-default node that relays future
	// transactions, invalidating TopoShot's assumption; pre-processing
	// detects and excludes such nodes (§6.2.1).
	ForwardFutures bool
	// Unresponsive marks a node that drops every incoming message.
	Unresponsive bool
	// Miner enables block production on this node (see chain wiring).
	Miner bool
	// Label tags the node with a service name (for the mainnet scenario).
	Label string
	// VersionTag, when set, is appended to the client-version string — the
	// per-node codename §6.3's critical-node discovery matches on.
	VersionTag string
}

// DefaultNodeConfig returns a vanilla Geth node.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{Policy: txpool.Geth, MaxPeers: 50}
}

// TxReceipt records one transaction delivery observed by a node hook.
type TxReceipt struct {
	From types.NodeID
	Tx   *types.Transaction
	At   float64
}

// lockEntry is one armed announcement lock in expiry order.
type lockEntry struct {
	h     types.Hash
	until float64
}

// Node is one simulated Ethereum peer. Its peer set lives as a sorted
// segment of the network's shared adjacency arena (struct-of-arrays,
// DESIGN.md §12): the node carries only the segment's offset/length/capacity,
// so 50k idle nodes cost three int32s each instead of a map apiece, and the
// flush fan-out walks a contiguous sorted id slice.
type Node struct {
	id   types.NodeID
	net  *Network
	cfg  NodeConfig
	pool *txpool.Pool

	// peerOff/peerCnt/peerCap describe this node's segment in the network's
	// adjacency arena: peer ids sorted ascending in
	// net.adjIDs[peerOff:peerOff+peerCnt], FIFO watermarks parallel in
	// net.adjMark.
	peerOff int32
	peerCnt int32
	peerCap int32

	// announceLock maps a tx hash to the time until which further
	// announcements of that hash are ignored (the 5 s window). The map is
	// allocated lazily on first arm, so idle nodes at mainnet scale carry no
	// empty map header. lockQ holds the same locks in arming order; the
	// window is a network constant, so arming order is expiry order and the
	// janitor sweep pops an expired prefix instead of scanning the map (see
	// sweepAnnounceLocks).
	announceLock map[types.Hash]float64
	lockQ        []lockEntry
	lockQHead    int

	// outQ buffers transactions awaiting the coalesced gossip flush, with
	// the peer each one arrived from (never sent back there). A flush hands
	// the slice over as its batch's payload and takes the batch's spare
	// buffer in exchange.
	outQ           []outItem
	flushScheduled bool

	// scratchOut is the reused per-delivery buffer of transactions made
	// propagatable by one Transactions message. It is only live inside
	// deliverTxs (single-threaded engine, hooks never re-enter delivery),
	// and its contents are copied into outQ before reuse.
	scratchOut []*types.Transaction

	// OnTxAdmitted, when set, fires after a transaction enters the pool.
	OnTxAdmitted func(rcpt TxReceipt, res txpool.Result)
	// OnTxDelivered, when set, fires for every transaction delivery,
	// admitted or not (the supernode's observation hook).
	OnTxDelivered func(rcpt TxReceipt)
	// OnHashAnnounced, when set, fires for every announced hash, before the
	// lock/known filtering (the supernode records who advertises what).
	OnHashAnnounced func(from types.NodeID, h types.Hash, at float64)
}

func newNode(net *Network, id types.NodeID, cfg NodeConfig) *Node {
	if cfg.MaxPeers == 0 {
		cfg.MaxPeers = 50
	}
	if cfg.Policy.Capacity == 0 {
		cfg.Policy = txpool.Geth
	}
	return &Node{
		id:   id,
		net:  net,
		cfg:  cfg,
		pool: txpool.New(cfg.Policy),
	}
}

// ID returns the node id.
func (nd *Node) ID() types.NodeID { return nd.id }

// Config returns the node configuration.
func (nd *Node) Config() NodeConfig { return nd.cfg }

// Pool exposes the node's mempool (ground-truth inspection in tests; remote
// interaction should go through the RPC facade).
func (nd *Node) Pool() *txpool.Pool { return nd.pool }

// peersSeg returns the node's live adjacency segment: peer ids sorted
// ascending. The slice aliases the shared arena — valid until the next
// addPeer anywhere on the network.
//
//toposhot:hotpath
func (nd *Node) peersSeg() []types.NodeID {
	return nd.net.adjIDs[nd.peerOff : nd.peerOff+nd.peerCnt]
}

// marksSeg returns the node's per-directed-link FIFO watermarks, parallel to
// peersSeg.
//
//toposhot:hotpath
func (nd *Node) marksSeg() []float64 {
	return nd.net.adjMark[nd.peerOff : nd.peerOff+nd.peerCnt]
}

// Peers returns the node's active neighbors in ascending id order. The
// result is a copy of the live segment — callers may hold or mutate it
// freely.
func (nd *Node) Peers() []types.NodeID {
	return append([]types.NodeID(nil), nd.peersSeg()...)
}

// Degree returns the number of active neighbors.
func (nd *Node) Degree() int { return int(nd.peerCnt) }

// AtCapacity reports whether the node refuses further peers.
func (nd *Node) AtCapacity() bool { return int(nd.peerCnt) >= nd.cfg.MaxPeers }

// peerPos returns the position of id within the node's sorted segment, or
// -1. The binary search is hand-rolled (no sort.Search closure) because it
// runs per routed message.
//
//toposhot:hotpath
func (nd *Node) peerPos(id types.NodeID) int {
	ids := nd.net.adjIDs
	lo, hi := int(nd.peerOff), int(nd.peerOff+nd.peerCnt)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(nd.peerOff+nd.peerCnt) && ids[lo] == id {
		return lo - int(nd.peerOff)
	}
	return -1
}

// peerInsertPos returns the sorted insertion position for id within the
// segment (relative to peerOff).
func (nd *Node) peerInsertPos(id types.NodeID) int {
	ids := nd.net.adjIDs
	lo, hi := int(nd.peerOff), int(nd.peerOff+nd.peerCnt)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - int(nd.peerOff)
}

// addPeer inserts id into the node's sorted adjacency segment, relocating
// the segment to the arena's end with doubled capacity when full. A FIFO
// watermark retained in the overflow map from an earlier teardown of the
// same directed link migrates back into the dense slot, preserving the
// TCP-ordering clamp across reconnects.
func (nd *Node) addPeer(id types.NodeID) {
	if nd.peerPos(id) >= 0 {
		return
	}
	net := nd.net
	if nd.peerCnt == nd.peerCap {
		newCap := nd.peerCap * 2
		if newCap < 4 {
			newCap = 4
		}
		off := int32(len(net.adjIDs))
		net.adjIDs = append(net.adjIDs, make([]types.NodeID, newCap)...)
		net.adjMark = append(net.adjMark, make([]float64, newCap)...)
		copy(net.adjIDs[off:], net.adjIDs[nd.peerOff:nd.peerOff+nd.peerCnt])
		copy(net.adjMark[off:], net.adjMark[nd.peerOff:nd.peerOff+nd.peerCnt])
		nd.peerOff, nd.peerCap = off, newCap
	}
	i := nd.peerInsertPos(id)
	ids := net.adjIDs[nd.peerOff : nd.peerOff+nd.peerCnt+1]
	marks := net.adjMark[nd.peerOff : nd.peerOff+nd.peerCnt+1]
	copy(ids[i+1:], ids[i:])
	copy(marks[i+1:], marks[i:])
	ids[i] = id
	marks[i] = 0
	key := linkKey(nd.id, id)
	if last, ok := net.overflowMark[key]; ok {
		marks[i] = last
		delete(net.overflowMark, key)
	}
	nd.peerCnt++
}

// removePeer drops id from the sorted segment. A watermark still inside the
// latency horizon moves to the overflow map so an in-flight delivery on the
// dead link keeps its FIFO clamp if the link comes back; older watermarks
// are dropped on the spot (pruned on reuse rather than by scanning).
func (nd *Node) removePeer(id types.NodeID) {
	i := nd.peerPos(id)
	if i < 0 {
		return
	}
	net := nd.net
	ids := net.adjIDs[nd.peerOff : nd.peerOff+nd.peerCnt]
	marks := net.adjMark[nd.peerOff : nd.peerOff+nd.peerCnt]
	horizon := net.eng.Now() - (net.cfg.LatencyMax + net.cfg.SpikeMax)
	if last := marks[i]; last > 0 && last >= horizon {
		net.overflowMark[linkKey(nd.id, id)] = last
	}
	copy(ids[i:], ids[i+1:])
	copy(marks[i:], marks[i+1:])
	nd.peerCnt--
}

// SubmitLocal submits a transaction as if received over RPC from a local
// user: it is offered to the pool and, if executable, propagated. Unlike the
// gossip delivery path it does not use the node's scratch buffers — local
// submission is the cold entry point, and keeping it allocation-isolated
// means a future hook that submits from inside a delivery callback cannot
// corrupt an in-flight batch.
func (nd *Node) SubmitLocal(tx *types.Transaction) txpool.Result {
	res := nd.pool.Offer(tx)
	if out := nd.appendPropagatable(nil, tx, res); len(out) > 0 && !nd.cfg.NoForward {
		nd.propagate(nd.id, out)
	}
	return res
}

// deliverTxs handles a Transactions message from peer `from`. Transactions
// arriving in one message propagate onward as one batched message per peer,
// matching devp2p's batched Transactions frames.
//
//toposhot:hotpath
func (nd *Node) deliverTxs(from types.NodeID, txs []*types.Transaction) {
	out := nd.scratchOut[:0]
	for _, tx := range txs {
		out = nd.receiveTx(from, tx, out)
	}
	nd.relay(from, out)
}

// deliverBatch is deliverTxs for a message whose payload is a flush's shared
// batch: the items the sender excluded for this node are not part of it.
//
//toposhot:hotpath
func (nd *Node) deliverBatch(from types.NodeID, items []outItem) {
	out := nd.scratchOut[:0]
	for i := range items {
		if items[i].exclude != nd.id {
			out = nd.receiveTx(from, items[i].tx, out)
		}
	}
	nd.relay(from, out)
}

// receiveTx offers one delivered transaction to the pool, fires the
// observation hooks, and appends what the admission made propagatable.
//
//toposhot:hotpath
func (nd *Node) receiveTx(from types.NodeID, tx *types.Transaction, out []*types.Transaction) []*types.Transaction {
	rcpt := TxReceipt{From: from, Tx: tx, At: nd.net.Now()}
	if nd.OnTxDelivered != nil {
		nd.OnTxDelivered(rcpt)
	}
	res := nd.pool.Offer(tx)
	if nd.net.OnOffer != nil {
		nd.net.OnOffer(nd.id, from, tx, res.Status.String())
	}
	if nd.net.traceEngine {
		nd.traceOffer(res)
	}
	if nd.OnTxAdmitted != nil && res.Status.Admitted() {
		nd.OnTxAdmitted(rcpt, res)
	}
	return nd.appendPropagatable(out, tx, res)
}

// relay queues what one delivery made propagatable and hands the scratch
// buffer back.
//
//toposhot:hotpath
func (nd *Node) relay(from types.NodeID, out []*types.Transaction) {
	if len(out) > 0 && !nd.cfg.NoForward {
		nd.propagate(from, out)
	}
	nd.scratchOut = out[:0] // keep the grown capacity for the next delivery
}

// traceOffer records mempool displacement events (LevelEngine): evictions
// that made room for the offered transaction, and replacement accept/reject.
// Out of line so the traced-off delivery loop stays branch-only.
func (nd *Node) traceOffer(res txpool.Result) {
	if len(res.Evicted) > 0 {
		nd.net.tracer.Event(evEvict,
			trace.Int(attrNode, int64(nd.id)), trace.Int(attrN, int64(len(res.Evicted))))
	}
	switch res.Status {
	case txpool.StatusReplaced:
		nd.net.tracer.Event(evReplaceAccept, trace.Int(attrNode, int64(nd.id)))
	case txpool.StatusUnderpriced:
		nd.net.tracer.Event(evReplaceReject, trace.Int(attrNode, int64(nd.id)))
	}
}

// appendPropagatable appends what an admission makes eligible for gossip.
//
//toposhot:hotpath
func (nd *Node) appendPropagatable(out []*types.Transaction, tx *types.Transaction, res txpool.Result) []*types.Transaction {
	switch res.Status {
	case txpool.StatusPending:
		out = append(out, tx)
	case txpool.StatusReplaced:
		// A replacement of a pending slot re-propagates (the "speed-up"
		// application in §1 relies on this).
		if nd.pool.ContainsPending(tx) {
			out = append(out, tx)
		}
	case txpool.StatusFuture:
		if nd.cfg.ForwardFutures {
			out = append(out, tx)
		}
	}
	return append(out, res.Promoted...)
}

// outItem is one queued gossip transaction with its arrival peer.
type outItem struct {
	tx      *types.Transaction
	exclude types.NodeID
}

// propagate queues executable transactions for the coalesced gossip flush —
// the analogue of Geth's broadcast loop, which batches transactions rather
// than emitting one message per admission. The first enqueue of a window
// schedules exactly one flush; everything arriving before it fires rides the
// same batch. The flush is a kind-tagged handler event carrying the dense
// node index (checkpoint-serializable, no closure).
//
//toposhot:hotpath
func (nd *Node) propagate(exclude types.NodeID, txs []*types.Transaction) {
	if len(txs) == 0 {
		return
	}
	for _, tx := range txs {
		nd.outQ = append(nd.outQ, outItem{tx: tx, exclude: exclude})
	}
	if nd.flushScheduled {
		return
	}
	nd.flushScheduled = true
	net := nd.net
	arg := uint64(argKindFlush)<<argKindShift | uint64(nd.id-1)
	net.eng.AtHandlerLane(net.eng.Now()+net.cfg.FlushInterval, net, arg, int(nd.id-1))
}

// flush drains the out-queue: direct push to ⌈√peers⌉ random peers and
// announcement to the rest (Geth ≥ 1.9.11), or push to all under
// LegacyPushAll, never sending a transaction back where it came from.
// The drained queue itself becomes the payload — one pooled, immutable,
// reference-counted flushBatch that every message of the flush points at;
// each receiver skips the items excluded for it — so a flush copies nothing
// per peer and a steady gossip flood allocates nothing here.
//
//toposhot:hotpath
func (nd *Node) flush() {
	nd.flushScheduled = false
	q := nd.outQ
	if len(q) == 0 {
		return
	}
	peers := nd.peersSeg()
	if len(peers) == 0 {
		nd.outQ = q[:0]
		return
	}
	pushCount := len(peers)
	if !nd.cfg.LegacyPushAll {
		pushCount = int(math.Ceil(math.Sqrt(float64(len(peers)))))
	}
	net := nd.net
	bi := net.takeBatch()
	b := &net.batches[bi] // stable: nothing below takes another batch
	b.items, nd.outQ = q, b.items[:0]
	b.hashes = b.hashes[:0]
	// Nothing is addressed to a peer only when every item arrived from it.
	sole, mixed := q[0].exclude, false
	for i := 1; i < len(q) && !mixed; i++ {
		mixed = q[i].exclude != sole
	}
	net.permBuf = net.eng.PermInto(net.permBuf, len(peers))
	for i, pi := range net.permBuf {
		peer := peers[pi]
		kind := msgTxs
		if i >= pushCount {
			kind = msgAnnounce
		}
		mi := net.msgTo(kind, nd.id, peer)
		if mi < 0 {
			continue
		}
		if !mixed && peer == sole {
			net.freeMsg(mi)
			continue
		}
		if kind == msgAnnounce && len(b.hashes) == 0 {
			for _, it := range q {
				b.hashes = append(b.hashes, it.tx.Hash())
			}
		}
		net.msgs[mi].batch = bi
		b.refs++
		net.routeVia(mi, int(nd.peerOff)+pi)
	}
	net.releaseBatch(bi) // the flush's own reference: the batch is free already if nothing was sent
}

// addressedTo counts the items of a flush batch that go to peer: all but
// those that arrived from it. (Only the engine trace needs the number.)
//
//toposhot:hotpath
func addressedTo(items []outItem, peer types.NodeID) int {
	n := 0
	for i := range items {
		if items[i].exclude != peer {
			n++
		}
	}
	return n
}

// deliverAnnounce handles an announcement: unknown, unlocked hashes are
// requested back from the announcer and locked for the AnnounceLock window.
// The request's hash list is built directly into a pooled message buffer.
// When the announcement rides a flush's shared batch, items is the batch
// (parallel to hashes) and the hashes excluded for this node are skipped;
// items is nil for a private payload. The batch puts the announced objects in
// this node's hands, so it asks its pool by object and sends them along with
// the request as a hint (netMsg.txs); only a private payload — a message
// restored from a checkpoint — is looked up by hash.
//
//toposhot:hotpath
func (nd *Node) deliverAnnounce(from types.NodeID, hashes []types.Hash, items []outItem) {
	net := nd.net
	now := net.Now()
	mi := net.msgTo(msgRequest, nd.id, from)
	var want []types.Hash
	var asked []*types.Transaction
	if mi >= 0 {
		want, asked = net.msgs[mi].hashes[:0], net.msgs[mi].txs[:0]
	}
	for i, h := range hashes {
		if items != nil && items[i].exclude == nd.id {
			continue
		}
		if nd.OnHashAnnounced != nil {
			nd.OnHashAnnounced(from, h, now)
		}
		if items != nil {
			if nd.pool.Contains(items[i].tx) {
				continue
			}
		} else if nd.pool.Has(h) {
			continue
		}
		if until, ok := nd.announceLock[h]; ok && now < until {
			net.metrics.announceLockHits.Inc()
			continue
		}
		until := now + net.cfg.AnnounceLock
		nd.armAnnounceLock(h, until)
		if mi >= 0 {
			want = append(want, h)
			if items != nil {
				asked = append(asked, items[i].tx)
			}
		}
	}
	if mi < 0 {
		return
	}
	net.msgs[mi].hashes, net.msgs[mi].txs = want, asked
	if len(want) == 0 {
		net.freeMsg(mi)
		return
	}
	net.route(mi)
}

// armAnnounceLock records an announcement lock, allocating the node's lock
// map on first use (lazy so mainnet-scale idle nodes carry none). Out of
// line from deliverAnnounce so the map literal stays off the lint-scanned
// delivery function.
func (nd *Node) armAnnounceLock(h types.Hash, until float64) {
	if nd.announceLock == nil {
		nd.announceLock = make(map[types.Hash]float64)
	}
	nd.announceLock[h] = until
	nd.lockQ = append(nd.lockQ, lockEntry{h: h, until: until})
}

// deliverRequest answers a GetPooledTransactions request with whatever of
// the asked hashes is still buffered, assembling the reply in a pooled
// message buffer. asked, when the request carries it, holds the requested
// objects parallel to hashes and the pool is asked by object; a request
// restored from a checkpoint has hashes only and is answered by hash.
//
//toposhot:hotpath
func (nd *Node) deliverRequest(from types.NodeID, hashes []types.Hash, asked []*types.Transaction) {
	net := nd.net
	mi := net.msgTo(msgTxs, nd.id, from)
	if mi < 0 {
		return
	}
	reply := net.msgs[mi].txs[:0]
	if len(asked) == len(hashes) {
		for _, tx := range asked {
			if nd.pool.Contains(tx) {
				reply = append(reply, tx)
			}
		}
	} else {
		for _, h := range hashes {
			if tx := nd.pool.Get(h); tx != nil {
				reply = append(reply, tx)
			}
		}
	}
	net.msgs[mi].txs = reply
	if len(reply) == 0 {
		net.freeMsg(mi)
		return
	}
	net.route(mi)
}

// sweepAnnounceLocks prunes expired announcement locks. The lock window is a
// per-network constant, so lockQ is ordered by expiry and the sweep pops an
// expired prefix — O(expired) per tick instead of O(armed) map scanning.
// A hash re-armed after expiry leaves its stale entry behind; the map holds
// the authoritative deadline, so stale entries whose hash was re-armed are
// skipped (lazy deletion) and collected by the later entry.
//
//toposhot:hotpath
func (nd *Node) sweepAnnounceLocks(now float64) {
	q := nd.lockQ
	head := nd.lockQHead
	for head < len(q) && now >= q[head].until {
		ent := q[head]
		head++
		if cur, ok := nd.announceLock[ent.h]; ok && now >= cur {
			delete(nd.announceLock, ent.h)
		}
	}
	nd.lockQHead = head
	// Compact once the dead prefix dominates so the ring's memory tracks the
	// live lock population, amortized O(1) per armed lock.
	if head > 0 && head*2 >= len(q) {
		n := copy(q, q[head:])
		nd.lockQ = q[:n]
		nd.lockQHead = 0
	}
}

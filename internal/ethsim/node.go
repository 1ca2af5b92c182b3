package ethsim

import (
	"slices"

	"toposhot/internal/gossip"
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

	// locks is the announce-lock table; the window is a network constant,
	// so the janitor's sweep pops an expired prefix (gossip.Locks).
	locks gossip.Locks

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

	// OnTxDelivered, when set, fires for every transaction delivery,
	// admitted or not (the supernode's observation hook).
	OnTxDelivered func(from types.NodeID, tx *types.Transaction, at float64)
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

// addPeer inserts id into the node's sorted adjacency segment, relocating
// the segment to the arena's end with doubled capacity when full. A FIFO
// watermark retained in the overflow map from an earlier teardown of the
// same directed link migrates back into the dense slot, preserving the
// TCP-ordering clamp across reconnects.
func (nd *Node) addPeer(id types.NodeID) {
	i, found := slices.BinarySearch(nd.peersSeg(), id)
	if found {
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
	nd.propagate(nd.id, gossip.Propagatable(nil, tx, res, nd.pool, nd.cfg.ForwardFutures))
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
	if nd.OnTxDelivered != nil {
		nd.OnTxDelivered(from, tx, nd.net.Now())
	}
	res := nd.pool.Offer(tx)
	if nd.net.OnOffer != nil {
		nd.net.OnOffer(nd.id, from, tx, res.Status.String())
	}
	if nd.net.traceEngine {
		nd.traceOffer(res)
	}
	return gossip.Propagatable(out, tx, res, nd.pool, nd.cfg.ForwardFutures)
}

// deliverRuns is deliverTxs for a message of run members: they are offered
// in order, each as its run's member.
//
//toposhot:hotpath
func (nd *Node) deliverRuns(from types.NodeID, parts []runPart) {
	out := nd.scratchOut[:0]
	for _, p := range parts {
		for k := p.lo; k < p.hi; k++ {
			out = nd.receiveMember(from, p.run, k, out)
		}
	}
	nd.relay(from, out)
}

// receiveMember is receiveTx for member k of r. The pool keeps the member
// unbuilt; only the hooks and a relay of it ask for the object, which is the
// pool's own when it admitted the member.
//
//toposhot:hotpath
func (nd *Node) receiveMember(from types.NodeID, r *types.Run, k int, out []*types.Transaction) []*types.Transaction {
	if nd.OnTxDelivered != nil {
		return nd.receiveTx(from, r.Tx(k), out)
	}
	res := nd.pool.OfferRun(r, k)
	var tx *types.Transaction // built only for the hook or a relay
	if nd.net.OnOffer != nil || res.Status.Admitted() && (res.Status != txpool.StatusFuture || nd.cfg.ForwardFutures) {
		if res.Status.Admitted() {
			tx = nd.pool.GetBySenderNonce(r.From, r.Nonce+uint64(k))
		} else {
			tx = r.Tx(k)
		}
	}
	if nd.net.OnOffer != nil {
		nd.net.OnOffer(nd.id, from, tx, res.Status.String())
	}
	if nd.net.traceEngine {
		nd.traceOffer(res)
	}
	return gossip.Propagatable(out, tx, res, nd.pool, nd.cfg.ForwardFutures)
}

// relay queues what one delivery made propagatable and hands the scratch
// buffer back.
//
//toposhot:hotpath
func (nd *Node) relay(from types.NodeID, out []*types.Transaction) {
	nd.propagate(from, out)
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

// outItem is one queued gossip transaction with its arrival peer.
type outItem struct {
	tx      *types.Transaction
	exclude types.NodeID
}

// propagate queues executable transactions for the coalesced gossip flush —
// the analogue of Geth's broadcast loop, which batches transactions rather
// than emitting one message per admission — unless the node is NoForward.
// The first enqueue of a window schedules exactly one flush; everything
// arriving before it fires rides the same batch. The flush is a kind-tagged
// handler event carrying the dense node index (checkpoint-serializable, no
// closure).
//
//toposhot:hotpath
func (nd *Node) propagate(exclude types.NodeID, txs []*types.Transaction) {
	if len(txs) == 0 || nd.cfg.NoForward {
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

// flush drains the out-queue: direct push to gossip.PushCount random peers
// and announcement to the rest, never sending a transaction back where it
// came from. The drained queue itself becomes the payload — one pooled,
// immutable, reference-counted flushBatch that every message of the flush
// points at; each receiver skips the items excluded for it — so a flush
// copies nothing per peer and a steady gossip flood allocates nothing here.
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
	pushCount := gossip.PushCount(len(peers), nd.cfg.LegacyPushAll)
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
// The request's slot and pooled payload are taken at the first wanted hash —
// most announcements want none — and its hash list is built directly into
// the payload. An unknown announcer is asked nothing, but its hashes are
// locked all the same. When the announcement rides a flush's shared batch,
// items is the batch (parallel to hashes) and the hashes excluded for this
// node are skipped; items is nil for a private payload. The batch puts the
// announced objects in this node's hands, so it asks its pool by object and
// sends them along with the request as a hint (msgPayload.txs); only a
// private payload — a message restored from a checkpoint — is looked up by
// hash.
//
//toposhot:hotpath
func (nd *Node) deliverAnnounce(from types.NodeID, hashes []types.Hash, items []outItem) {
	net := nd.net
	now := net.Now()
	// The request slot is reserved on entry, so the arena (whose length and
	// free list a checkpoint records) grows exactly when it would if every
	// announcement took its slot here. Neither the hook nor Fetch takes or
	// frees a slot, so the first wanted hash takes the reserved one.
	net.reserveMsg(from)
	mi := int32(-1)
	var want []types.Hash
	var asked []*types.Transaction
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
		if !nd.locks.Fetch(h, now, net.cfg.AnnounceLock) {
			net.metrics.announceLockHits.Inc()
			continue
		}
		if mi < 0 {
			if mi = net.msgTo(msgRequest, nd.id, from); mi < 0 {
				continue
			}
			p := net.payload(mi)
			want, asked = p.hashes[:0], p.txs[:0]
		}
		want = append(want, h)
		if items != nil {
			asked = append(asked, items[i].tx)
		}
	}
	if mi < 0 {
		return
	}
	p := net.payload(mi)
	p.hashes, p.txs = want, asked
	net.route(mi)
}

// deliverRequest answers a GetPooledTransactions request (gossip.Answer) in
// a pooled payload. A request restored from a checkpoint carries no asked
// objects and is answered by hash.
//
//toposhot:hotpath
func (nd *Node) deliverRequest(from types.NodeID, hashes []types.Hash, asked []*types.Transaction) {
	net := nd.net
	mi := net.msgTo(msgTxs, nd.id, from)
	if mi < 0 {
		return
	}
	p := net.payload(mi)
	if p.txs = gossip.Answer(p.txs[:0], nd.pool, hashes, asked); len(p.txs) == 0 {
		net.freeMsg(mi)
		return
	}
	net.route(mi)
}

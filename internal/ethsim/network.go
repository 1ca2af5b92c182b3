// Package ethsim simulates an Ethereum peer-to-peer blockchain overlay on
// virtual time: nodes with Table-3 mempools, direct-push and hash-announce
// transaction gossip, background workload, miners, and an instrumented
// supernode for measurements.
//
// The simulator substitutes for the live testnets the paper measures. It is
// deliberately faithful to the behaviours TopoShot depends on — mempool
// admission/replacement/eviction, gossip reachability and timing, the 5 s
// announcement lock — and deliberately simple elsewhere (no PoW, no state
// execution).
//
// Hot state is struct-of-arrays (DESIGN.md §12): nodes live in a dense
// id-indexed slice, peer adjacency lives in a shared CSR-style arena of
// sorted id segments with per-directed-link FIFO watermarks in a parallel
// array, and every recurring engine event (delivery, flush, janitor,
// workload tick) is a Handler event tagged by kind in its argument's top
// byte — so a 50k-node network at steady state touches no maps on the
// gossip path and the whole simulation (engine + network + pools) can be
// checkpointed and restored (see checkpoint.go).
package ethsim

import (
	"fmt"
	"sort"

	"toposhot/internal/gossip"
	"toposhot/internal/metrics"
	"toposhot/internal/sim"
	"toposhot/internal/trace"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// Engine-level trace event names (LevelEngine only): message lifecycle and
// mempool displacement. The trace-spanname lint rule requires these to be
// constants.
const (
	evMsgEnqueue    = "msg-enqueue"
	evMsgDeliver    = "msg-deliver"
	evEvict         = "evict"
	evReplaceAccept = "replace-accept"
	evReplaceReject = "replace-reject"
)

// Engine-event attribute keys.
const (
	attrKind = "kind"
	attrFrom = "from"
	attrTo   = "to"
	attrNode = "node"
	attrN    = "n"
)

// Config holds network-wide simulation parameters.
type Config struct {
	// Seed drives all randomness (latency, peer choice, workload).
	Seed int64
	// LatencyBase is the minimum one-hop delivery delay in seconds.
	LatencyBase float64
	// LatencyTail is the mean of the exponential straggler tail added to the
	// base latency. Stragglers are what occasionally re-propagate txC into a
	// just-evicted mempool (§5.2.1) and erode parallel recall (Fig 4b).
	LatencyTail float64
	// LatencyMax caps one-hop latency.
	LatencyMax float64
	// AnnounceLock is the announcement-response window (gossip.AnnounceLock,
	// 5 s as in Geth): after requesting an announced transaction a node
	// ignores further announcements of the same hash for this long.
	AnnounceLock float64
	// SendSpacing is the interval between consecutive messages injected by
	// the supernode, modelling its uplink serialization. It makes parallel
	// measurement setup time grow with group size, as observed in Fig 4b/5.
	SendSpacing float64
	// FlushInterval is the gossip coalescing window: admissions buffer in a
	// per-node out-queue flushed on this timer, like Geth's broadcast loop.
	FlushInterval float64
	// SpikeProb is the probability a delivery suffers a congestion spike of
	// up to SpikeMax extra seconds — the straggler deliveries that break
	// parallel-measurement isolation when per-node pacing gets tight
	// (Figure 4b). Zero disables spikes.
	SpikeProb float64
	// SpikeMax bounds a congestion spike in seconds.
	SpikeMax float64
	// Lanes is the engine's event-lane count (< 1 means 1). Deliveries are
	// tagged with a lane by destination node; the tag is recorded on the
	// event and in checkpoints and selects nothing, so any lane count replays
	// byte-identically (DESIGN.md §12).
	Lanes int
}

// DefaultConfig returns parameters resembling a public testnet: ~50 ms base
// hop latency with a 100 ms straggler tail capped at 3 s.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:          seed,
		LatencyBase:   0.05,
		LatencyTail:   0.1,
		LatencyMax:    3.0,
		AnnounceLock:  gossip.AnnounceLock,
		SendSpacing:   0.002,
		FlushInterval: 0.08,
	}
}

// msgKind discriminates the typed gossip messages the simulator exchanges.
// Replacing the old closure-per-message send path, every in-flight message
// is a pooled netMsg dispatched by a switch on its kind — no captures, no
// per-message allocation at steady state.
type msgKind uint8

const (
	// msgTxs is a devp2p Transactions push (full transactions).
	msgTxs msgKind = iota
	// msgAnnounce is a NewPooledTransactionHashes announcement.
	msgAnnounce
	// msgRequest is a GetPooledTransactions request.
	msgRequest
	// msgInject is a supernode uplink-pacing event: when it fires, the batch
	// leaves the supernode — the message turns into msgTxs and gets routed
	// with freshly sampled link latency.
	msgInject
	// numMsgKinds sizes the per-kind delivery tally array.
	numMsgKinds
)

// String returns the kind's snapshot-map key.
func (k msgKind) String() string {
	switch k {
	case msgTxs:
		return "txs"
	case msgAnnounce:
		return "announce"
	case msgRequest:
		return "request"
	case msgInject:
		return "inject"
	}
	return "other"
}

// Event-argument kind tags. Every engine event the network schedules for
// itself carries its kind in the top byte of the uint64 argument and a
// payload (message slot, node index, registry index) in the low bits — the
// encoding that makes the whole pending-event set serializable.
const (
	argKindShift = 56
	argPayload   = (uint64(1) << argKindShift) - 1

	argKindMsg      = 0 // payload: msg arena slot
	argKindFlush    = 1 // payload: dense node index
	argKindJanitor  = 2 // payload: janitorIntervals index
	argKindWorkload = 3 // payload: workloads registry index
	argKindChurn    = 4 // payload: churns registry index
)

// netMsg is one pooled in-flight message: kind, sender, destination, send
// time, and the index of its payload in one of three side arenas. Slots live
// in Network.msgs and recycle through Network.msgFree; to 0 marks a free slot.
// The message holds no pointer, so the arena is 32 B a slot and the garbage
// collector never scans it. A message sent by a gossip flush points at the
// flush's shared batch; injected run members at a run payload; requests,
// replies, injections and restored messages at a private payload, whose
// buffers keep their capacity across reuse so that they too send without
// allocating. Payload buffers may retain transaction pointers until they are
// next reused — bounded by the peak in-flight message count.
type netMsg struct {
	sent     float64
	from, to types.NodeID
	// batch indexes Network.batches when the payload is a flush's shared
	// batch: the message is what the batch holds minus the items whose
	// exclude is to. runs indexes Network.runs when the payload is run
	// members (Supernode.InjectRuns). priv indexes Network.privs when the
	// payload is the message's own. Slot 0 of each arena is never handed
	// out, so 0 means "none", and a message with none of the three carries
	// nothing.
	batch, runs, priv int32
	kind              msgKind
}

// msgPayload is a message's private payload (Network.privs).
type msgPayload struct {
	// txs carries full transactions (msgTxs, msgInject). On a msgRequest it
	// is a run-time hint: the asked objects, parallel to hashes, for a
	// requester that held them (deliverAnnounce). The hint is not part of the
	// message — it is never serialized, traced or counted, and a request
	// without it is answered by hash.
	txs []*types.Transaction
	// hashes carries announcement/request hash lists (msgAnnounce, msgRequest).
	hashes []types.Hash
}

// runPart is the stretch [lo, hi) of a run's members that one injected
// message carries (Network.runs).
type runPart struct {
	run    *types.Run
	lo, hi int
}

// flushBatch is the payload of one gossip flush, shared by every message the
// flush sends: the drained out-queue itself, and beside it the items' hashes
// (filled once, and only when some peer is announced to). refs counts the
// messages still in flight, plus the flush itself while it runs; once the
// flush has returned the batch is immutable until the last delivery (or
// drop) takes refs to zero and returns it to Network.batchFree with its
// buffers' capacity.
type flushBatch struct {
	items  []outItem
	hashes []types.Hash
	refs   int32
}

// Network is a simulated Ethereum overlay.
type Network struct {
	cfg Config
	eng *sim.Engine

	// nodes is the dense node store: nodes[i] has id i+1 (AddNode assigns
	// sequential ids), so id→node is one bounds check and one index — no map
	// on any hot path.
	nodes []*Node

	// adjIDs/adjMark form the shared CSR-style adjacency arena. Each node
	// owns a segment [peerOff, peerOff+peerCap) holding its peer ids sorted
	// ascending in adjIDs; adjMark is the parallel per-directed-link FIFO
	// watermark (last scheduled delivery time on the link node→adjIDs[slot]).
	// A segment that outgrows its capacity relocates to the arena's end with
	// doubled capacity; the abandoned span is garbage bounded by a geometric
	// series (< 1× the live size).
	adjIDs  []types.NodeID
	adjMark []float64

	// overflowMark holds FIFO watermarks for directed links that are not in
	// the adjacency arena — a link torn down with a delivery still in flight,
	// or a send between momentarily unlinked nodes. Entries migrate back into
	// the arena on reconnect and are pruned past the latency horizon, so the
	// map's live size is bounded by in-flight traffic on dead links, not by
	// every link ever used.
	overflowMark map[uint64]float64

	// msgs is the pooled message arena; msgFree recycles released slots.
	// Messages are addressed by arena index through sim.Handler events.
	msgs    []netMsg
	msgFree []int32
	// runs is the pooled run-payload arena, recycled through runsFree with
	// its buffers' capacity: the members each injected fill message carries,
	// in order. Slot 0 is never handed out.
	runs     [][]runPart
	runsFree []int32

	// batches is the pooled flush-payload arena, recycled through batchFree;
	// slot 0 is never handed out, so a zero netMsg.batch means "none".
	batches   []flushBatch
	batchFree []int32
	// privs is the pooled private-payload arena, recycled through privFree
	// with its buffers' capacity. Slot 0 is never handed out and stays empty.
	privs    []msgPayload
	privFree []int32

	// permBuf is flush's reused peer-permutation buffer.
	permBuf []int

	// msgTally counts delivered messages per kind — a fixed array instead of
	// the former string-keyed map, which cost a hash per delivery at scale.
	// MsgCounts materializes the legacy map shape for snapshots.
	msgTally [numMsgKinds]int

	// OnOffer, when set, observes every transaction offer on every node —
	// a global trace hook for debugging and white-box experiments.
	OnOffer func(node, from types.NodeID, tx *types.Transaction, status string)

	janitorHooks []func(now float64)
	// janitorIntervals records every StartJanitor interval; the recurring
	// janitor event's payload indexes this slice (checkpoint-restorable,
	// unlike the closure chain it replaces).
	janitorIntervals []float64

	// workloads registers every workload attached to this network; the
	// workload tick event's payload indexes it.
	workloads []*Workload

	// churns registers every churn process attached to this network; the
	// churn tick event's payload indexes it.
	churns []*Churn

	// supers registers every supernode attached to this network, in creation
	// order (checkpoint restore re-binds their observation hooks).
	supers []*Supernode
	// watched holds the hashes a supernode injected since the last Retire:
	// every supernode logs sightings of these alone. It is not checkpointed.
	watched map[types.Hash]struct{}

	nextID types.NodeID

	// metrics holds the network's instruments; its zero value (all-nil
	// instruments) makes every update a single no-op branch.
	metrics netMetrics
	// poolMetrics, when set, aggregates every node mempool's counters.
	poolMetrics *txpool.Metrics

	// tracer records engine events when traceEngine is set; traceEngine is
	// pre-resolved from the tracer's level so the gossip hot path pays one
	// boolean branch when engine tracing is off.
	tracer      *trace.Tracer
	traceEngine bool
}

// netMetrics pre-resolves the simulator's instruments. Message counters are
// split by kind to keep the delivery path lookup-free.
type netMetrics struct {
	msgTxs, msgAnnounce, msgRequest, msgBlock, msgOther *metrics.Counter
	deliveryLatency                                     *metrics.Histogram
	announceLockHits                                    *metrics.Counter
}

func (m *netMetrics) msgCounter(kind msgKind) *metrics.Counter {
	switch kind {
	case msgTxs:
		return m.msgTxs
	case msgAnnounce:
		return m.msgAnnounce
	case msgRequest:
		return m.msgRequest
	default:
		return m.msgOther
	}
}

// SetMetrics wires the network (and every current and future node mempool)
// to a registry under the "ethsim." and "txpool." prefixes. Call with nil to
// detach. Instrumentation never perturbs the simulation: it only counts.
func (n *Network) SetMetrics(r *metrics.Registry) {
	if r == nil {
		n.metrics = netMetrics{}
		n.poolMetrics = nil
	} else {
		n.metrics = netMetrics{
			msgTxs:           r.Counter("ethsim.msg.txs"),
			msgAnnounce:      r.Counter("ethsim.msg.announce"),
			msgRequest:       r.Counter("ethsim.msg.request"),
			msgBlock:         r.Counter("ethsim.msg.block"),
			msgOther:         r.Counter("ethsim.msg.other"),
			deliveryLatency:  r.Histogram("ethsim.delivery_latency_s", metrics.DefaultLatencyBuckets),
			announceLockHits: r.Counter("ethsim.announce_lock_hits"),
		}
		n.poolMetrics = txpool.NewMetrics(r)
	}
	for _, nd := range n.nodes {
		nd.pool.SetMetrics(n.poolMetrics)
	}
}

// SetTracer wires the network's engine-event stream to a trace lane and
// points the lane's clock at virtual time. Events are recorded only when the
// tracer runs at LevelEngine; at lower levels the hook stays dormant (one
// dead branch on the delivery path). Call with nil to detach.
func (n *Network) SetTracer(t *trace.Tracer) {
	n.tracer = t
	n.traceEngine = t.Enabled(trace.LevelEngine)
	if n.traceEngine {
		t.SetClock(n.Now)
	}
}

// NewNetwork returns an empty network running on a fresh engine. When a
// process-default metrics registry is enabled (metrics.Enable), the network
// auto-wires to it; likewise for an enabled process-default tracer.
func NewNetwork(cfg Config) *Network {
	eng := sim.New(cfg.Seed)
	if cfg.Lanes > 1 {
		eng.SetLanes(cfg.Lanes)
	}
	n := &Network{
		cfg:          cfg,
		eng:          eng,
		overflowMark: make(map[uint64]float64),
		batches:      make([]flushBatch, 1),
		runs:         make([][]runPart, 1),
		privs:        make([]msgPayload, 1),
	}
	if r := metrics.Enabled(); r != nil {
		n.SetMetrics(r)
	}
	if tr := trace.Enabled(); tr != nil {
		n.SetTracer(tr)
	}
	return n
}

// Engine exposes the underlying event engine (for schedulers and tests).
func (n *Network) Engine() *sim.Engine { return n.eng }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Now returns the current virtual time.
func (n *Network) Now() float64 { return n.eng.Now() }

// MsgCounts returns delivered-message tallies keyed by kind name — the
// snapshot shape the old MsgCount map exposed ("txs", "announce",
// "request"). Kinds with zero deliveries are omitted, matching a map that
// was only ever written on delivery.
func (n *Network) MsgCounts() map[string]int {
	out := make(map[string]int, len(n.msgTally))
	for k := range n.msgTally {
		if n.msgTally[k] > 0 {
			out[msgKind(k).String()] = n.msgTally[k]
		}
	}
	return out
}

// AddNode creates a node with the given configuration and returns it.
func (n *Network) AddNode(cfg NodeConfig) *Node {
	n.nextID++
	id := n.nextID
	node := newNode(n, id, cfg)
	node.pool.SetMetrics(n.poolMetrics)
	n.nodes = append(n.nodes, node)
	return node
}

// node returns the dense-indexed node for id, or nil — the hot-path lookup:
// one bounds check, one index.
func (n *Network) node(id types.NodeID) *Node {
	i := int(id) - 1
	if i < 0 || i >= len(n.nodes) {
		return nil
	}
	return n.nodes[i]
}

// Node returns the node with the given id, or nil.
func (n *Network) Node(id types.NodeID) *Node { return n.node(id) }

// Nodes returns all nodes in creation order.
func (n *Network) Nodes() []*Node {
	return append([]*Node(nil), n.nodes...)
}

// Connect establishes a bidirectional active link between two nodes. It is
// idempotent and refuses self-links.
func (n *Network) Connect(a, b types.NodeID) error {
	if a == b {
		return fmt.Errorf("ethsim: self-link on %v", a)
	}
	na, nb := n.node(a), n.node(b)
	if na == nil || nb == nil {
		return fmt.Errorf("ethsim: connect unknown node %v-%v", a, b)
	}
	na.addPeer(b)
	nb.addPeer(a)
	return nil
}

// Disconnect tears down the link between two nodes, if present.
func (n *Network) Disconnect(a, b types.NodeID) {
	if na := n.node(a); na != nil {
		na.removePeer(b)
	}
	if nb := n.node(b); nb != nil {
		nb.removePeer(a)
	}
}

// Connected reports whether an active link exists between a and b.
func (n *Network) Connected(a, b types.NodeID) bool {
	na := n.node(a)
	return na != nil && na.peerPos(b) >= 0
}

// Edges returns the ground-truth undirected edge list, each edge once with
// the smaller id first, sorted — the oracle TopoShot results are scored
// against.
func (n *Network) Edges() [][2]types.NodeID {
	var out [][2]types.NodeID
	for _, node := range n.nodes {
		id := node.id
		for _, pid := range node.peersSeg() {
			if id < pid {
				out = append(out, [2]types.NodeID{id, pid})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// linkKey packs a directed link into the overflow-watermark map key.
func linkKey(from, to types.NodeID) uint64 {
	return uint64(from)<<32 | uint64(to)
}

// msgTo allocates a pooled message slot addressed to node `to`, returning
// its arena index, or -1 when the destination is unknown (the message is
// dropped silently, like a packet to a dead peer).
func (n *Network) msgTo(kind msgKind, from, to types.NodeID) int32 {
	if n.node(to) == nil {
		return -1
	}
	var i int32
	if k := len(n.msgFree); k > 0 {
		i = n.msgFree[k-1]
		n.msgFree = n.msgFree[:k-1]
	} else {
		n.msgs = append(n.msgs, netMsg{})
		i = int32(len(n.msgs) - 1)
	}
	m := &n.msgs[i]
	m.kind, m.from, m.to = kind, from, to
	return i
}

// reserveMsg makes sure a slot for a message to `to` is free, growing the
// arena by one slot if none is, so the next msgTo takes the slot it would
// have taken here.
//
//toposhot:hotpath
func (n *Network) reserveMsg(to types.NodeID) {
	if len(n.msgFree) == 0 && n.node(to) != nil {
		n.msgs = append(n.msgs, netMsg{})
		n.msgFree = append(n.msgFree, int32(len(n.msgs)-1))
	}
}

// freeMsg releases a message slot back to the pool, and its run or private
// payload to theirs with the buffers' capacity kept for the next sender.
func (n *Network) freeMsg(i int32) {
	m := &n.msgs[i]
	m.to = 0
	m.batch = 0
	if m.runs != 0 {
		n.runs[m.runs] = n.runs[m.runs][:0]
		n.runsFree = append(n.runsFree, m.runs)
		m.runs = 0
	}
	if m.priv != 0 {
		p := &n.privs[m.priv]
		p.txs, p.hashes = p.txs[:0], p.hashes[:0]
		n.privFree = append(n.privFree, m.priv)
		m.priv = 0
	}
	n.msgFree = append(n.msgFree, i)
}

// payload returns message slot i's private payload, giving it an empty
// pooled one if it has none. The pointer is valid until the next payload
// anywhere is handed out.
func (n *Network) payload(i int32) *msgPayload {
	m := &n.msgs[i]
	if m.priv == 0 {
		if k := len(n.privFree); k > 0 {
			m.priv = n.privFree[k-1]
			n.privFree = n.privFree[:k-1]
		} else {
			n.privs = append(n.privs, msgPayload{})
			m.priv = int32(len(n.privs) - 1)
		}
	}
	return &n.privs[m.priv]
}

// takeRuns returns the index of a pooled, empty run payload; the message it
// is given to returns it on release (freeMsg).
func (n *Network) takeRuns() int32 {
	if k := len(n.runsFree); k > 0 {
		ri := n.runsFree[k-1]
		n.runsFree = n.runsFree[:k-1]
		return ri
	}
	n.runs = append(n.runs, nil)
	return int32(len(n.runs) - 1)
}

// takeBatch returns the index of a pooled flush batch holding one reference,
// the caller's, which it gives up with releaseBatch.
//
//toposhot:hotpath
func (n *Network) takeBatch() int32 {
	var bi int32
	if k := len(n.batchFree); k > 0 {
		bi = n.batchFree[k-1]
		n.batchFree = n.batchFree[:k-1]
	} else {
		n.batches = append(n.batches, flushBatch{})
		bi = int32(len(n.batches) - 1)
	}
	n.batches[bi].refs = 1
	return bi
}

// releaseBatch drops one reference to a flush batch — a delivered or dropped
// message's, or the flush's own — and recycles the batch when it was the last.
//
//toposhot:hotpath
func (n *Network) releaseBatch(bi int32) {
	b := &n.batches[bi]
	if b.refs--; b.refs == 0 {
		n.batchFree = append(n.batchFree, bi)
	}
}

// route schedules the delivery of the filled message slot i, looking the
// link up in the sender's adjacency segment. Requests, replies and
// injections come this way; a flush already holds the slot and calls
// routeVia directly.
//
//toposhot:hotpath
func (n *Network) route(i int32) {
	m := &n.msgs[i]
	slot := -1
	if src := n.node(m.from); src != nil {
		if p := src.peerPos(m.to); p >= 0 {
			slot = int(src.peerOff) + p
		}
	}
	n.routeVia(i, slot)
}

// routeVia samples link latency for the filled message slot i, applies the
// per-link FIFO clamp, and schedules its delivery on the destination's lane.
// The watermark lives in adjacency slot `slot` of the sender's segment —
// reused in place on every send, so steady-state gossip keeps exactly one
// float per live directed link — falling back to the overflow map (slot < 0)
// only for links outside the arena. Scheduling is allocation-free: the event
// carries the network as handler and the arena index as argument.
//
//toposhot:hotpath
func (n *Network) routeVia(i int32, slot int) {
	m := &n.msgs[i]
	lat := n.eng.Jitter(n.cfg.LatencyBase, n.cfg.LatencyTail, n.cfg.LatencyMax)
	if n.cfg.SpikeProb > 0 && n.eng.Rand().Float64() < n.cfg.SpikeProb {
		lat += n.eng.Uniform(0, n.cfg.SpikeMax)
	}
	sent := n.eng.Now()
	at := sent + lat
	if slot >= 0 {
		if last := n.adjMark[slot]; at <= last {
			at = last + 1e-6
		}
		n.adjMark[slot] = at
	} else {
		key := linkKey(m.from, m.to)
		if last := n.overflowMark[key]; at <= last {
			at = last + 1e-6
		}
		n.overflowMark[key] = at
	}
	m.sent = sent
	n.eng.AtHandlerLane(at, n, uint64(i), int(m.to))
	if n.traceEngine {
		n.tracer.Event(evMsgEnqueue, trace.String(attrKind, m.kind.String()),
			trace.Int(attrFrom, int64(m.from)), trace.Int(attrTo, int64(m.to)))
	}
}

// HandleEvent implements sim.Handler: it dispatches the network's typed
// engine events on the kind tag in the argument's top byte — message
// firings, coalesced gossip flushes, janitor ticks, and workload arrivals.
//
//toposhot:hotpath
func (n *Network) HandleEvent(arg uint64) {
	switch arg >> argKindShift {
	case argKindMsg:
		n.handleMsg(int32(arg & argPayload))
	case argKindFlush:
		n.nodes[arg&argPayload].flush()
	case argKindJanitor:
		n.TickPools()
		n.eng.AtHandlerLane(n.eng.Now()+n.janitorIntervals[arg&argPayload], n, arg, 0)
	case argKindWorkload:
		n.workloads[arg&argPayload].tick()
	case argKindChurn:
		n.churns[arg&argPayload].tick()
	}
}

// handleMsg fires a pooled message — either converting a supernode uplink
// event into a routed delivery, or delivering the payload to its destination
// node. Messages to unresponsive nodes are dropped at delivery time, exactly
// like the packet loss of a dead peer.
//
//toposhot:hotpath
func (n *Network) handleMsg(i int32) {
	if n.msgs[i].kind == msgInject {
		// The batch leaves the supernode now; sample its link latency and
		// schedule the real delivery on the same slot.
		n.msgs[i].kind = msgTxs
		n.route(i)
		return
	}
	// Copy the header and the payload's slice headers out: delivery below
	// can send new messages, growing n.msgs and n.privs and invalidating
	// pointers into them. The slot and its payload are not reused until
	// freeMsg below. A shared batch is read through its own slice headers for
	// the same reason, and nothing mutates it while this message holds a
	// reference.
	m := n.msgs[i]
	dst := n.nodes[m.to-1]
	var items []outItem
	var parts []runPart
	var p msgPayload
	switch {
	case m.batch != 0:
		items, p.hashes = n.batches[m.batch].items, n.batches[m.batch].hashes
	case m.runs != 0:
		parts = n.runs[m.runs]
	default:
		p = n.privs[m.priv]
	}
	if !dst.cfg.Unresponsive {
		n.msgTally[m.kind]++
		n.metrics.msgCounter(m.kind).Inc()
		n.metrics.deliveryLatency.Observe(n.eng.Now() - m.sent) // effective one-hop delay
		if n.traceEngine {
			size := len(p.txs) + len(p.hashes)
			switch {
			case m.batch != 0:
				size = addressedTo(items, m.to)
			case m.kind == msgRequest:
				size = len(p.hashes) // txs is the hint, not payload
			case m.runs != 0:
				size = members(parts)
			}
			n.tracer.Event(evMsgDeliver, trace.String(attrKind, m.kind.String()),
				trace.Int(attrFrom, int64(m.from)), trace.Int(attrTo, int64(m.to)),
				trace.Int(attrN, int64(size)))
		}
		switch m.kind {
		case msgTxs:
			switch {
			case m.batch != 0:
				dst.deliverBatch(m.from, items)
			case m.runs != 0:
				dst.deliverRuns(m.from, parts)
			default:
				dst.deliverTxs(m.from, p.txs)
			}
		case msgAnnounce:
			dst.deliverAnnounce(m.from, p.hashes, items)
		case msgRequest:
			dst.deliverRequest(m.from, p.hashes, p.txs)
		}
	}
	if m.batch != 0 {
		n.releaseBatch(m.batch)
	}
	n.freeMsg(i)
}

// members counts the run members a message carries.
func members(parts []runPart) int {
	n := 0
	for _, p := range parts {
		n += p.hi - p.lo
	}
	return n
}

// RunFor advances virtual time by d seconds.
func (n *Network) RunFor(d float64) { n.eng.RunUntil(n.eng.Now() + d) }

// TickPools advances each pool's expiry clock to the current virtual time
// and prunes expired announcement locks. The lock sweep is incremental:
// each node pops the expired prefix of its expiry-ordered lock ring instead
// of scanning its whole lock map per tick.
//
//toposhot:hotpath
func (n *Network) TickPools() {
	now := n.eng.Now()
	for _, nd := range n.nodes {
		nd.pool.SetTime(now)
		nd.locks.Sweep(now)
	}
	for _, h := range n.janitorHooks {
		h(now)
	}
	n.pruneDeliveryHorizon(now)
}

// pruneDeliveryHorizon drops overflow FIFO watermarks that can no longer
// influence ordering. A new send scheduled at time t always lands at
// t + latency ≤ t + LatencyMax + SpikeMax in the future, so a watermark older
// than now minus that horizon is strictly below every future delivery time
// and the FIFO clamp in route can never fire on it. Dense in-arena
// watermarks need no pruning — they are overwritten in place on link reuse
// and occupy exactly one float per live directed link; only the overflow map
// (dead links with in-flight traffic) would otherwise grow unboundedly over
// multi-hour censuses on networks with churny peer sets.
func (n *Network) pruneDeliveryHorizon(now float64) {
	horizon := now - (n.cfg.LatencyMax + n.cfg.SpikeMax)
	for link, last := range n.overflowMark {
		if last < horizon {
			delete(n.overflowMark, link)
		}
	}
}

// AddJanitorHook registers a callback run on every janitor tick (the
// supernode uses it to age its estimation pool).
func (n *Network) AddJanitorHook(h func(now float64)) {
	n.janitorHooks = append(n.janitorHooks, h)
}

// StartJanitor ticks pool expiry every `interval` virtual seconds, forever.
// Real clients run an equivalent background loop dropping transactions
// older than the expiry (3 h in Geth). The tick is a kind-tagged handler
// event (not a closure chain), so a pending tick serializes into a
// checkpoint like any other event.
func (n *Network) StartJanitor(interval float64) {
	n.janitorIntervals = append(n.janitorIntervals, interval)
	arg := uint64(argKindJanitor)<<argKindShift | uint64(len(n.janitorIntervals)-1)
	n.eng.AtHandlerLane(n.eng.Now()+interval, n, arg, 0)
}

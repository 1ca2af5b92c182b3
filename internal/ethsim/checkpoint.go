package ethsim

import (
	"fmt"
	"math"
	"sort"

	"toposhot/internal/rlp"
	"toposhot/internal/sim"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// checkpointVersion tags the checkpoint binary layout. The policy is
// strict-match: a restore refuses any version other than its own, because a
// checkpoint is a byte-exact continuation artifact, not an interchange
// format — carrying forward state through a layout change cannot preserve
// replay identity, which is the whole point of resuming (DESIGN.md §12).
// Version 2 appended the churn-process registry to the root list.
const checkpointVersion = 2

// Checkpoint serializes the complete simulation state — engine clock, event
// queue, RNG position, every node's mempool and adjacency segment, in-flight
// messages, supernodes, and workloads — into a versioned RLP blob.
// RestoreNetwork on the blob yields a network whose subsequent execution is
// byte-identical to the original's.
//
// Checkpointing requires every pending engine event to be one of the
// network's own kind-tagged events; an event pending for any other handler
// (e.g. a running chain.Miner round) makes the state unserializable and
// returns an error wrapping sim.ErrForeignHandler.
// Function-valued hooks are not part of the image: supernode observation
// hooks are re-bound automatically on restore, but custom OnOffer /
// OnTxAdmitted / AddJanitorHook callbacks must be re-registered by the
// caller. Supernode receipt logs (byHash/announced) are deliberately
// dropped: every verdict read filters receipts to At >= t for a measurement
// start t, and any measurement started after a resume has t at or past the
// checkpoint time, so pre-checkpoint receipts are unreachable.
func (n *Network) Checkpoint() ([]byte, error) {
	events, err := n.eng.SnapshotEvents(n)
	if err != nil {
		return nil, fmt.Errorf("ethsim: checkpoint: %w", err)
	}
	tt := &txTable{refs: make(map[types.Hash]int)}

	// Traversal order fixes the transaction table: node pools and out-queues
	// first, then the message arena, then supernode shadow pools. Any
	// deterministic order works — references are explicit indices.
	nodeItems := make([]rlp.Item, len(n.nodes))
	for i, nd := range n.nodes {
		nodeItems[i] = encodeNode(nd, tt)
	}
	msgItem := encodeMsgs(n, tt)
	superItems := make([]rlp.Item, len(n.supers))
	for i, s := range n.supers {
		superItems[i] = rlp.List(
			rlp.Uint(uint64(s.node.id)),
			f64Item(s.sendCursor),
			encodePolicy(s.shadow.Policy()),
			encodePoolSnap(s.shadow.Snapshot(), tt),
		)
	}
	workItems := make([]rlp.Item, len(n.workloads))
	for i, w := range n.workloads {
		workItems[i] = encodeWorkload(w)
	}
	churnItems := make([]rlp.Item, len(n.churns))
	for i, c := range n.churns {
		churnItems[i] = encodeChurn(c)
	}

	eventItems := make([]rlp.Item, len(events))
	for i, ev := range events {
		eventItems[i] = rlp.List(f64Item(ev.At), rlp.Uint(ev.Seq), rlp.Uint(ev.Arg), rlp.Uint(uint64(ev.Lane)))
	}
	tallyItems := make([]rlp.Item, numMsgKinds)
	for k := range n.msgTally {
		tallyItems[k] = rlp.Uint(uint64(n.msgTally[k]))
	}
	janItems := make([]rlp.Item, len(n.janitorIntervals))
	for i, iv := range n.janitorIntervals {
		janItems[i] = f64Item(iv)
	}

	root := rlp.List(
		rlp.Uint(checkpointVersion),
		encodeConfig(n.cfg),
		rlp.List(f64Item(n.eng.Now()), rlp.Uint(n.eng.SeqCount()), rlp.Uint(n.eng.RandDraws()), listOf(eventItems)),
		encodeTxTable(tt),
		listOf(nodeItems),
		encodeOverflow(n.overflowMark),
		msgItem,
		listOf(tallyItems),
		listOf(janItems),
		listOf(superItems),
		listOf(workItems),
		listOf(churnItems),
	)
	return rlp.Encode(root), nil
}

// txTable dedupes transactions into a single checkpoint-global table, so a
// transaction held by many pools and in-flight messages round-trips to one
// shared object — pointer identity within the restored network mirrors the
// original's sharing.
type txTable struct {
	refs map[types.Hash]int
	txs  []*types.Transaction
}

func (t *txTable) ref(tx *types.Transaction) uint64 {
	h := tx.Hash()
	if i, ok := t.refs[h]; ok {
		return uint64(i)
	}
	i := len(t.txs)
	t.refs[h] = i
	t.txs = append(t.txs, tx)
	return uint64(i)
}

func f64Item(v float64) rlp.Item { return rlp.Uint(math.Float64bits(v)) }

func boolItem(b bool) rlp.Item {
	if b {
		return rlp.Uint(1)
	}
	return rlp.Uint(0)
}

func listOf(items []rlp.Item) rlp.Item { return rlp.Item{Kind: rlp.KindList, Items: items} }

func encodeConfig(cfg Config) rlp.Item {
	return rlp.List(
		rlp.Uint(uint64(cfg.Seed)),
		f64Item(cfg.LatencyBase), f64Item(cfg.LatencyTail), f64Item(cfg.LatencyMax),
		f64Item(cfg.AnnounceLock), f64Item(cfg.SendSpacing), f64Item(cfg.FlushInterval),
		f64Item(cfg.SpikeProb), f64Item(cfg.SpikeMax),
		rlp.Uint(uint64(cfg.Lanes)),
	)
}

func encodePolicy(p txpool.Policy) rlp.Item {
	return rlp.List(
		rlp.String(p.Name), rlp.String(p.ClientVersion),
		rlp.Uint(p.BumpMil), rlp.Uint(uint64(p.MaxFuturePerAccount)),
		rlp.Uint(uint64(p.MinPendingForEviction)), rlp.Uint(uint64(p.Capacity)),
		f64Item(p.Expiry),
	)
}

const (
	cfgFlagLegacyPushAll = 1 << iota
	cfgFlagNoForward
	cfgFlagForwardFutures
	cfgFlagUnresponsive
	cfgFlagMiner
)

func encodeNodeConfig(cfg NodeConfig) rlp.Item {
	var flags uint64
	if cfg.LegacyPushAll {
		flags |= cfgFlagLegacyPushAll
	}
	if cfg.NoForward {
		flags |= cfgFlagNoForward
	}
	if cfg.ForwardFutures {
		flags |= cfgFlagForwardFutures
	}
	if cfg.Unresponsive {
		flags |= cfgFlagUnresponsive
	}
	if cfg.Miner {
		flags |= cfgFlagMiner
	}
	return rlp.List(
		encodePolicy(cfg.Policy),
		rlp.Uint(uint64(cfg.MaxPeers)),
		rlp.Uint(flags),
		rlp.String(cfg.Label),
		rlp.String(cfg.VersionTag),
	)
}

func encodePoolSnap(s txpool.Snapshot, tt *txTable) rlp.Item {
	ents := make([]rlp.Item, len(s.Entries))
	for i, e := range s.Entries {
		ents[i] = rlp.List(rlp.Uint(tt.ref(e.Tx)), f64Item(e.Added), rlp.Uint(e.Seq), boolItem(e.Pending))
	}
	price := make([]rlp.Item, len(s.PriceOrder))
	for i, v := range s.PriceOrder {
		price[i] = rlp.Uint(uint64(v))
	}
	fut := make([]rlp.Item, len(s.FutureOrder))
	for i, v := range s.FutureOrder {
		fut[i] = rlp.Uint(uint64(v))
	}
	nonces := make([]rlp.Item, len(s.StateNonces))
	for i, ns := range s.StateNonces {
		a := ns.Addr
		nonces[i] = rlp.List(rlp.Bytes(a[:]), rlp.Uint(ns.Nonce))
	}
	return rlp.List(listOf(ents), listOf(price), listOf(fut), listOf(nonces),
		rlp.Uint(s.AdmitSeq), f64Item(s.Now), rlp.Uint(s.BaseFee))
}

func encodeNode(nd *Node, tt *txTable) rlp.Item {
	peers := nd.peersSeg()
	marks := nd.marksSeg()
	peerItems := make([]rlp.Item, len(peers))
	for i := range peers {
		peerItems[i] = rlp.List(rlp.Uint(uint64(peers[i])), f64Item(marks[i]))
	}
	// Announcement locks: the live suffix of the expiry-ordered ring (stale
	// entries for re-armed hashes are lazy-deletion artifacts with no
	// observable effect). Queue order is expiry order, so restore re-arms in
	// sequence and rebuilds both map and ring.
	var lockItems []rlp.Item
	nd.locks.Live(func(h types.Hash, until float64) {
		lockItems = append(lockItems, rlp.List(rlp.Bytes(h[:]), f64Item(until)))
	})
	outItems := make([]rlp.Item, len(nd.outQ))
	for i, it := range nd.outQ {
		outItems[i] = rlp.List(rlp.Uint(tt.ref(it.tx)), rlp.Uint(uint64(it.exclude)))
	}
	return rlp.List(
		encodeNodeConfig(nd.cfg),
		encodePoolSnap(nd.pool.Snapshot(), tt),
		listOf(peerItems),
		listOf(lockItems),
		listOf(outItems),
		boolItem(nd.flushScheduled),
	)
}

func encodeOverflow(m map[uint64]float64) rlp.Item {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	items := make([]rlp.Item, len(keys))
	for i, k := range keys {
		items[i] = rlp.List(rlp.Uint(k), f64Item(m[k]))
	}
	return listOf(items)
}

// encodeMsgs captures the pooled message arena verbatim: total length, the
// free list in its exact order (slot reuse order feeds scheduling, so it must
// survive), and every live slot's payload. A message riding a flush's shared
// batch is written as the payload it stands for — the batch minus the items
// excluded for its destination — so the image does not know batches exist
// and a restored message owns a private payload. A request's asked objects
// (netMsg.txs) are a run-time hint beside its hashes and are not written: a
// restored request answers by hash.
func encodeMsgs(n *Network, tt *txTable) rlp.Item {
	free := make([]rlp.Item, len(n.msgFree))
	for i, f := range n.msgFree {
		free[i] = rlp.Uint(uint64(f))
	}
	var live []rlp.Item
	for i := range n.msgs {
		m := &n.msgs[i]
		if m.dst == nil {
			continue
		}
		var txRefs, hashes []rlp.Item
		if m.batch != 0 {
			b := &n.batches[m.batch]
			for j, it := range b.items {
				switch {
				case it.exclude == m.dst.id:
				case m.kind == msgTxs:
					txRefs = append(txRefs, rlp.Uint(tt.ref(it.tx)))
				default:
					hashes = append(hashes, rlp.Bytes(b.hashes[j][:]))
				}
			}
		}
		if m.kind != msgRequest {
			for _, tx := range m.txs {
				txRefs = append(txRefs, rlp.Uint(tt.ref(tx)))
			}
		}
		for j := range m.hashes {
			hashes = append(hashes, rlp.Bytes(m.hashes[j][:]))
		}
		live = append(live, rlp.List(
			rlp.Uint(uint64(i)), rlp.Uint(uint64(m.kind)),
			rlp.Uint(uint64(m.from)), rlp.Uint(uint64(m.dst.id)),
			f64Item(m.sent), listOf(txRefs), listOf(hashes),
		))
	}
	return rlp.List(rlp.Uint(uint64(len(n.msgs))), listOf(free), listOf(live))
}

func encodeTxTable(tt *txTable) rlp.Item {
	items := make([]rlp.Item, len(tt.txs))
	for i, tx := range tt.txs {
		from, to := tx.From, tx.To
		items[i] = rlp.List(
			rlp.Bytes(from[:]), rlp.Bytes(to[:]),
			rlp.Uint(tx.Nonce), rlp.Uint(tx.GasPrice), rlp.Uint(tx.Gas), rlp.Uint(tx.Value),
			rlp.Bytes(tx.Data), rlp.Uint(tx.Tip), boolItem(tx.DynamicFee),
		)
	}
	return listOf(items)
}

func encodeWorkload(w *Workload) rlp.Item {
	nonces := make([]rlp.Item, 0, len(w.nonces))
	addrs := make([]types.Address, 0, len(w.nonces))
	for a := range w.nonces {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return lessAddr(addrs[i], addrs[j]) })
	for _, a := range addrs {
		aa := a
		nonces = append(nonces, rlp.List(rlp.Bytes(aa[:]), rlp.Uint(w.nonces[a])))
	}
	sinks := make([]rlp.Item, len(w.sinks))
	for i, s := range w.sinks {
		sinks[i] = rlp.Uint(uint64(s))
	}
	return rlp.List(
		f64Item(w.Rate), rlp.Uint(w.PriceLo), rlp.Uint(w.PriceHi), rlp.Uint(uint64(w.Accounts)),
		boolItem(w.stopped), f64Item(w.stopAt), rlp.Uint(w.seedIdx), rlp.Uint(w.crng.Draws()),
		listOf(nonces), listOf(sinks),
	)
}

// encodeChurn captures a churn process's restorable state: configuration,
// population, stop flag, and RNG position. The event log is observation
// state, deliberately dropped (see the Churn doc comment).
func encodeChurn(c *Churn) rlp.Item {
	popItems := make([]rlp.Item, len(c.pop))
	for i, id := range c.pop {
		popItems[i] = rlp.Uint(uint64(id))
	}
	return rlp.List(
		f64Item(c.cfg.Interval), f64Item(c.cfg.Start), f64Item(c.cfg.StopAt),
		f64Item(c.cfg.RemoveFrac),
		boolItem(c.stopped), rlp.Uint(c.crng.Draws()),
		listOf(popItems),
	)
}

func lessAddr(a, b types.Address) bool { return string(a[:]) < string(b[:]) }

// ---------------------------------------------------------------------------
// Decoding

// dec walks an RLP item list recording the first error; zero values flow
// after a failure, so restore code stays linear and checks err once.
type dec struct {
	err error
}

func (d *dec) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("ethsim: restore: "+format, args...)
	}
}

func (d *dec) list(it rlp.Item, want int, what string) []rlp.Item {
	if d.err != nil {
		return nil
	}
	items, err := it.AsList()
	if err != nil {
		d.fail("%s: %v", what, err)
		return nil
	}
	if want >= 0 && len(items) != want {
		d.fail("%s: %d fields, want %d", what, len(items), want)
		return nil
	}
	return items
}

func (d *dec) u64(it rlp.Item, what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, err := it.AsUint()
	if err != nil {
		d.fail("%s: %v", what, err)
	}
	return v
}

func (d *dec) f64(it rlp.Item, what string) float64 {
	return math.Float64frombits(d.u64(it, what))
}

func (d *dec) boolean(it rlp.Item, what string) bool {
	return d.u64(it, what) != 0
}

func (d *dec) str(it rlp.Item, what string) string {
	if d.err != nil {
		return ""
	}
	b, err := it.AsBytes()
	if err != nil {
		d.fail("%s: %v", what, err)
		return ""
	}
	return string(b)
}

func (d *dec) addr(it rlp.Item, what string) types.Address {
	var a types.Address
	if d.err != nil {
		return a
	}
	b, err := it.AsBytes()
	if err != nil || len(b) != len(a) {
		d.fail("%s: bad address (%v, %d bytes)", what, err, len(b))
		return a
	}
	copy(a[:], b)
	return a
}

func (d *dec) hash(it rlp.Item, what string) types.Hash {
	var h types.Hash
	if d.err != nil {
		return h
	}
	b, err := it.AsBytes()
	if err != nil || len(b) != len(h) {
		d.fail("%s: bad hash (%v, %d bytes)", what, err, len(b))
		return h
	}
	copy(h[:], b)
	return h
}

func (d *dec) txRef(it rlp.Item, table []*types.Transaction, what string) *types.Transaction {
	i := d.u64(it, what)
	if d.err != nil {
		return nil
	}
	if i >= uint64(len(table)) {
		d.fail("%s: transaction ref %d out of table (%d)", what, i, len(table))
		return nil
	}
	return table[i]
}

func (d *dec) policy(it rlp.Item) txpool.Policy {
	f := d.list(it, 7, "policy")
	if d.err != nil {
		return txpool.Policy{}
	}
	return txpool.Policy{
		Name:                  d.str(f[0], "policy name"),
		ClientVersion:         d.str(f[1], "policy version"),
		BumpMil:               d.u64(f[2], "policy bump"),
		MaxFuturePerAccount:   int(d.u64(f[3], "policy U")),
		MinPendingForEviction: int(d.u64(f[4], "policy P")),
		Capacity:              int(d.u64(f[5], "policy L")),
		Expiry:                d.f64(f[6], "policy expiry"),
	}
}

func (d *dec) poolSnap(it rlp.Item, table []*types.Transaction) txpool.Snapshot {
	var s txpool.Snapshot
	f := d.list(it, 7, "pool snapshot")
	if d.err != nil {
		return s
	}
	ents := d.list(f[0], -1, "pool entries")
	s.Entries = make([]txpool.EntrySnapshot, len(ents))
	for i, e := range ents {
		ef := d.list(e, 4, "pool entry")
		if d.err != nil {
			return s
		}
		s.Entries[i] = txpool.EntrySnapshot{
			Tx:      d.txRef(ef[0], table, "pool entry tx"),
			Added:   d.f64(ef[1], "pool entry added"),
			Seq:     d.u64(ef[2], "pool entry seq"),
			Pending: d.boolean(ef[3], "pool entry pending"),
		}
	}
	price := d.list(f[1], -1, "price order")
	s.PriceOrder = make([]int32, len(price))
	for i, p := range price {
		s.PriceOrder[i] = int32(d.u64(p, "price slot"))
	}
	fut := d.list(f[2], -1, "future order")
	s.FutureOrder = make([]int32, len(fut))
	for i, p := range fut {
		s.FutureOrder[i] = int32(d.u64(p, "future slot"))
	}
	nonces := d.list(f[3], -1, "state nonces")
	s.StateNonces = make([]txpool.NonceSnapshot, len(nonces))
	for i, p := range nonces {
		nf := d.list(p, 2, "state nonce")
		if d.err != nil {
			return s
		}
		s.StateNonces[i] = txpool.NonceSnapshot{Addr: d.addr(nf[0], "nonce addr"), Nonce: d.u64(nf[1], "nonce value")}
	}
	s.AdmitSeq = d.u64(f[4], "admit seq")
	s.Now = d.f64(f[5], "pool now")
	s.BaseFee = d.u64(f[6], "base fee")
	return s
}

func (d *dec) nodeConfig(it rlp.Item) NodeConfig {
	f := d.list(it, 5, "node config")
	if d.err != nil {
		return NodeConfig{}
	}
	cfg := NodeConfig{
		Policy:   d.policy(f[0]),
		MaxPeers: int(d.u64(f[1], "max peers")),
	}
	flags := d.u64(f[2], "node flags")
	cfg.LegacyPushAll = flags&cfgFlagLegacyPushAll != 0
	cfg.NoForward = flags&cfgFlagNoForward != 0
	cfg.ForwardFutures = flags&cfgFlagForwardFutures != 0
	cfg.Unresponsive = flags&cfgFlagUnresponsive != 0
	cfg.Miner = flags&cfgFlagMiner != 0
	cfg.Label = d.str(f[3], "node label")
	cfg.VersionTag = d.str(f[4], "node version tag")
	return cfg
}

// RestoreNetwork reconstructs a network from a Checkpoint blob. The restored
// network continues byte-identically: same event order, same RNG stream,
// same pool eviction sequences, same message timings.
func RestoreNetwork(data []byte) (*Network, error) {
	return RestoreNetworkLanes(data, 0)
}

// RestoreNetworkLanes is RestoreNetwork with a lane-count override (0 keeps
// the checkpointed lane count). Lane count never affects results — the
// engine pops the global (at, seq) minimum regardless — so resuming a
// 1-lane checkpoint under 8 lanes still replays byte-identically.
func RestoreNetworkLanes(data []byte, lanes int) (*Network, error) {
	root, err := rlp.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("ethsim: restore: %w", err)
	}
	d := &dec{}
	top := d.list(root, 12, "checkpoint")
	if d.err != nil {
		return nil, d.err
	}
	if v := d.u64(top[0], "version"); d.err == nil && v != checkpointVersion {
		return nil, fmt.Errorf("ethsim: restore: checkpoint version %d, want %d", v, checkpointVersion)
	}

	cf := d.list(top[1], 10, "config")
	if d.err != nil {
		return nil, d.err
	}
	cfg := Config{
		Seed:          int64(d.u64(cf[0], "seed")),
		LatencyBase:   d.f64(cf[1], "latency base"),
		LatencyTail:   d.f64(cf[2], "latency tail"),
		LatencyMax:    d.f64(cf[3], "latency max"),
		AnnounceLock:  d.f64(cf[4], "announce lock"),
		SendSpacing:   d.f64(cf[5], "send spacing"),
		FlushInterval: d.f64(cf[6], "flush interval"),
		SpikeProb:     d.f64(cf[7], "spike prob"),
		SpikeMax:      d.f64(cf[8], "spike max"),
		Lanes:         int(d.u64(cf[9], "lanes")),
	}
	if lanes > 0 {
		cfg.Lanes = lanes
	}
	if d.err != nil {
		return nil, d.err
	}
	n := NewNetwork(cfg)

	// Transaction table first: everything else references into it.
	txItems := d.list(top[3], -1, "tx table")
	table := make([]*types.Transaction, len(txItems))
	for i, it := range txItems {
		f := d.list(it, 9, "tx record")
		if d.err != nil {
			return nil, d.err
		}
		tx := &types.Transaction{
			From:       d.addr(f[0], "tx from"),
			To:         d.addr(f[1], "tx to"),
			Nonce:      d.u64(f[2], "tx nonce"),
			GasPrice:   d.u64(f[3], "tx gas price"),
			Gas:        d.u64(f[4], "tx gas"),
			Value:      d.u64(f[5], "tx value"),
			Tip:        d.u64(f[7], "tx tip"),
			DynamicFee: d.boolean(f[8], "tx dynamic"),
		}
		if b := d.str(f[6], "tx data"); len(b) > 0 {
			tx.Data = []byte(b)
		}
		table[i] = tx
	}

	// Nodes: recreate via AddNode (ids are sequential, so creation order
	// reproduces identity), then overwrite each node's restorable state.
	nodeItems := d.list(top[4], -1, "nodes")
	if d.err != nil {
		return nil, d.err
	}
	for _, it := range nodeItems {
		f := d.list(it, 6, "node")
		if d.err != nil {
			return nil, d.err
		}
		nd := n.AddNode(d.nodeConfig(f[0]))
		pool, perr := txpool.RestorePool(nd.cfg.Policy, d.poolSnap(f[1], table))
		if d.err != nil {
			return nil, d.err
		}
		if perr != nil {
			return nil, fmt.Errorf("ethsim: restore node %d: %w", nd.id, perr)
		}
		nd.pool = pool
		nd.pool.SetMetrics(n.poolMetrics)

		peers := d.list(f[2], -1, "node peers")
		nd.peerOff = int32(len(n.adjIDs))
		nd.peerCnt = int32(len(peers))
		nd.peerCap = int32(len(peers))
		for _, p := range peers {
			pf := d.list(p, 2, "peer slot")
			if d.err != nil {
				return nil, d.err
			}
			n.adjIDs = append(n.adjIDs, types.NodeID(d.u64(pf[0], "peer id")))
			n.adjMark = append(n.adjMark, d.f64(pf[1], "peer mark"))
		}

		for _, p := range d.list(f[3], -1, "node locks") {
			lf := d.list(p, 2, "lock")
			if d.err != nil {
				return nil, d.err
			}
			nd.locks.Arm(d.hash(lf[0], "lock hash"), d.f64(lf[1], "lock until"))
		}
		for _, p := range d.list(f[4], -1, "node outq") {
			of := d.list(p, 2, "out item")
			if d.err != nil {
				return nil, d.err
			}
			nd.outQ = append(nd.outQ, outItem{
				tx:      d.txRef(of[0], table, "out tx"),
				exclude: types.NodeID(d.u64(of[1], "out exclude")),
			})
		}
		nd.flushScheduled = d.boolean(f[5], "flush scheduled")
	}

	for _, p := range d.list(top[5], -1, "overflow marks") {
		of := d.list(p, 2, "overflow mark")
		if d.err != nil {
			return nil, d.err
		}
		n.overflowMark[d.u64(of[0], "overflow key")] = d.f64(of[1], "overflow mark")
	}

	mf := d.list(top[6], 3, "msg arena")
	if d.err != nil {
		return nil, d.err
	}
	n.msgs = make([]netMsg, d.u64(mf[0], "msg arena len"))
	for _, p := range d.list(mf[1], -1, "msg free list") {
		n.msgFree = append(n.msgFree, int32(d.u64(p, "free slot")))
	}
	for _, p := range d.list(mf[2], -1, "live msgs") {
		lf := d.list(p, 7, "live msg")
		if d.err != nil {
			return nil, d.err
		}
		slot := d.u64(lf[0], "msg slot")
		if d.err == nil && slot >= uint64(len(n.msgs)) {
			return nil, fmt.Errorf("ethsim: restore: msg slot %d out of arena (%d)", slot, len(n.msgs))
		}
		dst := n.node(types.NodeID(d.u64(lf[3], "msg dst")))
		if d.err == nil && dst == nil {
			return nil, fmt.Errorf("ethsim: restore: msg slot %d addressed to unknown node", slot)
		}
		if d.err != nil {
			return nil, d.err
		}
		m := &n.msgs[slot]
		m.kind = msgKind(d.u64(lf[1], "msg kind"))
		m.from = types.NodeID(d.u64(lf[2], "msg from"))
		m.dst = dst
		m.sent = d.f64(lf[4], "msg sent")
		for _, t := range d.list(lf[5], -1, "msg txs") {
			m.txs = append(m.txs, d.txRef(t, table, "msg tx"))
		}
		if m.kind == msgRequest {
			m.txs = m.txs[:0] // on a request txs is the run-time hint, which no file supplies
		}
		for _, hh := range d.list(lf[6], -1, "msg hashes") {
			m.hashes = append(m.hashes, d.hash(hh, "msg hash"))
		}
	}

	tallies := d.list(top[7], int(numMsgKinds), "msg tallies")
	for k, t := range tallies {
		n.msgTally[k] = int(d.u64(t, "msg tally"))
	}
	for _, iv := range d.list(top[8], -1, "janitor intervals") {
		n.janitorIntervals = append(n.janitorIntervals, d.f64(iv, "janitor interval"))
	}

	for _, p := range d.list(top[9], -1, "supernodes") {
		sf := d.list(p, 4, "supernode")
		if d.err != nil {
			return nil, d.err
		}
		nd := n.node(types.NodeID(d.u64(sf[0], "supernode id")))
		if d.err == nil && nd == nil {
			return nil, fmt.Errorf("ethsim: restore: supernode on unknown node")
		}
		if d.err != nil {
			return nil, d.err
		}
		shadow, perr := txpool.RestorePool(d.policy(sf[2]), d.poolSnap(sf[3], table))
		if d.err != nil {
			return nil, d.err
		}
		if perr != nil {
			return nil, fmt.Errorf("ethsim: restore supernode shadow: %w", perr)
		}
		s := &Supernode{
			node:       nd,
			net:        n,
			sendCursor: d.f64(sf[1], "send cursor"),
			byHash:     make(map[types.Hash][]TxReceipt),
			announced:  make(map[types.Hash][]TxReceipt),
			shadow:     shadow,
		}
		s.bindHooks()
		n.AddJanitorHook(func(now float64) { s.shadow.SetTime(now) })
		n.supers = append(n.supers, s)
	}

	for _, p := range d.list(top[10], -1, "workloads") {
		wf := d.list(p, 10, "workload")
		if d.err != nil {
			return nil, d.err
		}
		serial := uint64(len(n.workloads) + 1)
		crng := sim.NewCountedRand(n.cfg.Seed ^ int64(serial)<<17 ^ 0x7f4a7c15)
		crng.FastForward(d.u64(wf[7], "workload rng draws"))
		w := &Workload{
			net:         n,
			Rate:        d.f64(wf[0], "workload rate"),
			PriceLo:     d.u64(wf[1], "workload price lo"),
			PriceHi:     d.u64(wf[2], "workload price hi"),
			Accounts:    int(d.u64(wf[3], "workload accounts")),
			stopped:     d.boolean(wf[4], "workload stopped"),
			stopAt:      d.f64(wf[5], "workload stop at"),
			seedIdx:     d.u64(wf[6], "workload seed idx"),
			nonces:      make(map[types.Address]uint64),
			accountBase: serial << 32,
			crng:        crng,
			rng:         crng.Rand(),
			index:       len(n.workloads),
		}
		for _, nn := range d.list(wf[8], -1, "workload nonces") {
			nf := d.list(nn, 2, "workload nonce")
			if d.err != nil {
				return nil, d.err
			}
			w.nonces[d.addr(nf[0], "workload nonce addr")] = d.u64(nf[1], "workload nonce value")
		}
		for _, sk := range d.list(wf[9], -1, "workload sinks") {
			w.sinks = append(w.sinks, types.NodeID(d.u64(sk, "workload sink")))
		}
		n.workloads = append(n.workloads, w)
	}

	for _, p := range d.list(top[11], -1, "churns") {
		cf := d.list(p, 7, "churn")
		if d.err != nil {
			return nil, d.err
		}
		cfg := ChurnConfig{
			Interval:   d.f64(cf[0], "churn interval"),
			Start:      d.f64(cf[1], "churn start"),
			StopAt:     d.f64(cf[2], "churn stop at"),
			RemoveFrac: d.f64(cf[3], "churn remove frac"),
		}
		for _, id := range d.list(cf[6], -1, "churn population") {
			cfg.Population = append(cfg.Population, types.NodeID(d.u64(id, "churn member")))
		}
		if d.err != nil {
			return nil, d.err
		}
		// addChurn registers without arming: the pending tick (if any) is
		// already in the restored event queue.
		c := n.addChurn(cfg)
		c.stopped = d.boolean(cf[4], "churn stopped")
		c.crng.FastForward(d.u64(cf[5], "churn rng draws"))
	}

	ef := d.list(top[2], 4, "engine")
	if d.err != nil {
		return nil, d.err
	}
	evItems := d.list(ef[3], -1, "engine events")
	events := make([]sim.EventRecord, len(evItems))
	for i, it := range evItems {
		rf := d.list(it, 4, "engine event")
		if d.err != nil {
			return nil, d.err
		}
		events[i] = sim.EventRecord{
			At:   d.f64(rf[0], "event at"),
			Seq:  d.u64(rf[1], "event seq"),
			Arg:  d.u64(rf[2], "event arg"),
			Lane: int32(d.u64(rf[3], "event lane")),
		}
	}
	now := d.f64(ef[0], "engine now")
	seq := d.u64(ef[1], "engine seq")
	draws := d.u64(ef[2], "engine draws")
	if d.err != nil {
		return nil, d.err
	}
	if err := n.eng.RestoreState(now, seq, draws, n, events); err != nil {
		return nil, fmt.Errorf("ethsim: restore: %w", err)
	}
	return n, nil
}

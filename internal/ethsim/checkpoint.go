package ethsim

import (
	"errors"
	"fmt"
	"math"
	"slices"
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

// image is a checkpoint: the blob is rlp.Marshal of an image, so the field
// order of image and of the types it holds is the layout — written once,
// read by the same declaration. Config, sim.EventRecord, txpool.Policy and
// txpool.NonceSnapshot are part of it as declared. Transactions are one
// table, referenced by index everywhere else, so a transaction held by many
// pools and messages restores to one shared object.
type image struct {
	Version   uint64
	Config    Config
	Engine    engineImage
	Txs       []txImage
	Nodes     []nodeImage
	Overflow  []markImage // overflowMark, by link key
	Msgs      arenaImage
	Tally     [numMsgKinds]int
	Janitors  []float64
	Supers    []superImage
	Workloads []workloadImage
	Churns    []churnImage
}

type (
	engineImage struct {
		Now        float64
		Seq, Draws uint64
		Events     []sim.EventRecord
	}
	txImage struct {
		From, To                    types.Address
		Nonce, GasPrice, Gas, Value uint64
		Data                        []byte
		Tip                         uint64
		DynamicFee                  bool
	}
	nodeImage struct {
		Config         nodeConfigImage
		Pool           poolImage
		Peers          []markImage // adjacency segment: peer id, FIFO watermark
		Locks          []lockImage
		OutQ           []outImage
		FlushScheduled bool
	}
	// nodeConfigImage is NodeConfig with its switches packed into Flags, bit
	// i being flags()[i].
	nodeConfigImage struct {
		Policy            txpool.Policy
		MaxPeers          int
		Flags             uint64
		Label, VersionTag string
	}
	poolImage struct {
		Entries                 []entryImage
		PriceOrder, FutureOrder []int32
		StateNonces             []txpool.NonceSnapshot
		AdmitSeq                uint64
		Now                     float64
		BaseFee                 uint64
	}
	entryImage struct {
		Tx      uint64
		Added   float64
		Seq     uint64
		Pending bool
	}
	// markImage is a FIFO watermark keyed by a peer id or a link key.
	markImage struct {
		Key  uint64
		Mark float64
	}
	lockImage struct {
		Hash  types.Hash
		Until float64
	}
	outImage struct {
		Tx      uint64
		Exclude types.NodeID
	}
	// arenaImage is the message arena verbatim: its length, the free list in
	// its exact order (slot reuse order feeds scheduling, so it must
	// survive), and every live slot.
	arenaImage struct {
		Len  uint64
		Free []int32
		Live []msgImage
	}
	msgImage struct {
		Slot      uint64
		Kind      msgKind
		From, Dst types.NodeID
		Sent      float64
		Txs       []uint64
		Hashes    []types.Hash
	}
	superImage struct {
		ID         types.NodeID
		SendCursor float64
		Policy     txpool.Policy
		Shadow     poolImage
	}
	workloadImage struct {
		Rate             float64
		PriceLo, PriceHi uint64
		Accounts         int
		Stopped          bool
		StopAt           float64
		SeedIdx, Draws   uint64
		Nonces           []txpool.NonceSnapshot // by address
		Sinks            []types.NodeID
	}
	// churnImage is a churn process's restorable state: configuration,
	// population, stop flag, and RNG position. The event log is observation
	// state, deliberately dropped (see the Churn doc comment).
	churnImage struct {
		Interval, Start, StopAt, RemoveFrac float64
		Stopped                             bool
		Draws                               uint64
		Pop                                 []types.NodeID
	}
)

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
// AddJanitorHook callbacks must be re-registered by the caller. Supernode
// sighting logs are deliberately dropped: every verdict read filters
// sightings to At >= t for a measurement start t, and any measurement started
// after a resume has t at or past the checkpoint time, so pre-checkpoint
// sightings are unreachable.
func (n *Network) Checkpoint() ([]byte, error) {
	img, err := n.image()
	if err != nil {
		return nil, fmt.Errorf("ethsim: checkpoint: %w", err)
	}
	return rlp.Marshal(img)
}

// txTable numbers transactions in first-reference order.
type txTable struct {
	refs map[types.Hash]uint64
	txs  []txImage
}

func (t *txTable) ref(tx *types.Transaction) uint64 {
	h := tx.Hash()
	if i, ok := t.refs[h]; ok {
		return i
	}
	i := uint64(len(t.txs))
	t.refs[h] = i
	t.txs = append(t.txs, txImage{From: tx.From, To: tx.To, Nonce: tx.Nonce, GasPrice: tx.GasPrice,
		Gas: tx.Gas, Value: tx.Value, Data: tx.Data, Tip: tx.Tip, DynamicFee: tx.DynamicFee})
	return i
}

// image captures the network. Traversal order fixes the transaction table:
// each node's out-queue then pool, then the message arena, then supernode
// shadow pools.
func (n *Network) image() (*image, error) {
	events, err := n.eng.SnapshotEvents(n)
	if err != nil {
		return nil, err
	}
	tt := &txTable{refs: make(map[types.Hash]uint64)}
	img := &image{
		Version:  checkpointVersion,
		Config:   n.cfg,
		Engine:   engineImage{Now: n.eng.Now(), Seq: n.eng.SeqCount(), Draws: n.eng.RandDraws(), Events: events},
		Nodes:    make([]nodeImage, len(n.nodes)),
		Tally:    n.msgTally,
		Janitors: n.janitorIntervals,
	}
	for i, nd := range n.nodes {
		img.Nodes[i] = nd.image(tt)
	}
	for k, mark := range n.overflowMark {
		img.Overflow = append(img.Overflow, markImage{Key: k, Mark: mark})
	}
	sort.Slice(img.Overflow, func(i, j int) bool { return img.Overflow[i].Key < img.Overflow[j].Key })
	img.Msgs = n.arenaImage(tt)
	for _, s := range n.supers {
		img.Supers = append(img.Supers, superImage{ID: s.node.id, SendCursor: s.sendCursor,
			Policy: s.shadow.Policy(), Shadow: poolImageOf(s.shadow.Snapshot(), tt)})
	}
	for _, w := range n.workloads {
		img.Workloads = append(img.Workloads, w.image())
	}
	for _, c := range n.churns {
		img.Churns = append(img.Churns, churnImage{Interval: c.cfg.Interval, Start: c.cfg.Start,
			StopAt: c.cfg.StopAt, RemoveFrac: c.cfg.RemoveFrac, Stopped: c.stopped, Draws: c.crng.Draws(), Pop: c.pop})
	}
	img.Txs = tt.txs
	return img, nil
}

// flags lists NodeConfig's switches in nodeConfigImage.Flags bit order. Bit 4
// belonged to a miner switch nothing read; no writer ever set it, and check
// rejects it with every other bit past the list.
func (cfg *NodeConfig) flags() []*bool {
	return []*bool{&cfg.LegacyPushAll, &cfg.NoForward, &cfg.ForwardFutures, &cfg.Unresponsive}
}

// image captures the node. The out-queue takes its transaction-table refs
// before the pool: v2 numbers the table in that order.
func (nd *Node) image(tt *txTable) nodeImage {
	cfg := nd.cfg
	img := nodeImage{
		Config:         nodeConfigImage{Policy: cfg.Policy, MaxPeers: cfg.MaxPeers, Label: cfg.Label, VersionTag: cfg.VersionTag},
		FlushScheduled: nd.flushScheduled,
	}
	for i, on := range cfg.flags() {
		if *on {
			img.Config.Flags |= 1 << i
		}
	}
	for _, it := range nd.outQ {
		img.OutQ = append(img.OutQ, outImage{Tx: tt.ref(it.tx), Exclude: it.exclude})
	}
	img.Pool = poolImageOf(nd.pool.Snapshot(), tt)
	marks := nd.marksSeg()
	for i, id := range nd.peersSeg() {
		img.Peers = append(img.Peers, markImage{Key: uint64(id), Mark: marks[i]})
	}
	// Announcement locks: the live suffix of the expiry-ordered ring (stale
	// entries for re-armed hashes are lazy-deletion artifacts with no
	// observable effect). Queue order is expiry order, so restore re-arms in
	// sequence and rebuilds both map and ring.
	nd.locks.Live(func(h types.Hash, until float64) {
		img.Locks = append(img.Locks, lockImage{Hash: h, Until: until})
	})
	return img
}

func poolImageOf(s txpool.Snapshot, tt *txTable) poolImage {
	img := poolImage{PriceOrder: s.PriceOrder, FutureOrder: s.FutureOrder, StateNonces: s.StateNonces,
		AdmitSeq: s.AdmitSeq, Now: s.Now, BaseFee: s.BaseFee}
	for _, e := range s.Entries {
		img.Entries = append(img.Entries, entryImage{Tx: tt.ref(e.Tx), Added: e.Added, Seq: e.Seq, Pending: e.Pending})
	}
	return img
}

// arenaImage captures the message arena. A message riding a flush's shared
// batch is written as the payload it stands for — the batch minus the items
// excluded for its destination — so the image does not know batches exist
// and a restored message owns a private payload. A message of run members is
// written as their objects, built for the table, so the image does not know
// runs exist either; restored, it carries those objects. A request's asked
// objects (netMsg.txs) are a run-time hint beside its hashes and are not
// written: a restored request answers by hash.
func (n *Network) arenaImage(tt *txTable) arenaImage {
	img := arenaImage{Len: uint64(len(n.msgs)), Free: n.msgFree}
	for i := range n.msgs {
		m := &n.msgs[i]
		if m.to == 0 {
			continue
		}
		p := &n.privs[m.priv]
		mi := msgImage{Slot: uint64(i), Kind: m.kind, From: m.from, Dst: m.to, Sent: m.sent}
		if m.batch != 0 {
			b := &n.batches[m.batch]
			for j, it := range b.items {
				switch {
				case it.exclude == m.to:
				case m.kind == msgTxs:
					mi.Txs = append(mi.Txs, tt.ref(it.tx))
				default:
					mi.Hashes = append(mi.Hashes, b.hashes[j])
				}
			}
		}
		if m.kind != msgRequest {
			for _, tx := range p.txs {
				mi.Txs = append(mi.Txs, tt.ref(tx))
			}
		}
		for _, p := range n.runs[m.runs] {
			for k := p.lo; k < p.hi; k++ {
				mi.Txs = append(mi.Txs, tt.ref(p.run.Tx(k)))
			}
		}
		mi.Hashes = append(mi.Hashes, p.hashes...)
		img.Live = append(img.Live, mi)
	}
	return img
}

func (w *Workload) image() workloadImage {
	img := workloadImage{Rate: w.Rate, PriceLo: w.PriceLo, PriceHi: w.PriceHi, Accounts: w.Accounts,
		Stopped: w.stopped, StopAt: w.stopAt, SeedIdx: w.seedIdx, Draws: w.crng.Draws(), Sinks: w.sinks}
	for a, nonce := range w.nonces {
		img.Nonces = append(img.Nonces, txpool.NonceSnapshot{Addr: a, Nonce: nonce})
	}
	sort.Slice(img.Nonces, func(i, j int) bool {
		return string(img.Nonces[i].Addr[:]) < string(img.Nonces[j].Addr[:])
	})
	return img
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
	var img image
	if err := rlp.Unmarshal(data, &img); err != nil {
		return nil, fmt.Errorf("ethsim: restore: %w", err)
	}
	n, err := img.build(lanes)
	if err != nil {
		return nil, fmt.Errorf("ethsim: restore: %w", err)
	}
	return n, nil
}

// check validates every reference the image carries against the table it
// indexes, and every number the restored network would loop or index on, so
// that a damaged blob is an error here and never a panic or a livelock once
// the network runs (TestRestoreRejectsCorruptBlob).
func (img *image) check() error {
	if img.Version != checkpointVersion {
		return fmt.Errorf("checkpoint version %d, want %d", img.Version, checkpointVersion)
	}
	c := img.Config
	for _, v := range []float64{c.LatencyBase, c.LatencyTail, c.LatencyMax, c.AnnounceLock,
		c.SendSpacing, c.FlushInterval, c.SpikeProb, c.SpikeMax} {
		if !(v >= 0) {
			return fmt.Errorf("config value %v", v)
		}
	}
	if now := img.Engine.Now; math.IsInf(now, 0) {
		return errors.New("clock at infinity")
	}
	node := func(id types.NodeID) bool { return id >= 1 && int(id) <= len(img.Nodes) }
	table := uint64(len(img.Txs))
	outside := func(r uint64) bool { return r >= table }
	pooled := func(p *poolImage) bool {
		return !slices.ContainsFunc(p.Entries, func(e entryImage) bool { return outside(e.Tx) })
	}
	for i := range img.Nodes {
		nd := &img.Nodes[i]
		id := uint64(i + 1)
		if !pooled(&nd.Pool) || slices.ContainsFunc(nd.OutQ, func(o outImage) bool { return outside(o.Tx) }) {
			return fmt.Errorf("node %d: transaction ref out of table (%d)", id, table)
		}
		if nd.Config.Flags>>len(new(NodeConfig).flags()) != 0 {
			return fmt.Errorf("node %d: config flags %#x set a switch that does not exist", id, nd.Config.Flags)
		}
		for j, p := range nd.Peers {
			if p.Key == 0 || p.Key > uint64(len(img.Nodes)) || p.Key == id || j > 0 && p.Key <= nd.Peers[j-1].Key {
				return fmt.Errorf("node %d: peer %d out of order or unknown", id, p.Key)
			}
		}
	}

	// The live and free slots partition the arena; each live message has
	// exactly one pending event.
	const (
		unseen = iota
		live
		free
		armed
	)
	a := &img.Msgs
	if a.Len != uint64(len(a.Live)+len(a.Free)) {
		return fmt.Errorf("msg arena of %d slots has %d live and %d free", a.Len, len(a.Live), len(a.Free))
	}
	slots := make([]uint8, a.Len)
	for _, m := range a.Live {
		if m.Slot >= a.Len || slots[m.Slot] != unseen {
			return fmt.Errorf("msg slot %d out of arena or repeated", m.Slot)
		}
		slots[m.Slot] = live
		if m.Kind >= numMsgKinds || !node(m.From) || !node(m.Dst) || slices.ContainsFunc(m.Txs, outside) {
			return fmt.Errorf("msg slot %d: kind %d from %d to %d, or a transaction ref out of table", m.Slot, m.Kind, m.From, m.Dst)
		}
	}
	for _, f := range a.Free {
		if f < 0 || uint64(f) >= a.Len || slots[f] != unseen {
			return fmt.Errorf("free msg slot %d out of arena, live or repeated", f)
		}
		slots[f] = free
	}
	for _, iv := range img.Janitors {
		if !(iv > 0) {
			return fmt.Errorf("janitor interval %v", iv)
		}
	}
	for _, s := range img.Supers {
		if !node(s.ID) || !pooled(&s.Shadow) {
			return fmt.Errorf("supernode on unknown node %d, or a shadow ref out of table", s.ID)
		}
	}
	for _, ev := range img.Engine.Events {
		p := ev.Arg & argPayload
		var ok bool
		switch ev.Arg >> argKindShift {
		case argKindMsg:
			if ok = p < a.Len && slots[p] == live; ok {
				slots[p] = armed
			}
		case argKindFlush:
			ok = p < uint64(len(img.Nodes))
		case argKindJanitor:
			ok = p < uint64(len(img.Janitors))
		case argKindWorkload:
			// A ticking workload draws a sink, an account and a price span.
			ok = p < uint64(len(img.Workloads))
			if ok {
				w := &img.Workloads[p]
				ok = w.Rate > 0 && !math.IsInf(w.Rate, 1) && w.Accounts > 0 && len(w.Sinks) > 0 &&
					(w.PriceHi <= w.PriceLo || w.PriceHi-w.PriceLo <= math.MaxInt64)
			}
		case argKindChurn:
			ok = p < uint64(len(img.Churns)) && img.Churns[p].Interval > 0 && len(img.Churns[p].Pop) >= 2
		}
		if !ok {
			return fmt.Errorf("event argument %#x refers to nothing runnable", ev.Arg)
		}
	}
	for _, m := range a.Live {
		if slots[m.Slot] != armed {
			return fmt.Errorf("msg slot %d has no pending event", m.Slot)
		}
	}
	return nil
}

// build checks the image and constructs the network it describes.
func (img *image) build(lanes int) (*Network, error) {
	if err := img.check(); err != nil {
		return nil, err
	}
	cfg := img.Config
	if lanes > 0 {
		cfg.Lanes = lanes
	}
	n := NewNetwork(cfg)
	txs := make([]*types.Transaction, len(img.Txs))
	for i, t := range img.Txs {
		txs[i] = &types.Transaction{From: t.From, To: t.To, Nonce: t.Nonce, GasPrice: t.GasPrice,
			Gas: t.Gas, Value: t.Value, Data: t.Data, Tip: t.Tip, DynamicFee: t.DynamicFee}
	}

	// Nodes: recreate via AddNode (ids are sequential, so creation order
	// reproduces identity), then overwrite each node's restorable state.
	for i := range img.Nodes {
		ni := &img.Nodes[i]
		nc := NodeConfig{Policy: ni.Config.Policy, MaxPeers: ni.Config.MaxPeers, Label: ni.Config.Label, VersionTag: ni.Config.VersionTag}
		for b, on := range nc.flags() {
			*on = ni.Config.Flags>>b&1 != 0
		}
		nd := n.AddNode(nc)
		pool, err := txpool.RestorePool(nd.cfg.Policy, ni.Pool.snapshot(txs))
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", nd.id, err)
		}
		nd.pool = pool
		nd.pool.SetMetrics(n.poolMetrics)
		nd.peerOff = int32(len(n.adjIDs))
		nd.peerCnt = int32(len(ni.Peers))
		nd.peerCap = nd.peerCnt
		for _, p := range ni.Peers {
			n.adjIDs = append(n.adjIDs, types.NodeID(p.Key))
			n.adjMark = append(n.adjMark, p.Mark)
		}
		for _, l := range ni.Locks {
			nd.locks.Arm(l.Hash, l.Until)
		}
		for _, o := range ni.OutQ {
			nd.outQ = append(nd.outQ, outItem{tx: txs[o.Tx], exclude: o.Exclude})
		}
		nd.flushScheduled = ni.FlushScheduled
	}
	for _, m := range img.Overflow {
		n.overflowMark[m.Key] = m.Mark
	}

	n.msgs = make([]netMsg, img.Msgs.Len)
	n.msgFree = img.Msgs.Free
	for _, mi := range img.Msgs.Live {
		m := &n.msgs[mi.Slot]
		m.kind, m.from, m.to, m.sent = mi.Kind, mi.From, mi.Dst, mi.Sent
		p := n.payload(int32(mi.Slot))
		p.hashes = mi.Hashes
		if m.kind != msgRequest { // on a request txs is the run-time hint, which no file supplies
			for _, r := range mi.Txs {
				p.txs = append(p.txs, txs[r])
			}
		}
	}
	n.msgTally = img.Tally
	n.janitorIntervals = img.Janitors

	for _, si := range img.Supers {
		shadow, err := txpool.RestorePool(si.Policy, si.Shadow.snapshot(txs))
		if err != nil {
			return nil, fmt.Errorf("supernode shadow: %w", err)
		}
		n.addSupernode(n.node(si.ID), shadow).sendCursor = si.SendCursor
	}

	for _, wi := range img.Workloads {
		w := NewWorkload(n, wi.Rate, wi.PriceLo, wi.PriceHi)
		w.Accounts, w.stopped, w.stopAt, w.seedIdx, w.sinks = wi.Accounts, wi.Stopped, wi.StopAt, wi.SeedIdx, wi.Sinks
		w.crng.FastForward(wi.Draws)
		for _, ns := range wi.Nonces {
			w.nonces[ns.Addr] = ns.Nonce
		}
	}
	for _, ci := range img.Churns {
		// addChurn registers without arming: the pending tick (if any) is
		// already in the restored event queue.
		c := n.addChurn(ChurnConfig{Interval: ci.Interval, Start: ci.Start, StopAt: ci.StopAt,
			RemoveFrac: ci.RemoveFrac, Population: ci.Pop})
		c.stopped = ci.Stopped
		c.crng.FastForward(ci.Draws)
	}

	e := img.Engine
	if err := n.eng.RestoreState(e.Now, e.Seq, e.Draws, n, e.Events); err != nil {
		return nil, err
	}
	return n, nil
}

func (p *poolImage) snapshot(txs []*types.Transaction) txpool.Snapshot {
	s := txpool.Snapshot{PriceOrder: p.PriceOrder, FutureOrder: p.FutureOrder, StateNonces: p.StateNonces,
		AdmitSeq: p.AdmitSeq, Now: p.Now, BaseFee: p.BaseFee, Entries: make([]txpool.EntrySnapshot, len(p.Entries))}
	for i, e := range p.Entries {
		s.Entries[i] = txpool.EntrySnapshot{Tx: txs[e.Tx], Added: e.Added, Seq: e.Seq, Pending: e.Pending}
	}
	return s
}

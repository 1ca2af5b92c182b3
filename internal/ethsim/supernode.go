package ethsim

import (
	"sort"

	"toposhot/internal/gossip"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// Supernode is the instrumented measurement node M: it connects to every
// node, records every delivery and announcement of a watched hash with its
// source peer, never relays anything, and can inject arbitrary transactions —
// including future transactions, which a stock client would refuse to
// propagate — to chosen peers. This mirrors the paper's statically
// instrumented Geth client (§5.1). It is core.Vantage on virtual time.
//
// The watch set belongs to the network: a hash any of its supernodes
// injected with Inject is logged by every one of them, so a second
// supernode can monitor M's probes (core.Preprocess). Retire empties the
// watch set and every supernode's log.
type Supernode struct {
	node *Node
	net  *Network

	// sendCursor serializes outgoing injections on the supernode's uplink.
	sendCursor float64

	// seen is the sighting log: per watched hash, every delivery and
	// announcement since it was injected, in arrival order, so each list is
	// sorted by time.
	seen map[types.Hash][]gossip.Sighting

	// shadow is a standard-policy mempool mirroring every delivery. The
	// supernode's own buffer is unbounded (observation must never drop),
	// but gas-price estimation (§5.2.1's median) has to reflect what a
	// *normal* node's pool holds under eviction pressure — that is what the
	// paper's measurement node M sees in its own mempool.
	shadow *txpool.Pool
}

// NewSupernode adds a supernode to the network. Its pool is effectively
// unbounded so observation never perturbs admission.
func NewSupernode(net *Network) *Supernode {
	cfg := NodeConfig{
		Policy:    txpool.Geth.WithCapacity(1 << 20),
		MaxPeers:  1 << 20,
		NoForward: true,
		Label:     "supernode",
	}
	return net.addSupernode(net.AddNode(cfg), txpool.New(txpool.Geth))
}

// addSupernode makes node a supernode with the given shadow pool: it binds
// the observation hooks and registers the supernode — shared between
// construction and checkpoint restore.
func (n *Network) addSupernode(node *Node, shadow *txpool.Pool) *Supernode {
	s := &Supernode{
		node:   node,
		net:    n,
		seen:   make(map[types.Hash][]gossip.Sighting),
		shadow: shadow,
	}
	if n.watched == nil {
		n.watched = make(map[types.Hash]struct{})
	}
	node.OnTxDelivered = func(from types.NodeID, tx *types.Transaction, at float64) {
		if h := tx.Hash(); n.isWatched(h) {
			s.seen[h] = append(s.seen[h], gossip.Sighting{At: at, Peer: from, Pushed: true})
		}
		s.shadow.Offer(tx)
	}
	node.OnHashAnnounced = func(from types.NodeID, h types.Hash, at float64) {
		if n.isWatched(h) {
			s.seen[h] = append(s.seen[h], gossip.Sighting{At: at, Peer: from})
		}
	}
	n.supers = append(n.supers, s)
	return s
}

// isWatched reports whether a supernode injected h since the last Retire.
func (n *Network) isWatched(h types.Hash) bool {
	_, ok := n.watched[h]
	return ok
}

// Retire ends every probe's watch: it empties the network's watch set and
// the sighting log of each of its supernodes. The maps keep their capacity,
// so a campaign's log holds at most its largest probe's sightings.
func (s *Supernode) Retire() {
	clear(s.net.watched)
	for _, sn := range s.net.supers {
		clear(sn.seen)
	}
}

// Supernodes returns the supernodes attached to the network, in creation
// order.
func (n *Network) Supernodes() []*Supernode {
	return append([]*Supernode(nil), n.supers...)
}

// SetEstimatorPolicy replaces the shadow estimation pool's policy (used by
// scaled-pool campaigns so the estimator experiences the same eviction
// pressure as the targets). Existing shadow contents are discarded.
func (s *Supernode) SetEstimatorPolicy(policy txpool.Policy) {
	s.shadow = txpool.New(policy)
}

// PendingPriceView returns the estimation pool's pending gas prices — the
// basis for the workload-adaptive Y (§5.2.1).
func (s *Supernode) PendingPriceView() []uint64 {
	return s.shadow.PendingPrices()
}

// ID returns the supernode's node id.
func (s *Supernode) ID() types.NodeID { return s.node.ID() }

// ConnectAll links the supernode to every current node except itself and
// other supernodes already linked.
func (s *Supernode) ConnectAll() {
	for _, nd := range s.net.Nodes() {
		if nd.ID() == s.node.ID() {
			continue
		}
		_ = s.net.Connect(s.node.ID(), nd.ID())
	}
}

// Connect links the supernode to one node.
func (s *Supernode) Connect(id types.NodeID) error {
	return s.net.Connect(s.node.ID(), id)
}

// InjectBatchSize is the number of transactions carried per injected
// Transactions message (devp2p frames batch transactions).
const InjectBatchSize = 64

// Inject sends transactions directly to one peer, bypassing the supernode's
// own pool and admission checks. Transactions are packed into messages of
// InjectBatchSize and consecutive messages are spaced by sendSpacing, so
// injecting thousands of future transactions takes proportional virtual
// time — the uplink serialization that makes large parallel groups slower
// to set up (Figures 4b and 5). Every transaction becomes watched until the
// next Retire. It never fails.
func (s *Supernode) Inject(to types.NodeID, txs ...*types.Transaction) error {
	for _, tx := range txs {
		s.net.watched[tx.Hash()] = struct{}{}
	}
	for len(txs) > 0 {
		n := min(InjectBatchSize, len(txs))
		if mi := s.send(to); mi >= 0 {
			p := s.net.payload(mi)
			p.txs = append(p.txs, txs[:n]...)
		}
		txs = txs[n:]
	}
	return nil
}

// InjectRuns is Inject for the members of runs, in order: the same messages
// at the same times as Inject of every member's object, but each message
// carries stretches of runs, and the receiving pool builds no member it is
// not asked for. It watches no member: futures are never read back.
func (s *Supernode) InjectRuns(to types.NodeID, runs ...*types.Run) error {
	k := 0 // the next member of runs[0]
	next := func() {
		for len(runs) > 0 && k >= runs[0].Count {
			runs, k = runs[1:], 0
		}
	}
	for next(); len(runs) > 0; {
		mi := s.send(to)
		var ri int32
		var parts []runPart
		if mi >= 0 {
			ri = s.net.takeRuns()
			parts = s.net.runs[ri]
		}
		for n := 0; n < InjectBatchSize && len(runs) > 0; next() {
			take := min(InjectBatchSize-n, runs[0].Count-k)
			parts = append(parts, runPart{run: runs[0], lo: k, hi: k + take})
			n, k = n+take, k+take
		}
		if mi >= 0 {
			s.net.runs[ri] = parts
			s.net.msgs[mi].runs = ri
		}
	}
	return nil
}

// send takes the uplink's next send slot for a message to `to` and returns
// the pooled msgInject slot the caller fills, or -1 for an unknown peer,
// whose slot passes unused. When the uplink-pacing event fires, the network
// turns the message into a routed msgTxs with freshly sampled latency.
func (s *Supernode) send(to types.NodeID) int32 {
	at := s.net.Now()
	if s.sendCursor > at {
		at = s.sendCursor
	}
	at += sendSpacing
	s.sendCursor = at
	mi := s.net.msgTo(msgInject, s.node.ID(), to)
	if mi >= 0 {
		s.net.eng.AtHandler(at, s.net, uint64(mi))
	}
	return mi
}

// DrainTime returns the virtual time at which the injection queue empties.
func (s *Supernode) DrainTime() float64 {
	if s.sendCursor > s.net.Now() {
		return s.sendCursor
	}
	return s.net.Now()
}

// Now returns the network's virtual time.
func (s *Supernode) Now() float64 { return s.net.Now() }

// Wait advances virtual time by d seconds.
func (s *Supernode) Wait(d float64) { s.net.RunFor(d) }

// WaitDrained runs until the injection queue has emptied, then d seconds
// more; a negative d waits out the latency cap plus half a second, by when
// every injected delivery has landed.
func (s *Supernode) WaitDrained(d float64) {
	if drain := s.DrainTime(); drain > s.net.Now() {
		s.net.eng.RunUntil(drain)
	}
	if d < 0 {
		d = s.net.cfg.LatencyMax + 0.5
	}
	s.net.RunFor(d)
}

// Sightings returns the deliveries and announcements of h at or after since,
// in arrival order: none unless h was injected since the last Retire. The
// slice aliases the log: it is valid until the network next runs.
func (s *Supernode) Sightings(h types.Hash, since float64) []gossip.Sighting {
	log := s.seen[h]
	i := sort.Search(len(log), func(i int) bool { return log[i].At >= since })
	return log[i:len(log):len(log)]
}

// Peers returns the responsive nodes linked to the supernode, in creation
// order.
func (s *Supernode) Peers() []types.NodeID {
	var out []types.NodeID
	for _, nd := range s.net.nodes {
		if !nd.cfg.Unresponsive && nd.peerPos(s.node.id) >= 0 {
			out = append(out, nd.id)
		}
	}
	return out
}

// Holds asks node id over RPC whether its pool buffers tx; an unresponsive
// node answers nothing.
func (s *Supernode) Holds(id types.NodeID, tx *types.Transaction) bool {
	nd := s.net.node(id)
	if nd == nil {
		return false
	}
	held, err := nd.RPC().HasTransaction(tx)
	return err == nil && held
}

// Reaches reports whether id is a node of the network: the supernode can
// inject into any of them.
func (s *Supernode) Reaches(id types.NodeID) bool { return s.net.node(id) != nil }

// Hop returns half a flush interval plus one typical link latency. A mark's
// earliest evidence comes from a push-path neighbor (the target's flush, a
// hop, the neighbor's flush, a hop); a same-hop sibling trails it by
// push/announce path choice and latency jitter, while the fastest two-hop
// chain trails its relay by at least another flush interval plus a hop. This
// window splits those populations as well as timing alone can.
func (s *Supernode) Hop() float64 {
	return flushInterval/2 + latencyBase + s.net.cfg.LatencyTail
}

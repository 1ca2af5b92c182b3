package ethsim

import (
	"sort"

	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// Supernode is the instrumented measurement node M: it connects to every
// node, records every transaction delivery with its source peer, never
// relays anything, and can inject arbitrary transactions — including future
// transactions, which a stock client would refuse to propagate — to chosen
// peers. This mirrors the paper's statically instrumented Geth client (§5.1).
type Supernode struct {
	node *Node
	net  *Network

	// sendCursor serializes outgoing injections on the supernode's uplink.
	sendCursor float64

	byHash    map[types.Hash][]TxReceipt
	announced map[types.Hash][]TxReceipt

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
		node:      node,
		net:       n,
		byHash:    make(map[types.Hash][]TxReceipt),
		announced: make(map[types.Hash][]TxReceipt),
		shadow:    shadow,
	}
	node.OnTxDelivered = func(r TxReceipt) {
		h := r.Tx.Hash()
		s.byHash[h] = append(s.byHash[h], r)
		s.shadow.Offer(r.Tx)
	}
	node.OnHashAnnounced = func(from types.NodeID, h types.Hash, at float64) {
		s.announced[h] = append(s.announced[h], TxReceipt{From: from, At: at})
	}
	n.AddJanitorHook(func(now float64) { s.shadow.SetTime(now) })
	n.supers = append(n.supers, s)
	return s
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

// Node returns the underlying node.
func (s *Supernode) Node() *Node { return s.node }

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
// InjectBatchSize and consecutive messages are spaced by the configured
// SendSpacing, so injecting thousands of future transactions takes
// proportional virtual time — the uplink serialization that makes large
// parallel groups slower to set up (Figures 4b and 5).
func (s *Supernode) Inject(to types.NodeID, txs ...*types.Transaction) {
	spacing := s.net.cfg.SendSpacing
	src := s.node.ID()
	for len(txs) > 0 {
		n := InjectBatchSize
		if n > len(txs) {
			n = len(txs)
		}
		at := s.net.Now()
		if s.sendCursor > at {
			at = s.sendCursor
		}
		at += spacing
		s.sendCursor = at
		// The batch rides a pooled msgInject slot: when the uplink-pacing
		// event fires, the network turns it into a routed msgTxs with
		// freshly sampled latency — the same two-stage timing as before,
		// without a closure or batch copy per message.
		if mi := s.net.msgTo(msgInject, src, to); mi >= 0 {
			m := &s.net.msgs[mi]
			m.txs = append(m.txs[:0], txs[:n]...)
			s.net.eng.AtHandler(at, s.net, uint64(mi))
		}
		txs = txs[n:]
	}
}

// DrainTime returns the virtual time at which the injection queue empties.
func (s *Supernode) DrainTime() float64 {
	if s.sendCursor > s.net.Now() {
		return s.sendCursor
	}
	return s.net.Now()
}

// Observations returns the receipts recorded for a transaction hash.
func (s *Supernode) Observations(h types.Hash) []TxReceipt {
	return s.byHash[h]
}

// ObservedFrom reports whether the supernode received the transaction h from
// the given peer at or after time t — the Step-4 check of the primitive.
func (s *Supernode) ObservedFrom(peer types.NodeID, h types.Hash, t float64) bool {
	for _, r := range s.byHash[h] {
		if r.From == peer && r.At >= t {
			return true
		}
	}
	return false
}

// Observed reports whether the supernode has seen h from anyone since t.
func (s *Supernode) Observed(h types.Hash, t float64) bool {
	for _, r := range s.byHash[h] {
		if r.At >= t {
			return true
		}
	}
	return false
}

// Verdict classifies one Step-4 observation: whether the proving txA
// reached M exclusively through the sink, and if not, what went wrong.
type Verdict uint8

const (
	// VerdictTimeout: txA never reached M from anyone — the replacement was
	// not observed within the settle window.
	VerdictTimeout Verdict = iota
	// VerdictDetected: txA arrived from the sink and from no one else — the
	// sound detection that proves the link.
	VerdictDetected
	// VerdictIsolationViolated: txA arrived from the sink but another peer
	// delivered or advertised it too — isolation broke, so the observation is
	// discarded (the conservative filter that keeps precision at 100%).
	VerdictIsolationViolated
	// VerdictReplacedElsewhere: txA reached M only through peers other than
	// the sink — the replacement propagated along some other path.
	VerdictReplacedElsewhere
)

// Detected reports whether the verdict counts as a sound link detection.
func (v Verdict) Detected() bool { return v == VerdictDetected }

// String renders the verdict as its trace-attribute spelling.
func (v Verdict) String() string {
	switch v {
	case VerdictDetected:
		return "detected"
	case VerdictIsolationViolated:
		return "isolation-violated"
	case VerdictReplacedElsewhere:
		return "replaced-elsewhere"
	}
	return "timeout"
}

// VerdictFor classifies the receipts for h since t against the expected sink
// peer — the Step-4 decision with its failure reason preserved. Announcements
// from other peers count as evidence of possession, exactly as in
// ObservedOnlyFrom.
func (s *Supernode) VerdictFor(peer types.NodeID, h types.Hash, t float64) Verdict {
	fromSink, fromOthers := false, false
	for _, r := range s.byHash[h] {
		if r.At < t {
			continue
		}
		if r.From == peer {
			fromSink = true
		} else {
			fromOthers = true
		}
	}
	for _, r := range s.announced[h] {
		if r.At >= t && r.From != peer {
			fromOthers = true
		}
	}
	switch {
	case fromSink && !fromOthers:
		return VerdictDetected
	case fromSink:
		return VerdictIsolationViolated
	case fromOthers:
		return VerdictReplacedElsewhere
	}
	return VerdictTimeout
}

// ObservedOnlyFrom reports whether the supernode received h since t from
// the given peer and from no one else — counting announcements as evidence
// of possession too. In a sound TopoShot measurement the proving txA
// reaches M exclusively through the sink; any other peer delivering or
// advertising it means isolation broke and the observation must be
// discarded. VerdictFor exposes the full classification.
func (s *Supernode) ObservedOnlyFrom(peer types.NodeID, h types.Hash, t float64) bool {
	return s.VerdictFor(peer, h, t).Detected()
}

// PeerTime is one peer's earliest possession evidence for a transaction
// hash, as observed by the supernode.
type PeerTime struct {
	Peer types.NodeID
	// At is the virtual time of the peer's first delivery or announcement.
	At float64
	// Pushed reports whether that first evidence was a full-transaction
	// delivery rather than a hash announcement. A peer that relays a
	// transaction picks ⌈√d⌉ of its d neighbors for direct push and announces
	// to the rest, so over many transactions the push share observed at the
	// supernode estimates 1/√d — the redundancy signal Ethna's degree
	// inference counts.
	Pushed bool
}

// PossessionTimes returns, for every peer that delivered or announced h at
// or after `since`, the time and kind of its earliest evidence, sorted by
// (time, peer id). It is the per-peer mark-attribution hook: DEthna ranks
// these arrival times to separate the injection target's direct neighbors
// (one gossip hop behind the target) from the rest of the network.
func (s *Supernode) PossessionTimes(h types.Hash, since float64) []PeerTime {
	first := make(map[types.NodeID]PeerTime)
	for _, r := range s.byHash[h] {
		if r.At < since {
			continue
		}
		if cur, ok := first[r.From]; !ok || r.At < cur.At {
			first[r.From] = PeerTime{Peer: r.From, At: r.At, Pushed: true}
		}
	}
	for _, r := range s.announced[h] {
		if r.At < since {
			continue
		}
		if cur, ok := first[r.From]; !ok || r.At < cur.At {
			first[r.From] = PeerTime{Peer: r.From, At: r.At, Pushed: false}
		}
	}
	out := make([]PeerTime, 0, len(first))
	for _, pt := range first {
		out = append(out, pt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Peer < out[j].Peer
	})
	return out
}

// PossessedBy reports whether peer delivered or announced h at/after t —
// the loose observation the TxProbe baseline relies on (Bitcoin-style INV
// watching).
func (s *Supernode) PossessedBy(peer types.NodeID, h types.Hash, t float64) bool {
	for _, r := range s.byHash[h] {
		if r.From == peer && r.At >= t {
			return true
		}
	}
	for _, r := range s.announced[h] {
		if r.From == peer && r.At >= t {
			return true
		}
	}
	return false
}

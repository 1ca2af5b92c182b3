package node

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"toposhot/internal/core"
	"toposhot/internal/gossip"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// DefaultProbeParams returns the measurement parameters for live nodes on
// localhost whose pools hold capacity transactions: Z fills one such pool, and
// X and SettleTime (seconds) are far below the paper's internet-scale X=10 s.
// Y is set because a live vantage keeps no pool to estimate it from.
func DefaultProbeParams(capacity int) core.Params {
	return core.Params{Y: types.Gwei, Z: capacity, X: 0.75, SettleTime: 0.75, InterNodeWait: -1}
}

// loopbackHop is Hop on localhost in seconds. A live node relays as it
// admits, with no flush interval, and a loopback link has no latency, so one
// hop is a frame written, read and admitted: successive peers' first
// evidences of a mark land 0.04–0.3 ms apart (8 nodes, 2-core Linux VM), and
// a whole flood within a millisecond. Timing hardly separates hops here.
const loopbackHop = 0.0001

// Vantage is the live measurement node M, core.Vantage on wall time: a
// NoForward node that logs every delivery and announcement of a hash it
// injected since the last Retire, so core.NewMeasurerAt probes TCP peers with
// the code that probes the simulator. A peer's id is its index in order of
// first contact.
type Vantage struct {
	node  *Node
	start time.Time

	mu    sync.Mutex
	addrs []string // id → peer address
	// watched holds the hashes Inject sent since the last Retire; seen logs
	// their sightings in arrival order.
	watched map[types.Hash]struct{}
	seen    map[types.Hash][]gossip.Sighting
	// sent holds the addresses injected into since the last drain.
	sent []string
}

var _ core.Vantage = (*Vantage)(nil)

// NewVantage starts a vantage listening on an ephemeral localhost port.
func NewVantage(networkID uint64, seed int64) (*Vantage, error) {
	n, err := Start(Config{
		ClientVersion: "toposhot-vantage/v1.0",
		NetworkID:     networkID,
		Policy:        txpool.Geth.WithCapacity(1 << 20),
		MaxPeers:      1 << 16,
		NoForward:     true,
		Seed:          seed,
	}, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return watch(n), nil
}

// watch makes n a vantage's node.
func watch(n *Node) *Vantage {
	v := &Vantage{node: n, start: time.Now(),
		watched: make(map[types.Hash]struct{}), seen: make(map[types.Hash][]gossip.Sighting)}
	n.mu.Lock()
	n.onSeen = v.record
	n.mu.Unlock()
	return v
}

// record logs the watched ones among hashes delivered (pushed) or announced
// by the peer at addr.
func (v *Vantage) record(addr string, hashes []types.Hash, pushed bool) {
	at := v.Now()
	v.mu.Lock()
	defer v.mu.Unlock()
	id := v.id(addr)
	for _, h := range hashes {
		if _, ok := v.watched[h]; ok {
			v.seen[h] = append(v.seen[h], gossip.Sighting{At: at, Peer: id, Pushed: pushed})
		}
	}
}

// id returns the id of the peer at addr, the next one on first contact; the
// caller holds v.mu.
func (v *Vantage) id(addr string) types.NodeID {
	i := slices.Index(v.addrs, addr)
	if i < 0 {
		i = len(v.addrs)
		v.addrs = append(v.addrs, addr)
	}
	return types.NodeID(i)
}

// Dial connects M to the node listening at addr (one started by Start, or a
// cmd/toposhotd) and returns its id.
func (v *Vantage) Dial(addr string) (types.NodeID, error) {
	registered, err := v.node.dial(addr)
	if err != nil {
		return 0, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.id(registered), nil
}

// Close shuts the vantage's node down.
func (v *Vantage) Close() error { return v.node.Close() }

// Now returns the wall seconds since the vantage started.
func (v *Vantage) Now() float64 { return time.Since(v.start).Seconds() }

// Wait sleeps d seconds.
func (v *Vantage) Wait(d float64) { time.Sleep(time.Duration(d * float64(time.Second))) }

// WaitDrained sleeps d seconds: nothing queues at M, since Inject returns
// once its frame is written. A negative d is a barrier instead: an empty
// GetPooledTransactions round trip to every peer injected into since the
// last drain. A peer reads its frames in order and admits a Transactions
// frame before it reads the next, so its answer proves everything sent to it
// has landed in its pool.
func (v *Vantage) WaitDrained(d float64) {
	if d >= 0 {
		v.Wait(d)
		return
	}
	v.mu.Lock()
	sent := v.sent
	v.sent = nil
	v.mu.Unlock()
	for _, addr := range sent {
		_, _ = v.node.query(addr, nil) // a dropped peer has nothing left to land
	}
}

// Inject watches txs, then writes them to peer `to` in one Transactions
// frame: a peer's echo cannot arrive before its hash is watched.
func (v *Vantage) Inject(to types.NodeID, txs ...*types.Transaction) error {
	v.mu.Lock()
	for _, tx := range txs {
		v.watched[tx.Hash()] = struct{}{}
	}
	v.mu.Unlock()
	return v.send(to, txs)
}

// InjectRuns builds the members of runs and writes them in one Transactions
// frame (the wire carries objects), watching none of them.
func (v *Vantage) InjectRuns(to types.NodeID, runs ...*types.Run) error {
	var txs []*types.Transaction
	for _, r := range runs {
		for k := 0; k < r.Count; k++ {
			txs = append(txs, r.Tx(k))
		}
	}
	return v.send(to, txs)
}

// send writes txs to peer `to` in one Transactions frame, marking the peer
// for the next drain.
func (v *Vantage) send(to types.NodeID, txs []*types.Transaction) error {
	addr, err := v.addr(to)
	if err != nil {
		return err
	}
	v.mu.Lock()
	if !slices.Contains(v.sent, addr) {
		v.sent = append(v.sent, addr)
	}
	v.mu.Unlock()
	return v.node.SendTo(addr, txs)
}

// Retire unwatches every hash and empties the sighting log.
func (v *Vantage) Retire() {
	v.mu.Lock()
	defer v.mu.Unlock()
	clear(v.watched)
	clear(v.seen)
}

// Sightings returns a copy of h's sightings at or after since.
func (v *Vantage) Sightings(h types.Hash, since float64) []gossip.Sighting {
	v.mu.Lock()
	defer v.mu.Unlock()
	var out []gossip.Sighting
	for _, s := range v.seen[h] {
		if s.At >= since {
			out = append(out, s)
		}
	}
	return out
}

// Peers returns every peer M has dialed or heard from, in id order.
func (v *Vantage) Peers() []types.NodeID {
	v.mu.Lock()
	defer v.mu.Unlock()
	ids := make([]types.NodeID, len(v.addrs))
	for i := range ids {
		ids[i] = types.NodeID(i)
	}
	return ids
}

// Holds asks peer id for tx with a GetPooledTransactions round trip. The
// answer is the query's alone: it never reaches the sighting log, where the
// source's copy of txA would read as a broken isolation.
func (v *Vantage) Holds(id types.NodeID, tx *types.Transaction) bool {
	addr, err := v.addr(id)
	if err != nil {
		return false
	}
	h := tx.Hash()
	txs, err := v.node.query(addr, []types.Hash{h})
	return err == nil && slices.ContainsFunc(txs, func(got *types.Transaction) bool { return got.Hash() == h })
}

// Hop returns loopbackHop.
func (v *Vantage) Hop() float64 { return loopbackHop }

// Reaches reports whether id is one of Peers.
func (v *Vantage) Reaches(id types.NodeID) bool {
	_, err := v.addr(id)
	return err == nil
}

// addr returns peer id's address.
func (v *Vantage) addr(id types.NodeID) (string, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if int(id) >= len(v.addrs) {
		return "", fmt.Errorf("node: no peer %v", id)
	}
	return v.addrs[id], nil
}

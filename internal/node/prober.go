package node

import (
	"fmt"
	"sync"
	"time"

	"toposhot/internal/core"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// DefaultProbeParams returns the measurement parameters for live nodes on
// localhost whose pools hold capacity transactions: Z fills one such pool, and
// X and SettleTime (seconds) are far below the paper's internet-scale X=10 s.
// Y must be set: the live prober does not estimate it.
func DefaultProbeParams(capacity int) core.Params {
	return core.Params{Y: types.Gwei, Z: capacity, BumpMil: 100, U: 4096, X: 0.75, SettleTime: 0.75}
}

// Prober is the live measurement node M: a NoForward node that records
// every delivery with its source peer and injects raw transactions.
type Prober struct {
	node *Node

	mu      sync.Mutex
	seen    map[types.Hash][]sighting
	acctSeq uint64
}

// sighting is one peer's evidence of holding a transaction: a delivery or a
// hash announcement.
type sighting struct {
	fromAddr string
	at       time.Time
}

// NewProber starts a prober listening on an ephemeral port.
func NewProber(networkID uint64, seed int64) (*Prober, error) {
	p := &Prober{seen: make(map[types.Hash][]sighting)}
	n, err := Start(Config{
		ClientVersion: "toposhot-prober/v1.0",
		NetworkID:     networkID,
		Policy:        txpool.Geth.WithCapacity(1 << 20),
		MaxPeers:      1 << 16,
		NoForward:     true,
		Seed:          seed,
	}, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.watch(n)
	return p, nil
}

// watch records every delivery and every announcement n receives, with the
// peer it came from.
func (p *Prober) watch(n *Node) {
	p.node = n
	n.onSeen = func(fromAddr string, hashes []types.Hash) {
		at := time.Now()
		p.mu.Lock()
		for _, h := range hashes {
			p.seen[h] = append(p.seen[h], sighting{fromAddr: fromAddr, at: at})
		}
		p.mu.Unlock()
	}
}

// Node returns the underlying node.
func (p *Prober) Node() *Node { return p.node }

// Close shuts the prober down.
func (p *Prober) Close() error { return p.node.Close() }

// Dial connects the prober to a target node's listen address.
func (p *Prober) Dial(addr string) error { return p.node.Dial(addr) }

func (p *Prober) freshAccount() types.Address {
	p.mu.Lock()
	p.acctSeq++
	seq := p.acctSeq
	p.mu.Unlock()
	return types.AddressFromUint64(0xcafe<<40 | seq)
}

// detected is the Step-4 decision: since t, the sink delivered or announced h
// and no other peer did. Evidence from anyone else means isolation broke, and
// the observation is discarded, as ethsim.Supernode.VerdictFor does: that
// filter is what keeps precision at 100%.
func (p *Prober) detected(sink string, h types.Hash, t time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	fromSink := false
	for _, s := range p.seen[h] {
		if s.at.Before(t) {
			continue
		}
		if s.fromAddr != sink {
			return false
		}
		fromSink = true
	}
	return fromSink
}

// mintFutures builds z futures at the given price over ⌈z/U⌉ accounts.
func (p *Prober) mintFutures(z int, price uint64, u int) []*types.Transaction {
	u = max(u, 1)
	txs := make([]*types.Transaction, 0, z)
	for len(txs) < z {
		acct := p.freshAccount()
		for i := 0; i < u && len(txs) < z; i++ {
			txs = append(txs, types.NewTransaction(acct, p.freshAccount(), uint64(i+1), price, 0))
		}
	}
	return txs
}

// sendChunked pushes txs to a peer in wire-friendly chunks.
func (p *Prober) sendChunked(addr string, txs []*types.Transaction) error {
	const chunk = 256
	for len(txs) > 0 {
		n := min(chunk, len(txs))
		if err := p.node.SendTo(addr, txs[:n]); err != nil {
			return err
		}
		txs = txs[n:]
	}
	return nil
}

// MeasureOneLink runs the four-step primitive of §5.2 over live TCP against
// the peers at addresses a and b (the prober must already be dialed into
// both) and reports whether the active link was detected. It reads Y, Z,
// BumpMil, U, X and SettleTime from params; times are seconds.
func (p *Prober) MeasureOneLink(a, b string, params core.Params) (bool, error) {
	acct := p.freshAccount()
	dest := p.freshAccount()
	txC := types.NewTransaction(acct, dest, 0, params.PriceTxC(params.Y), 0)
	txB := types.NewTransaction(acct, dest, 0, params.PriceTxB(params.Y), 0)
	txA := types.NewTransaction(acct, dest, 0, params.PriceTxA(params.Y), 0)
	x := time.Duration(params.X * float64(time.Second))

	// Step 1: plant txC on A, wait X for the flood.
	if err := p.node.SendTo(a, []*types.Transaction{txC}); err != nil {
		return false, fmt.Errorf("step1: %w", err)
	}
	time.Sleep(x)

	// Step 2: fill B with futures, plant txB.
	if err := p.sendChunked(b, p.mintFutures(params.Z, params.PriceFuture(params.Y), params.U)); err != nil {
		return false, fmt.Errorf("step2: %w", err)
	}
	if err := p.node.SendTo(b, []*types.Transaction{txB}); err != nil {
		return false, fmt.Errorf("step2: %w", err)
	}
	time.Sleep(x / 2)

	// Step 3: fill A with futures, plant txA.
	if err := p.sendChunked(a, p.mintFutures(params.Z, params.PriceFuture(params.Y), params.U)); err != nil {
		return false, fmt.Errorf("step3: %w", err)
	}
	mark := time.Now()
	if err := p.node.SendTo(a, []*types.Transaction{txA}); err != nil {
		return false, fmt.Errorf("step3: %w", err)
	}

	// Step 4: wait out the settle window, then look for txA from B alone.
	time.Sleep(time.Duration(params.SettleTime * float64(time.Second)))
	return p.detected(b, txA.Hash(), mark), nil
}

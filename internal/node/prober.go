package node

import (
	"fmt"
	"sync"
	"time"

	"toposhot/internal/core"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// ProbeParams configures a live-TCP TopoShot measurement. Times are real
// durations; on a LAN or localhost they can be far below the paper's
// internet-scale X=10 s.
type ProbeParams struct {
	// Y is txC's gas price in Wei.
	Y uint64
	// Z is the number of future transactions per fill.
	Z int
	// BumpMil is the target client's replacement threshold (Geth: 100).
	BumpMil uint64
	// U is the per-account future allowance.
	U int
	// X is the txC propagation wait.
	X time.Duration
	// Settle is the Step-4 detection wait.
	Settle time.Duration
}

// DefaultProbeParams returns localhost-friendly parameters matched to a
// pool of the given capacity.
func DefaultProbeParams(capacity int) ProbeParams {
	return ProbeParams{
		Y:       types.Gwei,
		Z:       capacity,
		BumpMil: 100,
		U:       4096,
		X:       750 * time.Millisecond,
		Settle:  750 * time.Millisecond,
	}
}

// Prober is the live measurement node M: a NoForward node that records
// every delivery with its source peer and injects raw transactions.
type Prober struct {
	node *Node

	mu      sync.Mutex
	obs     map[types.Hash][]obs
	acctSeq uint64
}

type obs struct {
	fromAddr string
	at       time.Time
}

// NewProber starts a prober listening on an ephemeral port.
func NewProber(networkID uint64, seed int64) (*Prober, error) {
	p := &Prober{obs: make(map[types.Hash][]obs)}
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
	n.OnTx = func(fromAddr, fromVersion string, tx *types.Transaction) {
		p.mu.Lock()
		p.obs[tx.Hash()] = append(p.obs[tx.Hash()], obs{fromAddr: fromAddr, at: time.Now()})
		p.mu.Unlock()
	}
	p.node = n
	return p, nil
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

// observedFrom reports whether tx h arrived from the given peer after t.
func (p *Prober) observedFrom(addr string, h types.Hash, t time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, o := range p.obs[h] {
		if o.fromAddr == addr && !o.at.Before(t) {
			return true
		}
	}
	return false
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
// both) and reports whether the active link was detected.
func (p *Prober) MeasureOneLink(a, b string, params ProbeParams) (bool, error) {
	price := core.Params{BumpMil: params.BumpMil} // the simulator measurer's (1+R) prices
	acct := p.freshAccount()
	dest := p.freshAccount()
	txC := types.NewTransaction(acct, dest, 0, price.PriceTxC(params.Y), 0)
	txB := types.NewTransaction(acct, dest, 0, price.PriceTxB(params.Y), 0)
	txA := types.NewTransaction(acct, dest, 0, price.PriceTxA(params.Y), 0)

	// Step 1: plant txC on A, wait X for the flood.
	if err := p.node.SendTo(a, []*types.Transaction{txC}); err != nil {
		return false, fmt.Errorf("step1: %w", err)
	}
	time.Sleep(params.X)

	// Step 2: fill B with futures, plant txB.
	if err := p.sendChunked(b, p.mintFutures(params.Z, price.PriceFuture(params.Y), params.U)); err != nil {
		return false, fmt.Errorf("step2: %w", err)
	}
	if err := p.node.SendTo(b, []*types.Transaction{txB}); err != nil {
		return false, fmt.Errorf("step2: %w", err)
	}
	time.Sleep(params.X / 2)

	// Step 3: fill A with futures, plant txA.
	if err := p.sendChunked(a, p.mintFutures(params.Z, price.PriceFuture(params.Y), params.U)); err != nil {
		return false, fmt.Errorf("step3: %w", err)
	}
	mark := time.Now()
	if err := p.node.SendTo(a, []*types.Transaction{txA}); err != nil {
		return false, fmt.Errorf("step3: %w", err)
	}

	// Step 4: watch for txA arriving from B.
	deadline := time.Now().Add(params.Settle)
	for time.Now().Before(deadline) {
		if p.observedFrom(b, txA.Hash(), mark) {
			return true, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return p.observedFrom(b, txA.Hash(), mark), nil
}

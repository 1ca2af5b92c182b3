package node

import (
	"testing"
	"time"

	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// TestProberIsolationRule feeds the prober's observation log through the
// node's delivery and announcement handlers: txA from the sink alone proves
// the link; txA also delivered or announced by another peer broke isolation
// and must be discarded, as the simulator's supernode does.
func TestProberIsolationRule(t *testing.T) {
	sink, other := &peer{addr: "10.0.0.2:30303"}, &peer{addr: "10.0.0.3:30303"}
	txA := types.NewTransaction(types.AddressFromUint64(1), types.AddressFromUint64(2), 0, types.Gwei, 0)
	deliver := func(p *peer) func(*Node) {
		return func(n *Node) { n.handleTxs(p, []*types.Transaction{txA}) }
	}
	announce := func(p *peer) func(*Node) {
		return func(n *Node) { n.handleAnnounce(p, []types.Hash{txA.Hash()}) }
	}
	for _, tc := range []struct {
		name string
		feed []func(*Node)
		want bool
	}{
		{"sink delivers alone", []func(*Node){deliver(sink)}, true},
		{"sink announces alone", []func(*Node){announce(sink)}, true},
		{"another peer delivers too", []func(*Node){deliver(sink), deliver(other)}, false},
		{"another peer announces too", []func(*Node){deliver(sink), announce(other)}, false},
		{"only another peer", []func(*Node){announce(other)}, false},
	} {
		n := &Node{
			cfg:  Config{NoForward: true},
			pool: txpool.New(txpool.Geth.WithCapacity(16)),
			now:  func() float64 { return 0 },
		}
		p := &Prober{seen: make(map[types.Hash][]sighting)}
		p.watch(n)
		// Evidence from before the mark belongs to an earlier probe. It also
		// pools txA, so no announcement below sends a request.
		deliver(other)(n)
		time.Sleep(time.Millisecond)
		mark := time.Now()
		for _, f := range tc.feed {
			f(n)
		}
		if got := p.detected(sink.addr, txA.Hash(), mark); got != tc.want {
			t.Errorf("%s: detected = %v, want %v", tc.name, got, tc.want)
		}
	}
}

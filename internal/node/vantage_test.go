package node

import (
	"testing"
	"time"

	"toposhot/internal/core"
	"toposhot/internal/gossip"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// TestVantageIsolationRule feeds core's TestVerdictReasons cases through the
// live node's delivery and announcement handlers: the vantage's sighting log
// must give the verdict the same sightings give the pure decision, so the
// wire and the simulator judge one piece of evidence alike. A lone
// announcement from the sink is not a detection on either side.
func TestVantageIsolationRule(t *testing.T) {
	sink, other := &peer{addr: "10.0.0.2:30303"}, &peer{addr: "10.0.0.3:30303"}
	txA := types.NewTransaction(types.AddressFromUint64(1), types.AddressFromUint64(2), 0, types.Gwei, 0)
	type event struct {
		from   *peer
		pushed bool
	}
	deliver := func(p *peer) event { return event{p, true} }
	announce := func(p *peer) event { return event{p, false} }
	for _, tc := range []struct {
		name string
		feed []event
		want core.Verdict
	}{
		{"nothing", nil, core.VerdictTimeout},
		{"sink delivers alone", []event{deliver(sink)}, core.VerdictDetected},
		{"sink announces alone", []event{announce(sink)}, core.VerdictTimeout},
		{"sink announces, then delivers", []event{announce(sink), deliver(sink)}, core.VerdictDetected},
		{"another peer delivers too", []event{deliver(sink), deliver(other)}, core.VerdictIsolationViolated},
		{"another peer announces too", []event{deliver(sink), announce(other)}, core.VerdictIsolationViolated},
		{"only another peer delivers", []event{deliver(other)}, core.VerdictReplacedElsewhere},
		{"only another peer announces", []event{announce(other)}, core.VerdictReplacedElsewhere},
		{"sink announces, another delivers", []event{announce(sink), deliver(other)}, core.VerdictReplacedElsewhere},
	} {
		n := &Node{
			cfg:  Config{NoForward: true},
			pool: txpool.New(txpool.Geth.WithCapacity(16)),
			now:  func() float64 { return 0 },
		}
		v := watch(n)
		v.mu.Lock()
		sinkID, otherID := v.id(sink.addr), v.id(other.addr)
		v.mu.Unlock()
		// Evidence from before the mark belongs to an earlier probe. It also
		// pools txA, so no announcement below sends a request.
		n.handleTxs(other, []*types.Transaction{txA})
		time.Sleep(time.Millisecond)
		mark := v.Now()
		var direct []gossip.Sighting
		for _, e := range tc.feed {
			id := otherID
			if e.from == sink {
				id = sinkID
			}
			direct = append(direct, gossip.Sighting{At: mark, Peer: id, Pushed: e.pushed})
			if e.pushed {
				n.handleTxs(e.from, []*types.Transaction{txA})
			} else {
				n.handleAnnounce(e.from, []types.Hash{txA.Hash()})
			}
		}
		live := core.VerdictOf(sinkID, v.Sightings(txA.Hash(), mark))
		if pure := core.VerdictOf(sinkID, direct); live != pure || live != tc.want {
			t.Errorf("%s: live verdict %v, pure verdict %v, want %v", tc.name, live, pure, tc.want)
		}
	}
}

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
		// The vantage logs only what it injected. No connection backs the
		// ids, so the write fails, but txA is watched before it.
		if err := v.Inject(sinkID, txA); err == nil {
			t.Fatal("Inject to an unconnected peer succeeded")
		}
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

// TestVantageWatchRule: the live vantage logs a hash only from its Inject
// until the next Retire, as the supernode does. InjectRuns watches none of
// its members, and a hash nobody injected leaves no sighting.
func TestVantageWatchRule(t *testing.T) {
	n := &Node{
		cfg:  Config{NoForward: true},
		pool: txpool.New(txpool.Geth.WithCapacity(16)),
		now:  func() float64 { return 0 },
	}
	v := watch(n)
	from := &peer{addr: "10.0.0.2:30303"}
	v.mu.Lock()
	id := v.id(from.addr)
	v.mu.Unlock()
	probe := types.NewTransaction(types.AddressFromUint64(1), types.AddressFromUint64(2), 0, types.Gwei, 0)
	stranger := types.NewTransaction(types.AddressFromUint64(3), types.AddressFromUint64(4), 0, types.Gwei, 0)
	run := &types.Run{From: types.AddressFromUint64(5), Nonce: 1, Count: 2, Price: types.Gwei, ToSpace: types.SpaceTopoShot, ToSeq: 1}
	_ = v.Inject(id, probe)   // no connection: the write fails after the watch
	_ = v.InjectRuns(id, run) // likewise, and watches nothing
	txs := []*types.Transaction{probe, stranger, run.Tx(0), run.Tx(1)}
	hashes := []types.Hash{probe.Hash(), stranger.Hash(), run.Tx(0).Hash(), run.Tx(1).Hash()}
	// Every announced hash is pooled by then, so no announcement sends a
	// request.
	feed := func() {
		n.handleTxs(from, txs)
		n.handleAnnounce(from, hashes)
	}
	feed()
	if got := v.Sightings(probe.Hash(), 0); len(got) != 2 {
		t.Fatalf("injected hash: %d sightings, want a delivery and an announcement", len(got))
	}
	for _, h := range hashes[1:] {
		if got := v.Sightings(h, 0); len(got) != 0 {
			t.Errorf("hash %v, neither injected nor watched, logged: %v", h, got)
		}
	}
	v.Retire()
	if got := v.Sightings(probe.Hash(), 0); len(got) != 0 {
		t.Fatalf("Sightings after Retire = %v, want none", got)
	}
	feed()
	if got := v.Sightings(probe.Hash(), 0); len(got) != 0 {
		t.Fatalf("retired hash logged again: %v", got)
	}
}

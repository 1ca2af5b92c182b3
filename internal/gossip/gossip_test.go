package gossip

import (
	"slices"
	"testing"

	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

func TestPushCount(t *testing.T) {
	for _, c := range []struct{ peers, want int }{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {15, 4}, {16, 4}, {50, 8},
	} {
		if got := PushCount(c.peers, false); got != c.want {
			t.Errorf("PushCount(%d, false) = %d, want ⌈√%d⌉ = %d", c.peers, got, c.peers, c.want)
		}
		if got := PushCount(c.peers, true); got != c.peers {
			t.Errorf("PushCount(%d, true) = %d, want every peer", c.peers, got)
		}
	}
}

func newTx(from, nonce, price uint64) *types.Transaction {
	return types.NewTransaction(types.AddressFromUint64(from), types.AddressFromUint64(99), nonce, price, 0)
}

// TestPropagatable pins which admissions are relayed, for every pool status
// with futures forwarded and not. The offered transaction is not in the pool,
// so a StatusReplaced here is a replacement that no longer holds a pending
// slot; the pool-backed cases follow in TestPropagatableReplacement.
func TestPropagatable(t *testing.T) {
	pool := txpool.New(txpool.Geth.WithCapacity(16))
	tx, promoted := newTx(1, 0, types.Gwei), newTx(2, 1, types.Gwei)
	for s := txpool.StatusPending; s <= txpool.StatusOverAccountCap; s++ {
		for _, fwd := range []bool{false, true} {
			res := txpool.Result{Status: s, Promoted: []*types.Transaction{promoted}}
			relayed := s == txpool.StatusPending || (s == txpool.StatusFuture && fwd)
			want := []*types.Transaction{promoted}
			if relayed {
				want = []*types.Transaction{tx, promoted}
			}
			if got := Propagatable(nil, tx, res, pool, fwd); !slices.Equal(got, want) {
				t.Errorf("%v, forwardFutures=%v: relayed %d txs, want %d (tx relayed: %v)", s, fwd, len(got), len(want), relayed)
			}
		}
	}
}

// TestPropagatableReplacement: replacing a pending slot re-propagates the
// replacement (§1's speed-up), replacing a future slot does not.
func TestPropagatableReplacement(t *testing.T) {
	pool := txpool.New(txpool.Geth.WithCapacity(16))
	for _, c := range []struct {
		name    string
		nonce   uint64
		relayed bool
	}{{"pending slot", 0, true}, {"future slot", 5, false}} {
		if res := pool.Offer(newTx(7, c.nonce, types.Gwei)); !res.Status.Admitted() {
			t.Fatalf("%s: original refused: %v", c.name, res.Status)
		}
		bump := newTx(7, c.nonce, 2*types.Gwei)
		res := pool.Offer(bump)
		if res.Status != txpool.StatusReplaced {
			t.Fatalf("%s: replacement status %v", c.name, res.Status)
		}
		got := Propagatable(nil, bump, res, pool, false)
		if relayed := slices.Contains(got, bump); relayed != c.relayed {
			t.Errorf("%s: replacement relayed = %v, want %v", c.name, relayed, c.relayed)
		}
	}
}

// TestAnswer: a request is answered with what the pool still buffers, by
// object when the request carries the objects and by hash otherwise, and the
// reply is appended to dst.
func TestAnswer(t *testing.T) {
	pool := txpool.New(txpool.Geth.WithCapacity(16))
	held, gone := newTx(1, 0, types.Gwei), newTx(2, 0, types.Gwei)
	pool.Offer(held)
	hashes := []types.Hash{held.Hash(), gone.Hash()}
	prefix := newTx(3, 0, types.Gwei)
	for _, c := range []struct {
		name  string
		asked []*types.Transaction
	}{{"by object", []*types.Transaction{held, gone}}, {"by hash", nil}} {
		got := Answer([]*types.Transaction{prefix}, pool, hashes, c.asked)
		if want := []*types.Transaction{prefix, held}; !slices.Equal(got, want) {
			t.Errorf("%s: answered %d txs, want the dst prefix and the held tx", c.name, len(got))
		}
	}
}

// TestLocksFetch: an announced hash is fetched once per window and again
// after the window expires.
func TestLocksFetch(t *testing.T) {
	var l Locks
	h := types.BytesToHash([]byte{0xaa})
	for _, c := range []struct {
		now  float64
		want bool
	}{{0, true}, {1, false}, {4.9, false}, {5, true}, {9, false}, {10, true}} {
		if got := l.Fetch(h, c.now, AnnounceLock); got != c.want {
			t.Errorf("Fetch at t=%v = %v, want %v", c.now, got, c.want)
		}
	}
	var live int
	l.Live(func(types.Hash, float64) { live++ })
	if live != 1 {
		t.Fatalf("Live reported %d locks for one re-armed hash, want 1", live)
	}
}

// TestLocksSweepRing drives Sweep through the expiry-ordered ring directly:
// expired prefixes pop, a re-armed hash's stale ring entry is skipped (the
// map deadline is authoritative), and the dead prefix compacts away.
func TestLocksSweepRing(t *testing.T) {
	var l Locks
	h1 := types.BytesToHash([]byte{1})
	h2 := types.BytesToHash([]byte{2})
	h3 := types.BytesToHash([]byte{3})
	l.Arm(h1, 5)
	l.Arm(h2, 6)
	l.Arm(h3, 7)

	l.Sweep(5.5)
	if _, ok := l.until[h1]; ok {
		t.Fatal("expired lock h1 survived the sweep")
	}
	if _, ok := l.until[h2]; !ok {
		t.Fatal("live lock h2 swept early")
	}

	// Re-arm h3 with a later deadline, as Fetch does after expiry: the old
	// ring entry (until=7) goes stale but the map now says 12.
	l.Arm(h3, 12)

	l.Sweep(8)
	if until, ok := l.until[h3]; !ok || until != 12 {
		t.Fatalf("re-armed lock h3 deleted by its stale ring entry (lock=%v,%v)", until, ok)
	}
	if _, ok := l.until[h2]; ok {
		t.Fatal("expired lock h2 survived the sweep")
	}

	l.Sweep(12)
	if len(l.until) != 0 {
		t.Fatalf("locks remain after final sweep: %v", l.until)
	}
	if l.head != 0 || len(l.q) != 0 {
		t.Fatalf("drained ring not compacted: head=%d len=%d", l.head, len(l.q))
	}
}

package gossip

import (
	"bytes"
	"encoding/binary"
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

// lockOf returns h's lock deadline and whether h is locked: the map-backed
// table's until[h].
func lockOf(l *Locks, h types.Hash) (float64, bool) {
	if i := l.find(&h, types.SlotTag(h[:])); i >= 0 {
		return l.until(i), true
	}
	return 0, false
}

// TestLocksSweepRing drives Sweep through the expiry-ordered ring directly:
// expired prefixes pop, a re-armed hash's stale ring entry is skipped (the
// hash's current entry is authoritative), and the dead prefix compacts away.
func TestLocksSweepRing(t *testing.T) {
	var l Locks
	h1 := types.BytesToHash([]byte{1})
	h2 := types.BytesToHash([]byte{2})
	h3 := types.BytesToHash([]byte{3})
	l.Arm(h1, 5)
	l.Arm(h2, 6)
	l.Arm(h3, 7)

	l.Sweep(5.5)
	if _, ok := lockOf(&l, h1); ok {
		t.Fatal("expired lock h1 survived the sweep")
	}
	if _, ok := lockOf(&l, h2); !ok {
		t.Fatal("live lock h2 swept early")
	}

	// Re-arm h3 with a later deadline, as Fetch does after expiry: the old
	// ring entry (until=7) goes stale but h3's current entry now says 12.
	l.Arm(h3, 12)

	l.Sweep(8)
	if until, ok := lockOf(&l, h3); !ok || until != 12 {
		t.Fatalf("re-armed lock h3 deleted by its stale ring entry (lock=%v,%v)", until, ok)
	}
	if _, ok := lockOf(&l, h2); ok {
		t.Fatal("expired lock h2 survived the sweep")
	}

	l.Sweep(12)
	if l.idx.Len() != 0 {
		t.Fatalf("locks remain after final sweep: %d", l.idx.Len())
	}
	if l.head != 0 || len(l.q) != 0 {
		t.Fatalf("drained ring not compacted: head=%d len=%d", l.head, len(l.q))
	}
}

// TestLocksAdversarialKeys arms 20 000 hashes that share their first 24
// bytes, as a peer choosing the hashes it announces could: every lock must
// hold and expire, and no probe run may reach 64 slots. An index placing
// hashes by a prefix puts them all in one run.
func TestLocksAdversarialKeys(t *testing.T) {
	const n = 20000
	hashes := make([]types.Hash, n)
	for i := range hashes {
		hashes[i] = types.Hash{0: 0xee, 23: 0xee}
		binary.BigEndian.PutUint64(hashes[i][24:], uint64(i)*0x9e3779b97f4a7c15)
	}
	var l Locks
	for i, h := range hashes {
		if !l.Fetch(h, float64(i), AnnounceLock) {
			t.Fatalf("first announcement of hash %d found a lock", i)
		}
	}
	if run := longestRun(&l); run >= 64 {
		t.Fatalf("longest probe run is %d slots of %d, want < 64", run, len(l.idx.Slots))
	}
	// Hash i is locked over [i, i+w). A sweep at t drops those with i+w ≤ t,
	// and a Fetch at t+1 re-arms those with i+w ≤ t+1.
	const w, t0 = int(AnnounceLock), n / 2
	l.Sweep(t0)
	if want := n - (t0 - w + 1); l.idx.Len() != want {
		t.Fatalf("%d locks live after the sweep at t=%d, want %d", l.idx.Len(), t0, want)
	}
	for i, h := range hashes {
		if got, want := l.Fetch(h, t0+1, AnnounceLock), i+w <= t0+1; got != want {
			t.Fatalf("Fetch of hash %d at t=%d = %v, want %v", i, t0+1, got, want)
		}
	}
	l.Sweep(2 * n)
	if l.idx.Len() != 0 || longestRun(&l) != 0 {
		t.Fatalf("%d locks live after the last sweep", l.idx.Len())
	}
}

// longestRun returns the length of the longest run of occupied index slots.
func longestRun(l *Locks) int {
	longest, run := 0, 0
	for _, s := range append(l.idx.Slots, l.idx.Slots...) { // a run may wrap around the end
		if s.Tag == 0 {
			run = 0
			continue
		}
		run++
		longest = max(longest, min(run, len(l.idx.Slots)))
	}
	return longest
}

// mapLocks is the map-backed announce-lock table the index replaced, kept as
// FuzzLocks' reference: the map holds each hash's authoritative deadline and
// the ring its arms in order.
type mapLocks struct {
	until map[types.Hash]float64
	q     []lockEntry
	head  int
}

func (l *mapLocks) Fetch(h types.Hash, now, window float64) bool {
	if until, ok := l.until[h]; ok && now < until {
		return false
	}
	l.Arm(h, now+window)
	return true
}

func (l *mapLocks) Arm(h types.Hash, until float64) {
	if l.until == nil {
		l.until = make(map[types.Hash]float64)
	}
	l.until[h] = until
	l.q = append(l.q, lockEntry{h: h, until: until})
}

func (l *mapLocks) Live(fn func(h types.Hash, until float64)) {
	for _, e := range l.q[l.head:] {
		if cur, ok := l.until[e.h]; ok && cur == e.until {
			fn(e.h, e.until)
		}
	}
}

func (l *mapLocks) Sweep(now float64) {
	q, head := l.q, l.head
	for head < len(q) && now >= q[head].until {
		e := q[head]
		head++
		if cur, ok := l.until[e.h]; ok && now >= cur {
			delete(l.until, e.h)
		}
	}
	l.head = head
	if head > 0 && head*2 >= len(q) {
		l.q = q[:copy(q, q[head:])]
		l.head = 0
	}
}

// FuzzLocks drives the index-backed Locks and the map-backed reference with
// one operation stream and compares every Fetch result, every Live sequence
// and the live count. Each byte pair is an operation and its argument; the
// clock moves forward on every operation, so every arm has its own deadline
// and arms come in expiry order, as Locks requires. Keys are small integers
// (sharing 30 bytes) or, with the top bit of the argument, spread over all 32.
func FuzzLocks(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 2, 40, 0, 1, 3, 0})
	f.Add([]byte{1, 0x81, 1, 0x82, 0, 0x81, 2, 200, 3, 9, 1, 0x81, 2, 255, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var got Locks
		var want mapLocks
		now := 0.0
		for k := 0; k+1 < len(ops); k += 2 {
			op, arg := ops[k]%4, ops[k+1]
			now += 0.25 + float64(arg%8)/16
			h := types.BytesToHash([]byte{arg & 0x3f, 1})
			if arg&0x80 != 0 {
				h = types.BytesToHash(bytes.Repeat([]byte{arg, 0x5a}, 16))
				h[arg%32] ^= byte(k)
			}
			switch op {
			case 0:
				if g, w := got.Fetch(h, now, AnnounceLock), want.Fetch(h, now, AnnounceLock); g != w {
					t.Fatalf("op %d: Fetch(%x) at t=%v = %v, reference %v", k/2, h[:4], now, g, w)
				}
			case 1:
				got.Arm(h, now+AnnounceLock)
				want.Arm(h, now+AnnounceLock)
			case 2:
				now += float64(arg) / 16
				got.Sweep(now)
				want.Sweep(now)
			case 3:
				if g, w := liveOf(got.Live), liveOf(want.Live); !slices.Equal(g, w) {
					t.Fatalf("op %d: Live = %v, reference %v", k/2, g, w)
				}
			}
			if got.idx.Len() != len(want.until) {
				t.Fatalf("op %d: %d locks live, reference %d", k/2, got.idx.Len(), len(want.until))
			}
		}
	})
}

func liveOf(live func(func(types.Hash, float64))) []lockEntry {
	var out []lockEntry
	live(func(h types.Hash, until float64) { out = append(out, lockEntry{h: h, until: until}) })
	return out
}

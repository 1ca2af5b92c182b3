// Package gossip holds the transaction gossip rules the simulator
// (internal/ethsim) and the live TCP node (internal/node) share: who gets a
// push and who an announcement, what is relayed, which announced hashes are
// fetched, and what a request is answered with. It has no transport, clock or
// RNG: callers pass the time in seconds and draw the peer permutation.
package gossip

import (
	"math"

	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// AnnounceLock is the announcement-response window in seconds (Geth's 5 s):
// a node ignores re-announcements of a hash it requested for this long.
const AnnounceLock = 5.0

// Sighting is one peer's evidence, as a measurement node receives it, that the
// peer holds a transaction: a full delivery (Pushed) or a hash announcement,
// at At seconds on the measurement node's clock. The field order keeps it at
// 16 bytes.
type Sighting struct {
	At     float64
	Peer   types.NodeID
	Pushed bool
}

// PushCount returns how many slots of a propagation's peer permutation get the
// full transactions: ⌈√peers⌉ (Geth ≥ 1.9.11), or all under pushAll (legacy
// push-to-all). Slot i is a push iff i < PushCount, else an announcement; the
// source peer's slot is skipped, not refilled.
//
//toposhot:hotpath
func PushCount(peers int, pushAll bool) int {
	if pushAll {
		return peers
	}
	return int(math.Ceil(math.Sqrt(float64(peers))))
}

// Propagatable appends to out what admitting tx into pool (with result res)
// makes eligible for gossip: a new pending transaction, a replacement holding
// a pending slot (§1's "speed-up" relies on it), a future only when
// forwardFutures, and whatever the admission promoted.
//
//toposhot:hotpath
func Propagatable(out []*types.Transaction, tx *types.Transaction, res txpool.Result, pool *txpool.Pool, forwardFutures bool) []*types.Transaction {
	switch res.Status {
	case txpool.StatusPending:
		out = append(out, tx)
	case txpool.StatusReplaced:
		if pool.ContainsPending(tx) {
			out = append(out, tx)
		}
	case txpool.StatusFuture:
		if forwardFutures {
			out = append(out, tx)
		}
	}
	return append(out, res.Promoted...)
}

// Answer appends to dst the requested transactions the pool still buffers:
// by object (no hashing) when asked is parallel to hashes, else by hash.
//
//toposhot:hotpath
func Answer(dst []*types.Transaction, pool *txpool.Pool, hashes []types.Hash, asked []*types.Transaction) []*types.Transaction {
	if len(asked) == len(hashes) {
		for _, tx := range asked {
			if pool.Contains(tx) {
				dst = append(dst, tx)
			}
		}
		return dst
	}
	for _, h := range hashes {
		if tx := pool.Get(h); tx != nil {
			dst = append(dst, tx)
		}
	}
	return dst
}

// Locks is a node's announce-lock table. The zero value is empty and
// allocates its map on first arm, so idle nodes at mainnet scale carry none.
// The window is fixed, so arming order is expiry order: the ring q holds the
// locks in arming order and Sweep pops an expired prefix instead of scanning
// the map. A hash re-armed after expiry leaves a stale ring entry behind,
// which the map's authoritative deadline makes Sweep skip.
type Locks struct {
	until map[types.Hash]float64
	q     []lockEntry
	head  int
}

type lockEntry struct {
	h     types.Hash
	until float64
}

// Fetch reports whether an announcement of h at time now is to be requested:
// false while h's lock is live (a lock hit), else it arms the lock until
// now+window. Whether the pool already holds h is the caller's check.
//
//toposhot:hotpath
func (l *Locks) Fetch(h types.Hash, now, window float64) bool {
	if until, ok := l.until[h]; ok && now < until {
		return false
	}
	l.Arm(h, now+window)
	return true
}

// Arm locks h until the given time. Locks are armed in expiry order (Fetch
// does so; a checkpoint restore re-arms Live's output).
func (l *Locks) Arm(h types.Hash, until float64) {
	if l.until == nil {
		l.until = make(map[types.Hash]float64)
	}
	l.until[h] = until
	l.q = append(l.q, lockEntry{h: h, until: until})
}

// Live calls fn for every live lock in expiry order; re-arming the sequence
// rebuilds an equivalent table.
func (l *Locks) Live(fn func(h types.Hash, until float64)) {
	for _, e := range l.q[l.head:] {
		if cur, ok := l.until[e.h]; ok && cur == e.until {
			fn(e.h, e.until)
		}
	}
}

// Sweep drops the locks expired at now, amortized O(1) per armed lock.
//
//toposhot:hotpath
func (l *Locks) Sweep(now float64) {
	q, head := l.q, l.head
	for head < len(q) && now >= q[head].until {
		e := q[head]
		head++
		if cur, ok := l.until[e.h]; ok && now >= cur {
			delete(l.until, e.h)
		}
	}
	l.head = head
	// Compact once the dead prefix dominates the ring.
	if head > 0 && head*2 >= len(q) {
		l.q = q[:copy(q, q[head:])]
		l.head = 0
	}
}

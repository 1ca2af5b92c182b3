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
// allocates nothing until its first arm, so idle nodes at mainnet scale carry
// none. The window is fixed, so arming order is expiry order: the ring q holds
// every arm in order and Sweep pops an expired prefix instead of scanning the
// table. A hash re-armed after expiry leaves a stale ring entry behind, which
// Sweep and Live tell from the hash's current entry, its latest arm.
//
// The index idx (a types.SlotIndex) finds a hash's current entry without a
// Go map: each slot holds a tag of all 32 hash bytes and the entry's ring
// number. A ring number counts arms (mod 2³²) and q[i] has number base+i;
// compaction advances base, so no slot is rewritten.
type Locks struct {
	q    []lockEntry
	head int
	base uint32
	idx  types.SlotIndex
}

type lockEntry struct {
	h     types.Hash
	until float64
}

// find returns the index slot of h's current entry, whose tag is given, or
// -1 when h holds no lock.
//
//toposhot:hotpath
func (l *Locks) find(h *types.Hash, tag uint32) int {
	if len(l.idx.Slots) == 0 {
		return -1
	}
	mask := len(l.idx.Slots) - 1
	for i := int(tag) & mask; ; i = (i + 1) & mask {
		s := l.idx.Slots[i]
		if s.Tag == 0 {
			return -1
		}
		if s.Tag == tag && l.q[s.Ref-l.base].h == *h {
			return i
		}
	}
}

// until returns the deadline of the entry slot i points at.
//
//toposhot:hotpath
func (l *Locks) until(i int) float64 { return l.q[l.idx.Slots[i].Ref-l.base].until }

// Fetch reports whether an announcement of h at time now is to be requested:
// false while h's lock is live (a lock hit), else it arms the lock until
// now+window. Whether the pool already holds h is the caller's check.
//
//toposhot:hotpath
func (l *Locks) Fetch(h types.Hash, now, window float64) bool {
	tag := types.SlotTag(h[:])
	i := l.find(&h, tag)
	if i >= 0 && now < l.until(i) {
		return false
	}
	l.arm(h, now+window, tag, i)
	return true
}

// Arm locks h until the given time. Locks are armed in expiry order (Fetch
// does so; a checkpoint restore re-arms Live's output).
func (l *Locks) Arm(h types.Hash, until float64) {
	tag := types.SlotTag(h[:])
	l.arm(h, until, tag, l.find(&h, tag))
}

// arm appends h's new current entry and points h's slot at it: slot i when h
// has one (i ≥ 0), else a new slot.
func (l *Locks) arm(h types.Hash, until float64, tag uint32, i int) {
	ring := l.base + uint32(len(l.q))
	l.q = append(l.q, lockEntry{h: h, until: until})
	if i >= 0 {
		l.idx.Slots[i].Ref = ring
		return
	}
	l.idx.Insert(types.Slot{Tag: tag, Ref: ring})
}

// Live calls fn for every locked hash's current entry, in expiry order;
// re-arming the sequence rebuilds an equivalent table.
func (l *Locks) Live(fn func(h types.Hash, until float64)) {
	for k := l.head; k < len(l.q); k++ {
		e := &l.q[k]
		if i := l.find(&e.h, types.SlotTag(e.h[:])); i >= 0 && l.idx.Slots[i].Ref == l.base+uint32(k) {
			fn(e.h, e.until)
		}
	}
}

// Sweep drops the locks expired at now, amortized O(1) per armed lock: a
// popped entry drops its hash when the hash's current entry has expired too.
//
//toposhot:hotpath
func (l *Locks) Sweep(now float64) {
	q, head := l.q, l.head
	for head < len(q) && now >= q[head].until {
		h := &q[head].h
		head++
		if i := l.find(h, types.SlotTag(h[:])); i >= 0 && now >= l.until(i) {
			l.idx.Remove(i)
		}
	}
	l.head = head
	// Compact once the dead prefix dominates the ring.
	if head > 0 && head*2 >= len(q) {
		l.q = q[:copy(q, q[head:])]
		l.base += uint32(head)
		l.head = 0
	}
}

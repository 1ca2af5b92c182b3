// Package gossip holds the transaction gossip rules the simulator
// (internal/ethsim) and the live TCP node (internal/node) share: who gets a
// push and who an announcement, what is relayed, which announced hashes are
// fetched, and what a request is answered with. It has no transport, clock or
// RNG: callers pass the time in seconds and draw the peer permutation.
package gossip

import (
	"hash/maphash"
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
// The index idx finds a hash's current entry without a Go map: an
// open-addressing table of 8-byte slots, each a 32-bit tag of the hash and the
// entry's ring number, probed linearly at load ≤ ½ and deleted from by
// backward shift. A ring number counts arms (mod 2³²) and q[i] has number
// base+i; compaction advances base, so no slot is rewritten. The tag hashes
// all 32 bytes under a per-process seed, because a live node locks hashes its
// peers choose (a prefix would let them pile hashes into one probe run); the
// seed moves slots around the table and changes nothing else.
type Locks struct {
	q    []lockEntry
	head int
	base uint32
	idx  []lockSlot
	live int // occupied slots of idx: the locked hashes
}

type lockEntry struct {
	h     types.Hash
	until float64
}

// lockSlot is one index slot: tag 0 marks it empty, and tag&(len(idx)-1) is
// the slot its probe starts at.
type lockSlot struct {
	tag, ring uint32
}

var lockSeed = maphash.MakeSeed()

// lockTag returns h's non-zero index tag.
//
//toposhot:hotpath
func lockTag(h *types.Hash) uint32 {
	if t := uint32(maphash.Bytes(lockSeed, h[:])); t != 0 {
		return t
	}
	return 1
}

// find returns the slot of h's current entry, or, when h holds no lock, the
// empty slot where its probe ended (-1 in an unallocated index).
//
//toposhot:hotpath
func (l *Locks) find(h *types.Hash, tag uint32) (int, bool) {
	if len(l.idx) == 0 {
		return -1, false
	}
	mask := len(l.idx) - 1
	for i := int(tag) & mask; ; i = (i + 1) & mask {
		s := l.idx[i]
		if s.tag == 0 {
			return i, false
		}
		if s.tag == tag && l.q[s.ring-l.base].h == *h {
			return i, true
		}
	}
}

// until returns the deadline of the entry slot i points at.
//
//toposhot:hotpath
func (l *Locks) until(i int) float64 { return l.q[l.idx[i].ring-l.base].until }

// Fetch reports whether an announcement of h at time now is to be requested:
// false while h's lock is live (a lock hit), else it arms the lock until
// now+window. Whether the pool already holds h is the caller's check.
//
//toposhot:hotpath
func (l *Locks) Fetch(h types.Hash, now, window float64) bool {
	tag := lockTag(&h)
	i, ok := l.find(&h, tag)
	if ok && now < l.until(i) {
		return false
	}
	l.arm(h, now+window, tag, i, ok)
	return true
}

// Arm locks h until the given time. Locks are armed in expiry order (Fetch
// does so; a checkpoint restore re-arms Live's output).
func (l *Locks) Arm(h types.Hash, until float64) {
	tag := lockTag(&h)
	i, ok := l.find(&h, tag)
	l.arm(h, until, tag, i, ok)
}

// arm appends h's new current entry and points h's slot at it: slot i when
// found, else a new slot at the end of h's probe.
func (l *Locks) arm(h types.Hash, until float64, tag uint32, i int, found bool) {
	ring := l.base + uint32(len(l.q))
	l.q = append(l.q, lockEntry{h: h, until: until})
	if found {
		l.idx[i].ring = ring
		return
	}
	if 2*(l.live+1) > len(l.idx) {
		l.grow()
		i, _ = l.find(&h, tag)
	}
	l.idx[i] = lockSlot{tag: tag, ring: ring}
	l.live++
}

// grow doubles the index (to 8 slots from none) and re-places every slot.
func (l *Locks) grow() {
	old := l.idx
	l.idx = make([]lockSlot, max(8, 2*len(old)))
	mask := len(l.idx) - 1
	for _, s := range old {
		if s.tag == 0 {
			continue
		}
		i := int(s.tag) & mask
		for l.idx[i].tag != 0 {
			i = (i + 1) & mask
		}
		l.idx[i] = s
	}
}

// remove empties slot i, shifting back every later slot of its probe run
// whose probe starts at or before the hole, so no probe crosses an empty slot
// before its hash.
//
//toposhot:hotpath
func (l *Locks) remove(i int) {
	mask := len(l.idx) - 1
	for j := (i + 1) & mask; l.idx[j].tag != 0; j = (j + 1) & mask {
		if home := int(l.idx[j].tag) & mask; (j-home)&mask >= (j-i)&mask {
			l.idx[i] = l.idx[j]
			i = j
		}
	}
	l.idx[i] = lockSlot{}
	l.live--
}

// Live calls fn for every locked hash's current entry, in expiry order;
// re-arming the sequence rebuilds an equivalent table.
func (l *Locks) Live(fn func(h types.Hash, until float64)) {
	for k := l.head; k < len(l.q); k++ {
		e := &l.q[k]
		if i, ok := l.find(&e.h, lockTag(&e.h)); ok && l.idx[i].ring == l.base+uint32(k) {
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
		if i, ok := l.find(h, lockTag(h)); ok && now >= l.until(i) {
			l.remove(i)
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

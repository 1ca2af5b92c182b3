package txpool

import (
	"hash/maphash"

	"toposhot/internal/types"
)

// senderTable is a pool's account table: one sender record per account with
// buffered entries or a non-zero state nonce (DESIGN.md §15, "One sender
// record"). Records live by value in a slab of fixed-size pages, each holding
// its account's address, and entries name theirs by slab number. A new page
// is added when the last one fills, so a record never moves and a growing
// pool copies none.
//
// The index idx finds an address's record without a Go map: an
// open-addressing table of 8-byte slots, each a 32-bit tag of the address and
// the record's number, probed linearly at load ≤ ½ and deleted from by
// backward shift, as gossip.Locks does. The tag hashes all 20 bytes under a
// per-process seed, because a live node admits senders its peers choose (a
// prefix would let them pile addresses into one probe run). The seed moves
// slots around the index and changes nothing else: nothing walks the index.
//
// A released record goes on the free stack, zeroed, and is the next one add
// hands out, so the slab never outgrows the pool's peak record count and a
// warm pool's sender turnover allocates nothing.
type senderTable struct {
	idx   []senderSlot
	pages []*senderPage
	n     uint32   // one past the highest record number handed out; record 0 names none
	free  []uint32 // released records, the last released on top
	live  int      // occupied slots of idx: the accounts with a record
}

// senderPage is one page of the slab: 32 records of 72 B fill the 2304-B
// size class exactly.
type senderPage [senderPageLen]sender

const senderPageLen = 32

// senderSlot is one index slot: tag 0 marks it empty, and tag&(len(idx)-1)
// is the slot its probe starts at.
type senderSlot struct {
	tag, rec uint32
}

var senderSeed = maphash.MakeSeed()

// senderTag returns a's non-zero index tag.
//
//toposhot:hotpath
func senderTag(a *types.Address) uint32 {
	if t := uint32(maphash.Bytes(senderSeed, a[:])); t != 0 {
		return t
	}
	return 1
}

// find returns the slot of a's record, or, when a has none, the empty slot
// where its probe ended (-1 in an unallocated index).
//
//toposhot:hotpath
func (t *senderTable) find(a *types.Address, tag uint32) (int, bool) {
	if len(t.idx) == 0 {
		return -1, false
	}
	mask := len(t.idx) - 1
	for i := int(tag) & mask; ; i = (i + 1) & mask {
		s := t.idx[i]
		if s.tag == 0 {
			return i, false
		}
		if s.tag == tag && t.at(s.rec).addr == *a {
			return i, true
		}
	}
}

// get returns a's record, or nil when the pool holds nothing of a.
//
//toposhot:hotpath
func (t *senderTable) get(a *types.Address) *sender {
	if i, ok := t.find(a, senderTag(a)); ok {
		return t.at(t.idx[i].rec)
	}
	return nil
}

// at returns record rec.
//
//toposhot:hotpath
func (t *senderTable) at(rec uint32) *sender {
	return &t.pages[rec/senderPageLen][rec%senderPageLen]
}

// add files a record for a, which has none: the last one released if any,
// else a new one at the end of the slab.
func (t *senderTable) add(a *types.Address) *sender {
	tag := senderTag(a)
	if 2*(t.live+1) > len(t.idx) {
		t.grow()
	}
	i, _ := t.find(a, tag)
	var rec uint32
	if n := len(t.free); n > 0 {
		rec = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		rec = max(t.n, 1) // record 0 names none
		if int(rec/senderPageLen) == len(t.pages) {
			t.pages = append(t.pages, new(senderPage))
		}
		t.n = rec + 1
	}
	s := t.at(rec)
	s.addr, s.rec = *a, rec
	t.idx[i] = senderSlot{tag: tag, rec: rec}
	t.live++
	return s
}

// release forgets s's account and puts s on the free stack, zeroed but for a
// one-slot nonce array: a lone sender's array comes back with its record,
// while a run-sized one is dropped rather than pinned.
//
//toposhot:hotpath
func (t *senderTable) release(s *sender) {
	i, _ := t.find(&s.addr, senderTag(&s.addr))
	t.remove(i)
	txs, rec := s.txs, s.rec
	if cap(txs) != 1 {
		txs = nil
	}
	*s = sender{txs: txs, rec: rec}
	t.free = append(t.free, rec)
}

// grow doubles the index (to 8 slots from none) and re-places every slot.
func (t *senderTable) grow() {
	old := t.idx
	t.idx = make([]senderSlot, max(8, 2*len(old)))
	mask := len(t.idx) - 1
	for _, s := range old {
		if s.tag == 0 {
			continue
		}
		i := int(s.tag) & mask
		for t.idx[i].tag != 0 {
			i = (i + 1) & mask
		}
		t.idx[i] = s
	}
}

// remove empties slot i, shifting back every later slot of its probe run
// whose probe starts at or before the hole, so no probe crosses an empty slot
// before its address.
//
//toposhot:hotpath
func (t *senderTable) remove(i int) {
	mask := len(t.idx) - 1
	for j := (i + 1) & mask; t.idx[j].tag != 0; j = (j + 1) & mask {
		if home := int(t.idx[j].tag) & mask; (j-home)&mask >= (j-i)&mask {
			t.idx[i] = t.idx[j]
			i = j
		}
	}
	t.idx[i] = senderSlot{}
	t.live--
}

package txpool

import "toposhot/internal/types"

// senderTable is a pool's account table: one sender record per account with
// buffered entries or a non-zero state nonce (DESIGN.md §2, "Account
// table"). Records live by value in a slab of fixed-size pages, each holding
// its account's address, and entries name theirs by slab number. A new page
// is added when the last one fills, so a record never moves and a growing
// pool copies none.
//
// The index idx (a types.SlotIndex) finds an address's record without a Go
// map: each slot holds a tag of all 20 address bytes and the record's
// number.
//
// A released record goes on the free stack, zeroed, and is the next one add
// hands out, so the slab never outgrows the pool's peak record count and a
// warm pool's sender turnover allocates nothing.
type senderTable struct {
	idx   types.SlotIndex
	pages []*senderPage
	n     uint32   // one past the highest record number handed out; record 0 names none
	free  []uint32 // released records, the last released on top
}

// senderPage is one page of the slab: 32 records of 72 B fill the 2304-B
// size class exactly.
type senderPage [senderPageLen]sender

const senderPageLen = 32

// find returns the index slot of a's record, whose tag is given, or -1 when a
// has none.
//
//toposhot:hotpath
func (t *senderTable) find(a *types.Address, tag uint32) int {
	if len(t.idx.Slots) == 0 {
		return -1
	}
	mask := len(t.idx.Slots) - 1
	for i := int(tag) & mask; ; i = (i + 1) & mask {
		s := t.idx.Slots[i]
		if s.Tag == 0 {
			return -1
		}
		if s.Tag == tag && t.at(s.Ref).addr == *a {
			return i
		}
	}
}

// get returns a's record, or nil when the pool holds nothing of a.
//
//toposhot:hotpath
func (t *senderTable) get(a *types.Address) *sender {
	if i := t.find(a, types.SlotTag(a[:])); i >= 0 {
		return t.at(t.idx.Slots[i].Ref)
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
	t.idx.Insert(types.Slot{Tag: types.SlotTag(a[:]), Ref: rec})
	return s
}

// release forgets s's account and puts s on the free stack, zeroed but for a
// nonce array of at most two slots, the smallest: a lone sender's array comes
// back with its record, while a run-sized one is dropped rather than pinned.
//
//toposhot:hotpath
func (t *senderTable) release(s *sender) {
	t.idx.Remove(t.find(&s.addr, types.SlotTag(s.addr[:])))
	txs, rec := s.txs, s.rec
	if cap(txs) > 2 {
		txs = nil
	}
	*s = sender{txs: txs, rec: rec}
	t.free = append(t.free, rec)
}

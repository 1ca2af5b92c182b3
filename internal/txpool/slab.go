package txpool

import "toposhot/internal/types"

// entrySlab holds a pool's entries by value, named by a uint32 entry number;
// number 0 names none (DESIGN.md §15, "Admission list and free list").
// Entries live in pages of 64 that hold no pointer, so the garbage collector
// never scans them; the built transaction objects sit in a parallel column
// of the same shape. A new page is added when the last one fills, so an
// entry never moves and a growing pool copies none.
//
// A released entry is zeroed, its column slot cleared, and chained on the
// free list through its next field; alloc takes the last one released before
// it takes a new number.
type entrySlab struct {
	pages []*entryPage
	txs   []*txColumn
	n     uint32 // one past the highest number handed out
	free  uint32 // the last released entry; 0 when none is
}

const entryPageLen = 64

// entryPage is one page of the slab: 64 entries of 64 B fill the 4096-B size
// class exactly.
type entryPage [entryPageLen]entry

// txColumn holds the transaction objects of one page's entries; an unbuilt
// run member's slot is nil.
type txColumn [entryPageLen]*types.Transaction

// at returns entry i.
//
//toposhot:hotpath
func (s *entrySlab) at(i uint32) *entry {
	return &s.pages[i/entryPageLen][i%entryPageLen]
}

// tx returns entry i's transaction object, nil for an unbuilt run member.
//
//toposhot:hotpath
func (s *entrySlab) tx(i uint32) *types.Transaction {
	return s.txs[i/entryPageLen][i%entryPageLen]
}

// setTx stores entry i's transaction object.
//
//toposhot:hotpath
func (s *entrySlab) setTx(i uint32, tx *types.Transaction) {
	s.txs[i/entryPageLen][i%entryPageLen] = tx
}

// alloc returns a free entry's number, whose fields the caller sets: the
// last one released if any, else a new one at the end of the slab.
func (s *entrySlab) alloc() uint32 {
	if i := s.free; i != 0 {
		s.free = s.at(i).next
		return i
	}
	i := max(s.n, 1) // entry 0 names none
	if int(i/entryPageLen) == len(s.pages) {
		s.pages = append(s.pages, new(entryPage))
		s.txs = append(s.txs, new(txColumn))
	}
	s.n = i + 1
	return i
}

// release zeroes entry i and chains it on the free list.
//
//toposhot:hotpath
func (s *entrySlab) release(i uint32) {
	*s.at(i) = entry{next: s.free}
	s.setTx(i, nil)
	s.free = i
}

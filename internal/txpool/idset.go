package txpool

// pageBits is the number of transaction IDs one page of an idSet covers.
const pageBits = 4096

// idPage is one page of an idSet: a bitset over pageBits consecutive IDs and
// the number of bits set in it.
type idPage struct {
	words [pageBits / 64]uint64
	n     int
}

// idSet is a set of transaction IDs (types.Transaction.ID): a bitset paged
// over the window of page numbers [base, base+len(pages)). A page with no
// bit set is nil, and the window is trimmed at both ends as pages empty, so a
// set's memory follows the spread of the IDs it holds — not how many IDs the
// process has handed out.
type idSet struct {
	base  uint32 // page number of pages[0]
	pages []*idPage
	// spare is the last page to empty (all bits clear), kept for the next
	// add that needs a page: a set whose IDs march forward empties a page at
	// the front about as often as it opens one at the back.
	spare *idPage
}

// has reports whether id is in the set.
//
//toposhot:hotpath
func (s *idSet) has(id uint32) bool {
	i := id/pageBits - s.base // wraps past len for an id below the window
	if uint(i) >= uint(len(s.pages)) {
		return false
	}
	pg := s.pages[i]
	return pg != nil && pg.words[id/64%(pageBits/64)]&(1<<(id%64)) != 0
}

// add puts id in the set, widening the window and taking a page as needed.
func (s *idSet) add(id uint32) {
	pn := id / pageBits
	switch {
	case len(s.pages) == 0:
		s.base = pn
		s.pages = append(s.pages, nil)
	case pn < s.base:
		grown := make([]*idPage, int(s.base-pn)+len(s.pages))
		copy(grown[s.base-pn:], s.pages)
		s.base, s.pages = pn, grown
	default:
		for uint(pn-s.base) >= uint(len(s.pages)) {
			s.pages = append(s.pages, nil)
		}
	}
	pg := s.pages[pn-s.base]
	if pg == nil {
		if pg = s.spare; pg != nil {
			s.spare = nil
		} else {
			pg = new(idPage)
		}
		s.pages[pn-s.base] = pg
	}
	if w, bit := &pg.words[id/64%(pageBits/64)], uint64(1)<<(id%64); *w&bit == 0 {
		*w |= bit
		pg.n++
	}
}

// remove takes id out of the set; a page it empties leaves the window, and so
// does every empty page that then bounds it. The back is trimmed first, so a
// set that empties keeps its slice for the next add: a pool whose one pending
// transaction comes and goes allocates nothing here.
//
//toposhot:hotpath
func (s *idSet) remove(id uint32) {
	i := id/pageBits - s.base
	if uint(i) >= uint(len(s.pages)) {
		return
	}
	pg := s.pages[i]
	if pg == nil {
		return
	}
	w, bit := &pg.words[id/64%(pageBits/64)], uint64(1)<<(id%64)
	if *w&bit == 0 {
		return
	}
	*w &^= bit
	if pg.n--; pg.n > 0 {
		return
	}
	s.pages[i], s.spare = nil, pg
	for n := len(s.pages); n > 0 && s.pages[n-1] == nil; n-- {
		s.pages = s.pages[:n-1]
	}
	for len(s.pages) > 0 && s.pages[0] == nil {
		s.pages = s.pages[1:]
		s.base++
	}
}

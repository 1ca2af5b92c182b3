package txpool

import (
	"math/bits"
	"testing"
)

// idSetLen returns the number of IDs in s after checking its shape: every
// page's tally matches its popcount, no empty page is in the window or bounds
// it, and the spare page is blank.
func idSetLen(t *testing.T, s *idSet) int {
	t.Helper()
	total := 0
	for i, pg := range s.pages {
		if pg == nil {
			if i == 0 || i == len(s.pages)-1 {
				t.Fatalf("window [%d, %d) is bounded by an empty page", s.base, s.base+uint32(len(s.pages)))
			}
			continue
		}
		n := 0
		for _, w := range pg.words {
			n += bits.OnesCount64(w)
		}
		if n == 0 || n != pg.n {
			t.Fatalf("page %d holds %d IDs and tallies %d", s.base+uint32(i), n, pg.n)
		}
		total += n
	}
	if s.spare != nil && *s.spare != (idPage{}) {
		t.Fatal("spare page is not blank")
	}
	return total
}

// FuzzIDSet drives an idSet and a map[uint32]bool through the same adds and
// removes over a sliding range of IDs — the way a pool sees them, as the
// process hands out ever larger ones and old transactions leave — and
// requires the same membership throughout. The window must span exactly the
// pages from the smallest live ID's to the largest's: at most
// (largest − smallest)/4096 + 2 pages, the +2 for two IDs straddling a page
// boundary, so memory follows the spread of what the set holds.
func FuzzIDSet(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 16, 1, 2, 0, 1, 2, 16, 1}, uint32(4090))                         // straddle, then empty both pages
	f.Add([]byte{0, 200, 0, 0, 3, 0, 0, 0, 0, 3, 100, 0, 1, 250, 9}, uint32(1<<20))           // open pages below the window
	f.Add([]byte{0, 1, 1, 0, 1, 2, 3, 4, 0, 0, 9, 9, 2, 1, 1, 3, 255, 0}, uint32(0xfffff000)) // slide across the top of the ID space
	f.Fuzz(func(t *testing.T, ops []byte, lo uint32) {
		var s idSet
		ref := map[uint32]bool{}
		for ; len(ops) >= 3; ops = ops[3:] {
			off := uint32(ops[1])<<8 | uint32(ops[2]) // up to 16 pages above lo
			id := lo + off
			switch ops[0] % 4 {
			case 0, 1:
				s.add(id)
				ref[id] = true
			case 2:
				s.remove(id)
				delete(ref, id)
			case 3: // slide: the range moves up and everything below it leaves
				lo += off
				for old := range ref {
					if old < lo {
						s.remove(old)
						delete(ref, old)
					}
				}
			}
			for _, probe := range []uint32{id, id - 1, id + 1, id + pageBits} {
				if s.has(probe) != ref[probe] {
					t.Fatalf("has(%d) = %v, reference says %v", probe, s.has(probe), ref[probe])
				}
			}
		}
		if n := idSetLen(t, &s); n != len(ref) {
			t.Fatalf("set holds %d IDs, reference %d", n, len(ref))
		}
		if len(ref) == 0 {
			if len(s.pages) != 0 {
				t.Fatalf("empty set keeps a %d-page window", len(s.pages))
			}
			return
		}
		smallest, largest := ^uint32(0), uint32(0)
		for id := range ref {
			if !s.has(id) {
				t.Fatalf("set lost %d", id)
			}
			smallest, largest = min(smallest, id), max(largest, id)
		}
		if s.base != smallest/pageBits || len(s.pages) != int(largest/pageBits-smallest/pageBits)+1 {
			t.Fatalf("window is %d pages from page %d; live IDs %d..%d span pages %d..%d",
				len(s.pages), s.base, smallest, largest, smallest/pageBits, largest/pageBits)
		}
	})
}

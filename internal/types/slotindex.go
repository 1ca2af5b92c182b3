package types

import "hash/maphash"

// SlotIndex is the open-addressing index behind txpool's account table and
// gossip's announce-lock table, in place of a Go map: 8-byte slots, each a
// 32-bit tag of a key and a 32-bit reference to the owner's record of it,
// probed linearly from tag&(len(Slots)-1) at load ≤ ½ and deleted from by
// backward shift. Tag 0 marks a slot empty. The index holds no keys: each
// owner walks Slots in its own find, comparing the key of the record a
// matching tag refers to. The zero value is empty and allocates nothing
// until its first Insert.
type SlotIndex struct {
	Slots []Slot
	live  int // occupied slots
}

// Slot is one SlotIndex slot.
type Slot struct {
	Tag, Ref uint32
}

var slotSeed = maphash.MakeSeed()

// SlotTag returns key's non-zero SlotIndex tag. It hashes every byte under
// a per-process seed, because live nodes index keys their peers choose (a
// prefix would let them pile keys into one probe run); the seed moves slots
// around an index and changes nothing else, since nothing walks one in slot
// order.
//
//toposhot:hotpath
func SlotTag(key []byte) uint32 {
	if t := uint32(maphash.Bytes(slotSeed, key)); t != 0 {
		return t
	}
	return 1
}

// Len returns the number of occupied slots.
func (x *SlotIndex) Len() int { return x.live }

// Insert puts s, whose key the index lacks, in the first empty slot of its
// probe, growing the index first when one more slot would pass load ½.
func (x *SlotIndex) Insert(s Slot) {
	if 2*(x.live+1) > len(x.Slots) {
		x.grow()
	}
	x.place(s)
	x.live++
}

// grow doubles the index (to 8 slots from none) and re-places every slot.
func (x *SlotIndex) grow() {
	old := x.Slots
	x.Slots = make([]Slot, max(8, 2*len(old)))
	for _, s := range old {
		if s.Tag != 0 {
			x.place(s)
		}
	}
}

// place puts s in the first empty slot of its probe.
func (x *SlotIndex) place(s Slot) {
	mask := len(x.Slots) - 1
	i := int(s.Tag) & mask
	for x.Slots[i].Tag != 0 {
		i = (i + 1) & mask
	}
	x.Slots[i] = s
}

// Remove empties slot i, shifting back every later slot of its probe run
// whose probe starts at or before the hole, so no probe crosses an empty slot
// before its key.
//
//toposhot:hotpath
func (x *SlotIndex) Remove(i int) {
	mask := len(x.Slots) - 1
	for j := (i + 1) & mask; x.Slots[j].Tag != 0; j = (j + 1) & mask {
		if home := int(x.Slots[j].Tag) & mask; (j-home)&mask >= (j-i)&mask {
			x.Slots[i] = x.Slots[j]
			i = j
		}
	}
	x.Slots[i] = Slot{}
	x.live--
}

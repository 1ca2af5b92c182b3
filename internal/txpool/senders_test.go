package txpool

import (
	"encoding/binary"
	"testing"
	"unsafe"

	"toposhot/internal/types"
)

// senderKey maps a fuzz argument to an address: a small integer in the last
// four bytes (sharing the first 16 with every other such key) or, with the
// top bit, bytes spread over all 20 that also depend on the operation's
// position.
func senderKey(arg byte, k int) types.Address {
	var a types.Address
	if arg&0x80 == 0 {
		a[0], a[15] = 0xee, 0xee
		binary.BigEndian.PutUint32(a[16:], uint32(arg))
		return a
	}
	for i := range a {
		a[i] = arg ^ byte(i*0x5a)
	}
	a[int(arg)%len(a)] ^= byte(k)
	return a
}

// FuzzSenders drives a sender table and a map reference with one operation
// stream — add, get, release, and bursts of adds that grow the index and the
// slab — and compares every answer and the live count. Each byte pair is an
// operation and its argument. Each add stamps its record's state nonce with
// the operation's position, so a look-up that finds another account's record
// reads the wrong stamp.
func FuzzSenders(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 2, 1, 1, 1, 0, 1})
	f.Add([]byte{0, 0x81, 3, 40, 2, 5, 1, 0x81, 2, 0x81, 0, 7, 3, 90, 1, 12})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var got senderTable
		want := make(map[types.Address]uint64)
		add := func(a types.Address, stamp uint64) {
			if got.get(&a) != nil {
				return
			}
			got.add(&a).stateNonce = stamp
			want[a] = stamp
		}
		for k := 0; k+1 < len(ops); k += 2 {
			op, arg := ops[k]%4, ops[k+1]
			a := senderKey(arg, k)
			switch op {
			case 0:
				add(a, uint64(k+1))
			case 1:
				s, stamp := got.get(&a), want[a]
				if (s != nil) != (stamp != 0) || s != nil && (s.stateNonce != stamp || s.addr != a) {
					t.Fatalf("op %d: get(%v) = %v, reference stamp %d", k/2, a, s, stamp)
				}
			case 2:
				if s := got.get(&a); s != nil {
					got.release(s)
				}
				delete(want, a)
			case 3:
				for j := 0; j < int(arg%64); j++ {
					add(senderKey(byte(j), k), uint64(k+1))
				}
			}
			if got.idx.Len() != len(want) {
				t.Fatalf("op %d: %d records live, reference %d", k/2, got.idx.Len(), len(want))
			}
		}
		for a, stamp := range want {
			if s := got.get(&a); s == nil || s.stateNonce != stamp || s.addr != a {
				t.Fatalf("get(%v) = %v at the end, reference stamp %d", a, s, stamp)
			}
		}
	})
}

// TestSenderTableAdversarialKeys: 20 000 addresses that share their first 16
// bytes still spread over the index (peers of a live node choose sender
// addresses), every one finds its own record, and releasing them empties the
// index and stacks every record for reuse.
func TestSenderTableAdversarialKeys(t *testing.T) {
	const n = 20000
	addrs := make([]types.Address, n)
	for i := range addrs {
		addrs[i] = types.Address{0: 0xee, 15: 0xee}
		binary.BigEndian.PutUint32(addrs[i][16:], uint32(i)*0x9e3779b9)
	}
	var tab senderTable
	for i := range addrs {
		tab.add(&addrs[i]).stateNonce = uint64(i + 1)
	}
	if run := longestSenderRun(&tab); run >= 64 {
		t.Fatalf("longest probe run is %d slots of %d, want < 64", run, len(tab.idx.Slots))
	}
	for i := range addrs {
		if s := tab.get(&addrs[i]); s == nil || s.stateNonce != uint64(i+1) {
			t.Fatalf("address %d finds %v", i, s)
		}
	}
	for i := 0; i < n; i += 2 {
		tab.release(tab.get(&addrs[i]))
	}
	for i := range addrs {
		if s := tab.get(&addrs[i]); (s == nil) != (i%2 == 0) {
			t.Fatalf("address %d after releasing the even ones finds %v", i, s)
		}
	}
	for i := 1; i < n; i += 2 {
		tab.release(tab.get(&addrs[i]))
	}
	if tab.idx.Len() != 0 || longestSenderRun(&tab) != 0 || len(tab.free) != n || tab.n != n+1 {
		t.Fatalf("%d records live, %d released of a %d-record slab after releasing all", tab.idx.Len(), len(tab.free), tab.n-1)
	}
}

// longestSenderRun returns the length of the longest run of occupied index
// slots.
func longestSenderRun(t *senderTable) int {
	longest, run := 0, 0
	for _, s := range append(t.idx.Slots, t.idx.Slots...) { // a run may wrap around the end
		if s.Tag == 0 {
			run = 0
			continue
		}
		run++
		longest = max(longest, min(run, len(t.idx.Slots)))
	}
	return longest
}

// TestRunSizedNonceArray: a fresh sender's nonce array is sized once for
// the whole run its first member came from, so the members after it move no
// entry.
func TestRunSizedNonceArray(t *testing.T) {
	const z = 300
	p := New(Geth.WithCapacity(2 * z))
	r := &types.Run{From: acct(7), Nonce: 1, Count: z, Price: 100, ToSpace: types.SpaceTopoShot}
	p.OfferRun(r, 0)
	s := p.senders.get(&r.From)
	array := unsafe.SliceData(s.txs)
	for k := 1; k < z; k++ {
		if res := p.OfferRun(r, k); res.Status != StatusFuture {
			t.Fatalf("member %d: %v", k, res.Status)
		}
		if unsafe.SliceData(s.txs) != array {
			t.Fatalf("member %d moved the nonce array (capacity %d)", k, cap(s.txs))
		}
	}
	invariantCheck(t, p)
}

package txpool

import (
	"testing"

	"toposhot/internal/types"
)

// TestVictimIdentity: a victim hands back the object the pool held — the one
// offered, or a member built earlier — and an unbuilt member as a new object
// of its content that nothing has hashed; with a DropObserver set, the
// observer and the victim share one object.
func TestVictimIdentity(t *testing.T) {
	p := New(small(4))
	obj := tx(1, 1, 10)
	r := &types.Run{From: acct(2), Nonce: 1, Count: 3, Price: 20, ToSpace: types.SpaceTopoShot}
	p.Offer(obj)
	for k := 0; k < r.Count; k++ {
		p.OfferRun(r, k)
	}
	built := p.GetBySenderNonce(r.From, 2) // member 1
	evict := func(from uint64) Victim {
		t.Helper()
		res := p.Offer(tx(from, 1, 100))
		if res.Status != StatusFuture || len(res.Evicted) != 1 {
			t.Fatalf("offer from %d: %v evicting %d, want a future evicting one", from, res.Status, len(res.Evicted))
		}
		return res.Evicted[0]
	}
	if v := evict(10); v.Tx() != obj {
		t.Fatalf("object victim is %v, want the offered object", v.Tx())
	}
	var observed *types.Transaction
	for from := uint64(11); from < 14; from++ {
		p.DropObserver = nil
		if from == 13 {
			p.DropObserver = func(tx *types.Transaction, reason string) { observed = tx }
		}
		v := evict(from)
		got := v.Tx()
		k := int(got.Nonce - r.Nonce)
		switch {
		case from == 13:
			if got != observed || v.Tx() != got || !got.Equal(r.Tx(k)) {
				t.Fatalf("member %d: victim %p, observer handed %p", k, got, observed)
			}
		case k == 1:
			if got != built {
				t.Fatalf("member 1 victim is %p, want the object built earlier %p", got, built)
			}
		default:
			if v.tx != nil || !got.Equal(r.Tx(k)) || got.Hashed() || got.AssignedID() != 0 {
				t.Fatalf("unbuilt member %d: victim object %v (held %v), hashed %v", k, got, v.tx != nil, got.Hashed())
			}
		}
	}
	invariantCheck(t, p)
}

// TestFillEvictionAllocations: a Z = 512 fill into a 512-slot pool full of
// an earlier fill's unbuilt members evicts all 512 and allocates a few
// objects (the run, the new sender's nonce array as it grows), not one per
// victim.
func TestFillEvictionAllocations(t *testing.T) {
	const z = 512
	p := New(Geth.WithCapacity(z))
	fills := uint64(0)
	fill := func() (evicted int) {
		fills++
		r := &types.Run{From: acct(1<<40 + fills), Nonce: 1, Count: z, Price: 100 + fills,
			ToSpace: types.SpaceTopoShot, ToSeq: fills * z}
		for k := 0; k < z; k++ {
			res := p.OfferRun(r, k)
			if res.Status != StatusFuture {
				t.Fatalf("fill %d member %d: %v", fills, k, res.Status)
			}
			for _, v := range res.Evicted {
				if v.tx != nil {
					t.Fatalf("fill %d evicted a built member %v", fills, v.tx)
				}
			}
			evicted += len(res.Evicted)
		}
		return evicted
	}
	fill()
	allocs := testing.AllocsPerRun(10, func() {
		if n := fill(); n != z {
			t.Fatalf("fill %d evicted %d, want %d", fills, n, z)
		}
	})
	if allocs >= 64 {
		t.Fatalf("a %d-member fill evicting %d allocates %v objects, want fewer than 64", z, z, allocs)
	}
	invariantCheck(t, p)
	t.Logf("a %d-member fill evicting %d allocates %v objects", z, z, allocs)
}

// TestLoneSenderTurnoverAllocations: in a warm pool, a fresh account's one
// pending transaction coming and expiring allocates nothing — its sender
// record, nonce array, entry and live-set page are all reused.
func TestLoneSenderTurnoverAllocations(t *testing.T) {
	const warm, runs = 8, 100
	pol := Geth.WithCapacity(64).WithExpiry(10)
	p := New(pol)
	txs := make([]*types.Transaction, warm+runs+1)
	for i := range txs {
		txs[i] = tx(1<<30+uint64(i), 0, 100)
	}
	now := 0.0
	cycle := func() {
		if res := p.Offer(txs[0]); res.Status != StatusPending {
			t.Fatalf("lone sender offer: %v", res.Status)
		}
		txs = txs[1:]
		now += pol.Expiry + 1
		p.SetTime(now)
		if p.Len() != 0 {
			t.Fatalf("%d entries outlived the expiry", p.Len())
		}
	}
	for i := 0; i < warm; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Fatalf("a lone sender's offer and expiry allocate %v objects, want 0", allocs)
	}
	invariantCheck(t, p)
}

package txpool

import (
	"fmt"
	"sort"

	"toposhot/internal/types"
)

// EntrySnapshot is the serializable form of one live pool entry.
type EntrySnapshot struct {
	Tx      *types.Transaction
	Added   float64
	Seq     uint64
	Pending bool
}

// NonceSnapshot records one sender's chain nonce.
type NonceSnapshot struct {
	Addr  types.Address
	Nonce uint64
}

// Snapshot is a complete, restorable image of a pool's observable state.
//
// Entries hold the live transactions in admission order. The two heap
// layouts are preserved verbatim as index lists into Entries: the price
// heap's comparator is not a total order (it prefers futures over pendings
// only at equal price), so rebuilding the heap by re-pushing could produce a
// different — still valid, but not byte-identical — eviction sequence.
// Copying the array layout reproduces the exact heap the original pool would
// have used.
//
// StateNonces lists the accounts with a non-zero chain nonce, by address. An
// account at nonce 0 with nothing buffered has no record in the pool at all
// and is not listed; restoring without it is the same pool.
type Snapshot struct {
	Entries     []EntrySnapshot
	PriceOrder  []int32 // price-heap array layout, indices into Entries
	FutureOrder []int32 // future-heap array layout, indices into Entries
	StateNonces []NonceSnapshot
	AdmitSeq    uint64
	Now         float64
	BaseFee     uint64
}

// Snapshot captures the pool's restorable state. The policy is not included
// — it is configuration, carried separately by the caller.
func (p *Pool) Snapshot() Snapshot {
	var s Snapshot
	s.Entries = make([]EntrySnapshot, 0, p.Len())
	for i := p.oldest; i != 0; {
		e := p.entries.at(i)
		e.mark = int32(len(s.Entries))
		s.Entries = append(s.Entries, EntrySnapshot{Tx: p.object(i), Added: e.added, Seq: e.seq, Pending: e.pending})
		i = e.next
	}
	s.PriceOrder = make([]int32, len(p.price.a))
	for k, i := range p.price.a {
		s.PriceOrder[k] = p.entries.at(i).mark
	}
	s.FutureOrder = make([]int32, len(p.futures.a))
	for k, i := range p.futures.a {
		s.FutureOrder[k] = p.entries.at(i).mark
	}
	// Released and unused records are zero, so the slab's non-zero nonces
	// are the live accounts'; the index's slot order never reaches the
	// snapshot.
	s.StateNonces = make([]NonceSnapshot, 0, p.senders.idx.Len())
	for _, pg := range p.senders.pages {
		for i := range pg {
			if snd := &pg[i]; snd.stateNonce != 0 {
				s.StateNonces = append(s.StateNonces, NonceSnapshot{Addr: snd.addr, Nonce: snd.stateNonce})
			}
		}
	}
	sort.Slice(s.StateNonces, func(i, j int) bool {
		return string(s.StateNonces[i].Addr[:]) < string(s.StateNonces[j].Addr[:])
	})
	s.AdmitSeq = p.admitSeq
	s.Now = p.now
	s.BaseFee = p.baseFee
	return s
}

// RestorePool reconstructs a pool from a snapshot under the given policy.
// The restored pool is behaviorally byte-identical to the snapshotted one:
// same admission sequence numbers, same heap array layouts, same expiry
// order.
func RestorePool(policy Policy, s Snapshot) (*Pool, error) {
	p := New(policy)
	for _, ns := range s.StateNonces {
		p.SetStateNonce(ns.Addr, ns.Nonce)
	}
	ents := make([]uint32, len(s.Entries))
	lastSeq := uint64(0)
	for i, es := range s.Entries {
		if es.Tx == nil {
			return nil, fmt.Errorf("txpool: snapshot entry %d has no transaction", i)
		}
		// The by-hash index tells indexed entries from the rest by seq alone.
		if es.Seq <= lastSeq || es.Seq > s.AdmitSeq {
			return nil, fmt.Errorf("txpool: snapshot entry %d has admission seq %d out of order", i, es.Seq)
		}
		lastSeq = es.Seq
		snd := p.senders.get(&es.Tx.From)
		if snd == nil {
			snd = p.senders.add(&es.Tx.From)
		}
		if es.Tx.Nonce < snd.stateNonce {
			return nil, fmt.Errorf("txpool: snapshot holds %v nonce %d below its state nonce %d", es.Tx.From, es.Tx.Nonce, snd.stateNonce)
		}
		at, dup := p.search(snd, es.Tx.Nonce)
		if dup {
			return nil, fmt.Errorf("txpool: snapshot holds two transactions for %v nonce %d", es.Tx.From, es.Tx.Nonce)
		}
		e := p.entries.alloc()
		*p.entries.at(e) = entry{rec: snd.rec, nonce: es.Tx.Nonce, price: es.Tx.GasPrice, added: es.Added, seq: es.Seq, pending: es.Pending, idx: [2]int32{-1, -1}}
		p.entries.setTx(e, es.Tx)
		ents[i] = e
		snd.insertAt(at, e)
		p.enlist(e)
		if es.Pending {
			p.live.add(es.Tx.ID())
			p.pendingCount++
			snd.pending++
		} else {
			p.futureCount++
			snd.future++
		}
	}
	if len(s.PriceOrder) != len(ents) {
		return nil, fmt.Errorf("txpool: price-heap layout covers %d of %d entries", len(s.PriceOrder), len(ents))
	}
	p.price.a = make([]uint32, len(s.PriceOrder))
	for i, idx := range s.PriceOrder {
		if idx < 0 || int(idx) >= len(ents) || p.entries.at(ents[idx]).idx[priceHeap] != -1 {
			return nil, fmt.Errorf("txpool: invalid price-heap slot %d → %d", i, idx)
		}
		p.price.a[i] = ents[idx]
		p.entries.at(ents[idx]).idx[priceHeap] = int32(i)
	}
	p.futures.a = make([]uint32, len(s.FutureOrder))
	for i, idx := range s.FutureOrder {
		if idx < 0 || int(idx) >= len(ents) || p.entries.at(ents[idx]).idx[futureHeap] != -1 || p.entries.at(ents[idx]).pending {
			return nil, fmt.Errorf("txpool: invalid future-heap slot %d → %d", i, idx)
		}
		p.futures.a[i] = ents[idx]
		p.entries.at(ents[idx]).idx[futureHeap] = int32(i)
	}
	if len(p.futures.a) != p.futureCount {
		return nil, fmt.Errorf("txpool: future heap holds %d of %d futures", len(p.futures.a), p.futureCount)
	}
	p.admitSeq = s.AdmitSeq
	p.now = s.Now
	p.baseFee = s.BaseFee
	return p, nil
}

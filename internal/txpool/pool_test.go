package txpool

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"toposhot/internal/types"
)

func acct(n uint64) types.Address { return types.AddressFromUint64(n) }

func tx(from uint64, nonce, price uint64) *types.Transaction {
	return types.NewTransaction(acct(from), acct(from+1_000_000), nonce, price, 0)
}

func small(capacity int) Policy {
	return Geth.WithCapacity(capacity)
}

func TestPendingVsFutureClassification(t *testing.T) {
	p := New(small(100))
	if res := p.Offer(tx(1, 0, 100)); res.Status != StatusPending {
		t.Fatalf("nonce 0 status = %v", res.Status)
	}
	if res := p.Offer(tx(1, 2, 100)); res.Status != StatusFuture {
		t.Fatalf("gapped nonce status = %v", res.Status)
	}
	// Closing the gap promotes the future.
	res := p.Offer(tx(1, 1, 100))
	if res.Status != StatusPending {
		t.Fatalf("gap filler status = %v", res.Status)
	}
	if len(res.Promoted) != 1 || res.Promoted[0].Nonce != 2 {
		t.Fatalf("promotion missing: %v", res.Promoted)
	}
	if p.PendingCount() != 3 || p.FutureCount() != 0 {
		t.Fatalf("counts: pending=%d future=%d", p.PendingCount(), p.FutureCount())
	}
}

func TestDuplicateAndStale(t *testing.T) {
	p := New(small(100))
	a := tx(1, 0, 100)
	p.Offer(a)
	if res := p.Offer(a); res.Status != StatusKnown {
		t.Fatalf("duplicate = %v", res.Status)
	}
	p.SetStateNonce(acct(1), 5)
	if res := p.Offer(tx(1, 3, 100)); res.Status != StatusStaleNonce {
		t.Fatalf("stale = %v", res.Status)
	}
}

func TestReplacementThreshold(t *testing.T) {
	p := New(small(100))
	old := tx(1, 0, 1000)
	p.Offer(old)
	// 9.9% bump: rejected under Geth's 10%.
	low := types.NewTransaction(acct(1), acct(2), 0, 1099, 0)
	if res := p.Offer(low); res.Status != StatusUnderpriced {
		t.Fatalf("underpriced bump = %v", res.Status)
	}
	// Exactly 10%: accepted.
	ok := types.NewTransaction(acct(1), acct(2), 0, 1100, 0)
	res := p.Offer(ok)
	if res.Status != StatusReplaced {
		t.Fatalf("replacement = %v", res.Status)
	}
	if res.Replaced == nil || res.Replaced.Hash() != old.Hash() {
		t.Fatal("replaced tx not reported")
	}
	if p.Has(old.Hash()) {
		t.Fatal("old tx still buffered")
	}
	if p.Len() != 1 {
		t.Fatalf("len = %d", p.Len())
	}
}

func TestReplacementOfFutureStaysFuture(t *testing.T) {
	p := New(small(100))
	p.Offer(tx(1, 5, 1000))
	rep := types.NewTransaction(acct(1), acct(2), 5, 2000, 0)
	if res := p.Offer(rep); res.Status != StatusReplaced {
		t.Fatalf("future replacement = %v", res.Status)
	}
	if p.IsPending(rep.Hash()) {
		t.Fatal("replaced future became pending")
	}
}

func TestParityBumpRatio(t *testing.T) {
	p := New(Parity.WithCapacity(100))
	p.Offer(tx(1, 0, 1000))
	if res := p.Offer(types.NewTransaction(acct(1), acct(2), 0, 1124, 0)); res.Status != StatusUnderpriced {
		t.Fatalf("11.24%% bump accepted by Parity: %v", res.Status)
	}
	if res := p.Offer(types.NewTransaction(acct(1), acct(2), 0, 1125, 0)); res.Status != StatusReplaced {
		t.Fatalf("12.5%% bump rejected by Parity: %v", res.Status)
	}
}

func TestZeroBumpClients(t *testing.T) {
	p := New(Aleth.WithCapacity(100))
	p.Offer(tx(1, 0, 1000))
	// Same price, different tx: replacement allowed under R=0.
	if res := p.Offer(types.NewTransaction(acct(1), acct(2), 0, 1000, 1)); res.Status != StatusReplaced {
		t.Fatalf("same-price replacement under R=0: %v", res.Status)
	}
}

func TestFutureEvictionOfPending(t *testing.T) {
	p := New(small(4))
	// Fill with four pendings at prices 10..40.
	for i := uint64(0); i < 4; i++ {
		if !p.Offer(tx(10+i, 0, 10*(i+1))).Status.Admitted() {
			t.Fatal("fill failed")
		}
	}
	// Incoming future at 100 evicts the cheapest pending (price 10).
	res := p.Offer(tx(99, 3, 100))
	if res.Status != StatusFuture {
		t.Fatalf("future admission = %v", res.Status)
	}
	if len(res.Evicted) != 1 || res.Evicted[0].Tx().GasPrice != 10 {
		t.Fatalf("evicted = %v", victimTxs(res.Evicted))
	}
	// Incoming future priced below the floor is rejected.
	if res := p.Offer(tx(98, 3, 15)); res.Status != StatusPoolFull {
		t.Fatalf("cheap future = %v", res.Status)
	}
}

func TestEvictionRespectsP(t *testing.T) {
	pol := small(4)
	pol.MinPendingForEviction = 10 // pending population always ≤ P
	p := New(pol)
	for i := uint64(0); i < 4; i++ {
		p.Offer(tx(10+i, 0, 10*(i+1)))
	}
	if res := p.Offer(tx(99, 3, 100)); res.Status != StatusPoolFull {
		t.Fatalf("eviction under P = %v", res.Status)
	}
}

func TestPendingDisplacesFutureWhenFull(t *testing.T) {
	p := New(small(3))
	p.Offer(tx(1, 0, 50))
	p.Offer(tx(2, 1, 500)) // future at high price
	p.Offer(tx(3, 0, 60))
	// Pool full. A cheap *pending* arrival displaces the future regardless
	// of price (pending transactions are first-class).
	res := p.Offer(tx(4, 0, 5))
	if res.Status != StatusPending {
		t.Fatalf("pending admission = %v", res.Status)
	}
	if len(res.Evicted) != 1 || res.Evicted[0].Tx().Nonce != 1 {
		t.Fatalf("evicted = %v", victimTxs(res.Evicted))
	}
}

func TestAccountFutureCapU(t *testing.T) {
	pol := small(100)
	pol.MaxFuturePerAccount = 3
	p := New(pol)
	for i := uint64(0); i < 3; i++ {
		if !p.Offer(tx(1, i+2, 100)).Status.Admitted() {
			t.Fatal("future admission failed")
		}
	}
	if res := p.Offer(tx(1, 9, 100)); res.Status != StatusOverAccountCap {
		t.Fatalf("over-cap = %v", res.Status)
	}
	// Other accounts unaffected.
	if res := p.Offer(tx(2, 2, 100)); res.Status != StatusFuture {
		t.Fatalf("other account = %v", res.Status)
	}
}

// TestEvictionSequencePinned pins the full-pool eviction order when pending
// admissions displace futures: strictly ascending gas price, with equal-price
// ties broken toward the oldest admission. The sequence must not drift when
// the future index implementation changes.
func TestEvictionSequencePinned(t *testing.T) {
	p := New(small(6))
	type drop struct {
		from  types.Address
		price uint64
	}
	var dropped []drop
	p.DropObserver = func(dtx *types.Transaction, reason string) {
		if reason == "evicted" {
			dropped = append(dropped, drop{dtx.From, dtx.GasPrice})
		}
	}
	// One pending plus five gapped futures fill the pool. Prices include a
	// three-way tie at 100 admitted in sender order 10, 12, 14.
	p.Offer(tx(1, 0, 500))
	p.Offer(tx(10, 1, 100))
	p.Offer(tx(11, 1, 300))
	p.Offer(tx(12, 1, 100))
	p.Offer(tx(13, 1, 200))
	p.Offer(tx(14, 1, 100))
	if p.Len() != 6 || p.FutureCount() != 5 {
		t.Fatalf("setup: len=%d futures=%d", p.Len(), p.FutureCount())
	}
	// Five executable admissions evict the five futures one by one.
	for i := 0; i < 5; i++ {
		res := p.Offer(tx(uint64(20+i), 0, 1000))
		if res.Status != StatusPending || len(res.Evicted) != 1 {
			t.Fatalf("admission %d: status=%v evicted=%d", i, res.Status, len(res.Evicted))
		}
	}
	want := []drop{
		{acct(10), 100}, {acct(12), 100}, {acct(14), 100},
		{acct(13), 200}, {acct(11), 300},
	}
	if len(dropped) != len(want) {
		t.Fatalf("evictions = %d, want %d", len(dropped), len(want))
	}
	for i := range want {
		if dropped[i] != want[i] {
			t.Fatalf("eviction %d = %+v, want %+v (order drifted)", i, dropped[i], want[i])
		}
	}
	// With no futures left, the next pending admission must fall back to the
	// price-checked pending victim path.
	res := p.Offer(tx(30, 0, 2000))
	if res.Status != StatusPending || len(res.Evicted) != 1 || res.Evicted[0].Tx().GasPrice != 500 {
		t.Fatalf("pending fallback: %v evicted=%v", res.Status, victimTxs(res.Evicted))
	}
}

// TestFuturesDrawNoID: a transaction draws its ID when a pool first holds it
// pending, and not before — a future that is admitted, refused, re-offered,
// asked about, evicted or expired never touches the process-wide counter. The
// same object, once promoted, draws one and is then known by its bit.
func TestFuturesDrawNoID(t *testing.T) {
	pol := small(4)
	pol.Expiry = 10
	p := New(pol)
	p.Offer(tx(1, 0, 1000))
	p.Offer(tx(2, 0, 1000))
	cheap, mid, rich, refused := tx(10, 1, 50), tx(11, 1, 100), tx(12, 1, 200), tx(13, 1, 10)
	p.Offer(cheap)
	p.Offer(mid)
	if res := p.Offer(rich); res.Status != StatusFuture || len(res.Evicted) != 1 || res.Evicted[0].Tx() != cheap {
		t.Fatalf("rich future: %v evicted=%v, want future evicting the cheapest", res.Status, victimTxs(res.Evicted))
	}
	if res := p.Offer(refused); res.Status != StatusPoolFull {
		t.Fatalf("cheap future on a full pool: %v", res.Status)
	}
	if res := p.Offer(mid); res.Status != StatusKnown || !p.Contains(mid) || p.ContainsPending(mid) {
		t.Fatalf("re-offered future: %v, Contains=%v ContainsPending=%v", res.Status, p.Contains(mid), p.ContainsPending(mid))
	}
	invariantCheck(t, p)
	p.SetTime(11)
	if p.Len() != 0 {
		t.Fatalf("%d entries survived expiry", p.Len())
	}
	for _, f := range []*types.Transaction{cheap, mid, rich, refused} {
		if id := f.AssignedID(); id != 0 {
			t.Fatalf("future %v drew ID %d", f, id)
		}
	}

	fut := tx(20, 1, 100)
	if res := p.Offer(fut); res.Status != StatusFuture || fut.AssignedID() != 0 {
		t.Fatalf("future: %v with ID %d", res.Status, fut.AssignedID())
	}
	if res := p.Offer(tx(20, 0, 100)); len(res.Promoted) != 1 || res.Promoted[0] != fut {
		t.Fatalf("gap filler promoted %v, want the future", res.Promoted)
	}
	id := fut.AssignedID()
	if id == 0 || !p.live.has(id) {
		t.Fatalf("promoted future has ID %d, in live: %v", id, p.live.has(id))
	}
	if res := p.Offer(fut); res.Status != StatusKnown {
		t.Fatalf("re-offered pending: %v, want known", res.Status)
	}
	invariantCheck(t, p)
}

// TestEvictedIsPoolBuffer: evicting admissions hand back slices over the
// pool's one buffer, each capped at its length, so a caller's append
// reallocates and neither it nor the pool's next offer sees the other's
// writes.
func TestEvictedIsPoolBuffer(t *testing.T) {
	// Three futures restored under capacity 2: the first offer must evict two,
	// which grows the buffer past what one eviction needs.
	big := New(small(3))
	for i := uint64(0); i < 3; i++ {
		big.Offer(tx(10+i, 1, 10*(i+1)))
	}
	p, err := RestorePool(small(2), big.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var prices []uint64
	offer := func(from, price uint64) []Victim {
		t.Helper()
		ev := p.Offer(tx(from, 1, price)).Evicted
		if len(ev) == 0 || cap(ev) != len(ev) {
			t.Fatalf("offer at %d: evicted len %d cap %d, want a non-empty slice with cap == len", price, len(ev), cap(ev))
		}
		prices = prices[:0]
		for _, v := range ev {
			prices = append(prices, v.Tx().GasPrice)
		}
		return ev
	}
	first := offer(20, 100)
	if len(first) != 2 || prices[0] != 10 || prices[1] != 20 {
		t.Fatalf("over-full pool evicted prices %v, want [10 20]", prices)
	}
	second := offer(21, 200)
	if &second[0] != &first[0] {
		t.Fatal("consecutive evicting offers returned different backing arrays")
	}
	victim := second[0]
	grown := append(second, Victim{tx: tx(99, 1, 1)})
	if &grown[0] == &second[0] {
		t.Fatal("append to Evicted wrote into the pool's buffer")
	}
	third := offer(22, 300)
	if len(third) != 1 || third[0].Tx().GasPrice != 100 || grown[0] != victim || grown[1].Tx().GasPrice != 1 {
		t.Fatalf("next offer evicted %v, caller's slice %v: want [price 100] and an untouched append", victimTxs(third), victimTxs(grown))
	}
}

func TestRemoveConfirmedAdvancesNonces(t *testing.T) {
	p := New(small(100))
	t0 := tx(1, 0, 100)
	t1 := tx(1, 1, 100)
	t2 := tx(1, 2, 100)
	p.Offer(t0)
	p.Offer(t2) // future
	promoted := p.RemoveConfirmed([]*types.Transaction{t0, t1})
	if p.Has(t0.Hash()) {
		t.Fatal("confirmed tx still present")
	}
	if p.StateNonce(acct(1)) != 2 {
		t.Fatalf("state nonce = %d", p.StateNonce(acct(1)))
	}
	if len(promoted) != 1 || promoted[0].Hash() != t2.Hash() {
		t.Fatalf("promotion after confirm: %v", promoted)
	}
	if !p.IsPending(t2.Hash()) {
		t.Fatal("t2 not pending after promotion")
	}
}

func TestExpiry(t *testing.T) {
	pol := small(100)
	pol.Expiry = 10
	p := New(pol)
	a := tx(1, 0, 100)
	p.Offer(a)
	p.SetTime(5)
	b := tx(2, 0, 100)
	p.Offer(b)
	p.SetTime(11) // a (age 11) expires; b (age 6) stays
	if p.Has(a.Hash()) {
		t.Fatal("expired tx still present")
	}
	if !p.Has(b.Hash()) {
		t.Fatal("fresh tx dropped")
	}
}

func TestExpiryDemotesDependents(t *testing.T) {
	pol := small(100)
	pol.Expiry = 10
	p := New(pol)
	p.Offer(tx(1, 0, 100))
	p.SetTime(5)
	later := tx(1, 1, 100)
	p.Offer(later)
	if !p.IsPending(later.Hash()) {
		t.Fatal("nonce 1 should be pending")
	}
	p.SetTime(11) // nonce 0 expires → nonce 1 must demote to future
	if !p.Has(later.Hash()) {
		t.Fatal("nonce 1 dropped")
	}
	if p.IsPending(later.Hash()) {
		t.Fatal("nonce 1 still pending after dependency expired")
	}
}

func TestPendingOrderedByPrice(t *testing.T) {
	p := New(small(100))
	p.Offer(tx(1, 0, 10))
	p.Offer(tx(2, 0, 30))
	p.Offer(tx(3, 0, 20))
	got := p.Pending()
	if len(got) != 3 || got[0].GasPrice != 30 || got[2].GasPrice != 10 {
		t.Fatalf("pending order wrong: %v", got)
	}
}

func TestDropRemoves(t *testing.T) {
	p := New(small(10))
	a := tx(1, 0, 10)
	p.Offer(a)
	if !p.Drop(a.Hash()) {
		t.Fatal("drop failed")
	}
	if p.Drop(a.Hash()) {
		t.Fatal("double drop succeeded")
	}
	if p.Len() != 0 {
		t.Fatal("pool not empty")
	}
}

// findEntry returns the entry in entry i's sender slot if it holds i's
// content — find for an entry whose object may not have been built, building
// none.
func (p *Pool) findEntry(i uint32) uint32 {
	from := p.entryFrom(i)
	s := p.senders.get(&from)
	tx := p.entries.tx(i)
	if k, ok := p.search(s, p.entries.at(i).nonce); ok && (s.txs[k] == i || tx != nil && p.holds(s, s.txs[k], &offered{tx: tx})) {
		return s.txs[k]
	}
	return 0
}

// entryFrom returns entry i's sender as its transaction or run names it,
// building nothing.
func (p *Pool) entryFrom(i uint32) types.Address {
	if tx := p.entries.tx(i); tx != nil {
		return tx.From
	}
	return p.senders.at(p.entries.at(i).rec).run.From
}

// invariantCheck verifies internal consistency of the pool's indexes.
func invariantCheck(t *testing.T, p *Pool) {
	t.Helper()
	if p.PendingCount()+p.FutureCount() != p.Len() {
		t.Fatalf("count invariant broken: %d + %d != %d",
			p.PendingCount(), p.FutureCount(), p.Len())
	}
	if p.Len() > p.Policy().Capacity {
		t.Fatalf("capacity exceeded: %d > %d", p.Len(), p.Policy().Capacity)
	}
	// The price heap indexes every entry; the future heap exactly the
	// future entries, and its top must agree with a reference scan under the
	// (price, admission) order.
	if len(p.price.a) != p.Len() {
		t.Fatalf("price heap holds %d entries, pool %d", len(p.price.a), p.Len())
	}
	if len(p.futures.a) != p.FutureCount() {
		t.Fatalf("future heap holds %d entries, future count is %d",
			len(p.futures.a), p.FutureCount())
	}
	// The two identity indexes, read before anything below asks by hash (which
	// would move the watermark): the live bitset holds exactly the pending
	// entries' transaction IDs, and every pending entry's object has drawn
	// one; byHash exactly the entries admitted up to the watermark, under a
	// hash that indexing them memoized. Nothing here draws an ID.
	if p.indexedSeq > p.admitSeq {
		t.Fatalf("by-hash watermark %d is ahead of admission seq %d", p.indexedSeq, p.admitSeq)
	}
	indexed := 0
	for i := p.oldest; i != 0; i = p.entries.at(i).next {
		e, tx := p.entries.at(i), p.entries.tx(i)
		if r := p.senders.at(e.rec).run; tx == nil && (e.pending || r == nil || e.nonce < r.Nonce || e.nonce-r.Nonce >= uint64(r.Count)) {
			t.Fatalf("entry seq=%d pending=%v has neither an object nor a run member", e.seq, e.pending)
		}
		if tx != nil && tx.Nonce != e.nonce {
			t.Fatalf("entry seq=%d holds %v at nonce %d", e.seq, tx, e.nonce)
		}
		if tx == nil {
			if e.seq <= p.indexedSeq {
				t.Fatalf("unbuilt member seq=%d is below the by-hash watermark %d", e.seq, p.indexedSeq)
			}
			continue // nothing built it, so it has no ID and no hash
		}
		id := tx.AssignedID()
		if e.pending && id == 0 {
			t.Fatalf("pending entry seq=%d has drawn no ID", e.seq)
		}
		if (id != 0 && p.live.has(id)) != e.pending {
			t.Fatalf("entry seq=%d pending=%v: its ID %d is in live: %v", e.seq, e.pending, id, !e.pending)
		}
		if e.seq > p.indexedSeq {
			continue
		}
		indexed++
		if !tx.Hashed() || p.byHash[tx.Hash()] != i {
			t.Fatalf("entry seq=%d is below the watermark %d and not indexed by hash", e.seq, p.indexedSeq)
		}
	}
	if bits := idSetLen(t, &p.live); bits != p.PendingCount() || len(p.byHash) != indexed {
		t.Fatalf("live holds %d IDs for %d pending entries, byHash %d of %d indexed ones",
			bits, p.PendingCount(), len(p.byHash), indexed)
	}
	var ref uint32
	for i := p.oldest; i != 0; i = p.entries.at(i).next {
		e, tx := p.entries.at(i), p.entries.tx(i)
		h := e.seq
		if tx != nil && e.price != tx.GasPrice || tx == nil && e.price != p.senders.at(e.rec).run.Price {
			t.Fatalf("entry seq=%d carries price %d", h, e.price)
		}
		if k := e.idx[priceHeap]; k < 0 || p.price.a[k] != i {
			t.Fatalf("entry seq=%d mis-indexed in price heap (idx=%d)", h, k)
		}
		if e.pending {
			if e.idx[futureHeap] >= 0 {
				t.Fatalf("pending seq=%d indexed in future heap", h)
			}
			continue
		}
		if k := e.idx[futureHeap]; k < 0 || p.futures.a[k] != i {
			t.Fatalf("future seq=%d mis-indexed (idx=%d)", h, k)
		}
		if r := p.entries.at(ref); ref == 0 || e.price < r.price || (e.price == r.price && e.seq < r.seq) {
			ref = i
		}
	}
	if got := p.cheapestFuture(); got != ref {
		t.Fatalf("cheapestFuture disagrees with reference scan: got %v want %v", got, ref)
	}
	// Every sender record must be filed under one address only, hold its
	// entries in strictly ascending nonce order at or above its state nonce,
	// with tallies that agree with a recount, and no record may outlive its
	// purpose: one with no entries and state nonce 0 must have been released.
	// The index is walked in slot order, which only the order of failures
	// depends on.
	records := make(map[uint32]bool)
	filed, slots := 0, 0
	for _, slot := range p.senders.idx.Slots {
		if slot.Tag == 0 {
			continue
		}
		slots++
		if slot.Ref == 0 || slot.Ref >= p.senders.n {
			t.Fatalf("index slot names record %d of %d", slot.Ref, p.senders.n)
		}
		s := p.senders.at(slot.Ref)
		addr := s.addr
		if records[slot.Ref] {
			t.Fatalf("sender record of %v is filed under two addresses", addr)
		}
		records[slot.Ref] = true
		if s.rec != slot.Ref || slot.Tag != types.SlotTag(addr[:]) || p.senders.get(&addr) != s {
			t.Fatalf("sender record %d of %v is not where its address finds it", slot.Ref, addr)
		}
		live := s.txs
		if len(live) == 0 && s.stateNonce == 0 {
			t.Fatalf("empty sender record left behind for %v", addr)
		}
		pending, future := 0, 0
		for k, i := range live {
			e := p.entries.at(i)
			if i == 0 || i >= p.entries.n || e.rec != slot.Ref || p.entryFrom(i) != addr || p.findEntry(i) != i {
				t.Fatalf("sender %v slot %d holds a foreign or dead entry", addr, k)
			}
			if e.nonce < s.stateNonce || (k > 0 && p.entries.at(live[k-1]).nonce >= e.nonce) {
				t.Fatalf("sender %v nonce order broken at slot %d", addr, k)
			}
			if e.pending {
				pending++
			} else {
				future++
			}
		}
		if int(s.pending) != pending || int(s.future) != future {
			t.Fatalf("sender %v tallies drifted: have %d/%d want %d/%d", addr, s.pending, s.future, pending, future)
		}
		filed += len(live)
	}
	if filed != p.Len() {
		t.Fatalf("sender records hold %d entries, pool %d", filed, p.Len())
	}
	if slots != p.senders.idx.Len() {
		t.Fatalf("index holds %d records, its count says %d", slots, p.senders.idx.Len())
	}
	// Released records are zeroed but for a nonce array of at most two slots
	// (the smallest a []uint32 allocates), and none is
	// still live or stacked twice; every record of the slab but the unused
	// first is live or released.
	for i, rec := range p.senders.free {
		if rec == 0 || rec >= p.senders.n || records[rec] {
			t.Fatalf("spare sender record %d (%d) is live, stacked twice or out of the slab", i, rec)
		}
		records[rec] = true
		s := p.senders.at(rec)
		if len(s.txs) != 0 || cap(s.txs) > 2 || s.stateNonce != 0 || s.pending != 0 || s.future != 0 || s.run != nil || s.addr != (types.Address{}) || s.rec != rec {
			t.Fatalf("spare sender record %d holds state: %d entries, cap %d, nonce %d, run %v", i, len(s.txs), cap(s.txs), s.stateNonce, s.run)
		}
	}
	if n := int(p.senders.n); n > 0 && len(records) != n-1 {
		t.Fatalf("%d live and released records in a slab of %d", len(records), n-1)
	}
	// The admission list visits exactly the live entries in seq order, each
	// once, by number.
	visited := 0
	numbered := make(map[uint32]bool)
	var prev uint32
	for i := p.oldest; i != 0; prev, i = i, p.entries.at(i).next {
		if i >= p.entries.n || numbered[i] || p.findEntry(i) != i {
			t.Fatalf("admission list visits dead, repeated or out-of-slab entry %d", i)
		}
		numbered[i] = true
		e := p.entries.at(i)
		if e.prev != prev || (prev != 0 && p.entries.at(prev).seq >= e.seq) {
			t.Fatalf("admission list broken at seq=%d", e.seq)
		}
		visited++
	}
	if visited != p.Len() || p.newest != prev {
		t.Fatalf("admission list visits %d of %d entries", visited, p.Len())
	}
	// Recycled entries hold nothing, no number is both live and free, and
	// live plus free entries are every number the slab has handed out and
	// stay bounded by the capacity.
	spare := 0
	for i := p.entries.free; i != 0; i = p.entries.at(i).next {
		if i >= p.entries.n || numbered[i] {
			t.Fatalf("free entry %d is live, chained twice or out of the slab", i)
		}
		numbered[i] = true
		if p.entries.tx(i) != nil || p.entries.at(i).rec != 0 {
			t.Fatal("free entry retains its transaction or sender")
		}
		spare++
	}
	if p.Len()+spare > p.Policy().Capacity {
		t.Fatalf("%d live + %d free entries exceed capacity %d", p.Len(), spare, p.Policy().Capacity)
	}
	if n := int(max(p.entries.n, 1)) - 1; p.Len()+spare != n {
		t.Fatalf("%d live + %d free entries in a slab that handed out %d", p.Len(), spare, n)
	}
}

// TestRandomizedInvariants hammers the pool with random offers and checks
// the structural invariants throughout — the core property test.
func TestRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pol := small(64)
	pol.MaxFuturePerAccount = 8
	p := New(pol)
	for i := 0; i < 20000; i++ {
		from := uint64(rng.Intn(24))
		nonce := uint64(rng.Intn(12))
		price := uint64(1 + rng.Intn(1000))
		res := p.Offer(tx(from, nonce, price))
		_ = res
		if i%500 == 0 {
			invariantCheck(t, p)
			p.SetTime(float64(i) / 100)
		}
		if rng.Intn(50) == 0 {
			p.RemoveConfirmed(p.Pending()[:min(len(p.Pending()), 3)])
			invariantCheck(t, p)
		}
	}
	invariantCheck(t, p)
}

// TestPendingContiguity: every pending transaction's nonce range from the
// state nonce must be fully present — the defining property of "pending".
func TestPendingContiguity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := New(small(128))
	for i := 0; i < 5000; i++ {
		from := uint64(rng.Intn(8))
		p.Offer(tx(from, uint64(rng.Intn(10)), uint64(1+rng.Intn(100))))
	}
	for _, ptx := range p.Pending() {
		for n := p.StateNonce(ptx.From); n < ptx.Nonce; n++ {
			if p.GetBySenderNonce(ptx.From, n) == nil {
				t.Fatalf("pending %v#%d has gap at nonce %d", ptx.From, ptx.Nonce, n)
			}
		}
	}
}

func TestReplaceThresholdQuick(t *testing.T) {
	f := func(price uint32) bool {
		if price == 0 {
			return true
		}
		th := Geth.ReplaceThreshold(uint64(price))
		// Threshold must be the minimal integer at least 10% above
		// (integer arithmetic: th·10 ≥ price·11 > (th−1)·10).
		return th*10 >= uint64(price)*11 && (th-1)*10 < uint64(price)*11
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClientByName(t *testing.T) {
	for _, c := range AllClients {
		got, ok := ClientByName(c.Name)
		if !ok || got.Capacity != c.Capacity {
			t.Errorf("ClientByName(%q) failed", c.Name)
		}
	}
	if _, ok := ClientByName("nope"); ok {
		t.Error("unknown client resolved")
	}
}

func TestMeasurable(t *testing.T) {
	if !Geth.Measurable() || !Parity.Measurable() || !Besu.Measurable() {
		t.Error("non-zero-R clients should be measurable")
	}
	if Nethermind.Measurable() || Aleth.Measurable() {
		t.Error("zero-R clients should not be measurable")
	}
}

// TestConfirmDemoteDeterministic pins the order in which one call drops a
// sender's stale entries and demotes its stranded ones: ascending nonce. The
// pool used to walk the sender's nonce→entry map for both, so in mined worlds
// removal and push order — hence heap layout, equal-price eviction order and
// checkpoint bytes — followed Go's map iteration order. Fifty fresh pools
// driven through the same confirm/demote sequence must snapshot identically.
func TestConfirmDemoteDeterministic(t *testing.T) {
	run := func() Snapshot {
		p := New(small(64))
		// Background entries, so both heaps have some depth: pendings and
		// gapped futures at a handful of recurring prices.
		for i := uint64(0); i < 12; i++ {
			p.Offer(tx(100+i, 0, 100+10*(i%3)))
			p.Offer(tx(100+i, 2, 100+10*(i%4)))
		}
		// Three accounts with a ten-nonce pending run each, prices tied in
		// threes.
		var runs [3][]*types.Transaction
		for a := range runs {
			for n := uint64(0); n < 10; n++ {
				rtx := tx(uint64(1+a), n, 100+10*(n%3))
				runs[a] = append(runs[a], rtx)
				p.Offer(rtx)
			}
		}
		// A block confirms nonce 3 of account 1 without the pool having seen
		// nonces 0..2 mined: four stale entries go in one SetStateNonce.
		p.RemoveConfirmed(runs[0][3:4])
		// Dropping mid-run entries strands the tails: five and four demotions
		// in one repartition each.
		p.Drop(runs[1][4].Hash())
		p.Drop(runs[2][5].Hash())
		// Jumping account 2 past its gap drops five stale entries and
		// re-promotes the stranded tail.
		p.SetStateNonce(acct(2), 5)
		// Executable arrivals at a full pool now evict the demoted futures in
		// (price, admission) order off the heap the demotions built.
		for i := uint64(0); p.Len() < p.Policy().Capacity; i++ {
			p.Offer(tx(200+i, 1, 100))
		}
		for i := uint64(0); i < 6; i++ {
			p.Offer(tx(300+i, 0, 500))
		}
		invariantCheck(t, p)
		return p.Snapshot()
	}
	want := run()
	if len(want.FutureOrder) == 0 || len(want.StateNonces) != 2 {
		t.Fatalf("sequence lost its shape: %d futures, %d state nonces", len(want.FutureOrder), len(want.StateNonces))
	}
	// Each run mints its own transaction objects, so the snapshots are
	// compared by content: equal transactions, not the same ones.
	for i := 1; i < 50; i++ {
		if got := run(); snapshotText(got) != snapshotText(want) {
			t.Fatalf("run %d snapshots differently from run 0: stale drops or demotions are order-dependent", i)
		}
	}
}

// TestEntrySize: a pool's entries and sender records are its most numerous
// objects, so their sizes are its memory. An entry is 64 B, seven bytes of
// padding after its pending flag, so 64 of them fill a 4096-B slab page, a
// size class exactly; the page's column of 64 transaction pointers is 512 B,
// another. One more word in the entry makes a page 4608 B, which allocates
// from the 4864-B class, and a full-pool gossip flood pays that on every
// page. A sender record is 72 B, its address and slab number filling the last
// of its nine words, and the table's slab pages of 32 records fill the 2304-B
// class exactly. One more field costs 8 B for every record the slab holds,
// live or released, and moves every page into the 2688-B class.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 64 {
		t.Errorf("sizeof(entry) = %d B, want 64", got)
	}
	if got := unsafe.Sizeof(entryPage{}); got != 4096 {
		t.Errorf("sizeof(entryPage) = %d B, want 4096", got)
	}
	if got := unsafe.Sizeof(txColumn{}); got != 512 {
		t.Errorf("sizeof(txColumn) = %d B, want 512", got)
	}
	if got := unsafe.Sizeof(sender{}); got != 72 {
		t.Errorf("sizeof(sender) = %d B, want 72", got)
	}
}

// TestEntryHoldsNoPointers: the slab's pages are pointer-free, so the garbage
// collector never scans them and moving an entry costs no write barrier.
// Every field of entry, walked by reflection, must be free of pointers,
// slices, maps, strings and interfaces; a field that is not fails here by
// name. A transaction object belongs in the slab's column (entrySlab.tx).
func TestEntryHoldsNoPointers(t *testing.T) {
	var scalar func(reflect.Type) bool
	scalar = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Chan, reflect.Func:
			return false
		case reflect.Array:
			return scalar(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if !scalar(typ.Field(i).Type) {
					return false
				}
			}
		}
		return true
	}
	typ := reflect.TypeOf(entry{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); !scalar(f.Type) {
			t.Errorf("entry.%s is a %v, which holds a pointer", f.Name, f.Type)
		}
	}
}

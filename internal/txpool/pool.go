package txpool

import (
	"fmt"
	"slices"
	"sort"

	"toposhot/internal/types"
)

// Status is the outcome of offering a transaction to a pool. The node layer
// uses it to decide propagation: only transactions that became pending
// (StatusPending, StatusReplaced, plus any promotions returned alongside)
// are gossiped; futures are buffered silently (§2, "Transaction propagation").
type Status int

// Offer outcomes.
const (
	// StatusPending: admitted as an executable (pending) transaction.
	StatusPending Status = iota
	// StatusFuture: admitted, but queued as a future (nonce-gapped) transaction.
	StatusFuture
	// StatusReplaced: admitted by replacing a same-sender/same-nonce transaction.
	StatusReplaced
	// StatusKnown: duplicate of a transaction already in the pool.
	StatusKnown
	// StatusUnderpriced: rejected; a same-sender/nonce transaction exists and
	// the price bump is below the policy threshold R.
	StatusUnderpriced
	// StatusPoolFull: rejected; the pool is full and the transaction cannot
	// evict anything under the policy (price too low, P unmet, or U exceeded).
	StatusPoolFull
	// StatusStaleNonce: rejected; the nonce is below the sender's account nonce.
	StatusStaleNonce
	// StatusOverAccountCap: rejected future; the sender already has U futures.
	StatusOverAccountCap
)

// Admitted reports whether the offer left the transaction in the pool.
func (s Status) Admitted() bool {
	return s == StatusPending || s == StatusFuture || s == StatusReplaced
}

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusFuture:
		return "future"
	case StatusReplaced:
		return "replaced"
	case StatusKnown:
		return "known"
	case StatusUnderpriced:
		return "underpriced"
	case StatusPoolFull:
		return "pool-full"
	case StatusStaleNonce:
		return "stale-nonce"
	case StatusOverAccountCap:
		return "over-account-cap"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Result describes everything an Offer did to the pool, so the node layer
// can propagate newly executable transactions and observability hooks can
// record replacements and evictions.
type Result struct {
	Status Status
	// Replaced is the transaction displaced by a same-sender/nonce
	// replacement, if Status == StatusReplaced.
	Replaced *types.Transaction
	// Evicted lists the transactions dropped to make room for the offered
	// one. It is the pool's own buffer, valid until the pool's next call, and
	// capped at its length: an append to it reallocates.
	Evicted []Victim
	// Promoted lists previously-future transactions that became pending as a
	// consequence of this admission (nonce gap closed). The offered
	// transaction itself is not repeated here.
	Promoted []*types.Transaction
}

// Victim is one transaction an offer evicted. A victim the pool held as an
// object carries that object; a run member nobody had asked for carries its
// run and nonce, so evicting it builds nothing.
type Victim struct {
	tx    *types.Transaction
	run   *types.Run
	nonce uint64
}

// Tx returns the evicted transaction: the pool's object, or, for a member
// the pool kept unbuilt, a new object of its content on every call. Nobody
// was ever handed an unbuilt member, so no caller can tell the difference.
func (v Victim) Tx() *types.Transaction {
	if v.tx != nil {
		return v.tx
	}
	return v.run.Tx(int(v.nonce - v.run.Nonce))
}

// entry is one buffered transaction, kept by value in the pool's slab and
// named by its number there. It holds no pointer: its transaction object sits
// in the slab's column beside it (entrySlab.tx). An entry admitted as a run
// member (OfferRun) starts without one — it is the member at nonce of its
// sender's run — and Pool.build makes it on first demand and keeps it there,
// so every caller that is handed the member gets the same object. At 64 B,
// 64 entries fill a 4096-B page (TestEntrySize).
type entry struct {
	nonce uint64
	price uint64  // the gas price, kept here so heap sifts stay off the tx
	added float64 // pool time at admission, for expiry
	seq   uint64  // admission sequence, tie-break for equal-price eviction
	rec   uint32  // the slab number of the sender record holding this entry
	mark  int32   // scratch: the entry's index in Entries while Snapshot runs
	// idx holds the entry's slot in the price heap and in the future-only
	// heap (indexed by heap kind); -1 when not in that heap.
	idx [2]int32
	// prev/next link the admission-ordered list by entry number; next also
	// chains the free list once the entry is removed.
	prev, next uint32
	pending    bool
}

// object returns entry i's transaction, building a run member's on first
// demand. Only an unbuilt member touches its sender record.
func (p *Pool) object(i uint32) *types.Transaction {
	if tx := p.entries.tx(i); tx != nil {
		return tx
	}
	return p.build(p.senders.at(p.entries.at(i).rec), i)
}

// victim describes entry i as evicted, building nothing.
func (p *Pool) victim(i uint32) Victim {
	if tx := p.entries.tx(i); tx != nil {
		return Victim{tx: tx}
	}
	return Victim{run: p.senders.at(p.entries.at(i).rec).run, nonce: p.entries.at(i).nonce}
}

// offered is the transaction one offer submits: the object tx, or, with tx
// nil, the run member at nonce, which the pool keeps unbuilt.
type offered struct {
	tx           *types.Transaction
	run          *types.Run
	nonce, price uint64
}

func (o *offered) from() *types.Address {
	if o.tx != nil {
		return &o.tx.From
	}
	return &o.run.From
}

// holds reports whether entry i of s has o's content. The caller found i in
// the slot o names, so sender and nonce agree already; two members of one run
// at one nonce are one member.
//
//toposhot:hotpath
func (p *Pool) holds(s *sender, i uint32, o *offered) bool {
	tx := p.entries.tx(i)
	switch {
	case o.tx == nil && tx == nil && s.run == o.run:
		return true
	case o.tx == nil:
		return o.run.Equal(int(o.nonce-o.run.Nonce), p.build(s, i))
	case tx != nil:
		return tx.Equal(o.tx)
	}
	return s.run.Equal(int(p.entries.at(i).nonce-s.run.Nonce), o.tx)
}

// sender is everything the pool knows about one account, behind a single
// table look-up per admission. Released records go on the table's free stack
// (releaseIfIdle) and come back zeroed for the next account.
type sender struct {
	// stateNonce is the account nonce from chain state: the next expected
	// nonce. Accounts without a record have nonce 0.
	stateNonce uint64
	// pending/future tally the account's entries, so the per-account cap
	// check and repartition's demotion test are O(1).
	pending, future int32
	// txs holds the account's entry numbers in ascending nonce order, all
	// at or above stateNonce. Nonces arrive in order and evictions, expiries
	// and confirmations take the oldest, so the common edits are an append at
	// the tail and a reslice at the head that moves nothing. A run member
	// admitted into a full array grows it once for the rest of its run. A
	// capacity of at most 2 means an array of the record's own allocated with
	// that many slots (removeAt keeps it so), which the record keeps across
	// its release.
	txs []uint32
	// run is the run whose members this account's unbuilt entries are
	// (build): a fill's members share a sender, so the run is
	// remembered once here rather than per entry. A member of another run
	// has the earlier run's members built first (adopt).
	run *types.Run
	// addr is the account, which confirms an index tag match; rec is the
	// record's own number in the slab.
	addr types.Address
	rec  uint32
}

// build returns the transaction of entry i, one of s's, building a run
// member's on first demand and keeping it in the slab's column, so every
// caller that is handed the member gets the same object.
func (p *Pool) build(s *sender, i uint32) *types.Transaction {
	tx := p.entries.tx(i)
	if tx == nil {
		tx = s.run.Tx(int(p.entries.at(i).nonce - s.run.Nonce))
		p.entries.setTx(i, tx)
	}
	return tx
}

// adopt makes r the run of s, building every member of the one before that
// is still unbuilt.
func (p *Pool) adopt(s *sender, r *types.Run) {
	for _, i := range s.txs {
		p.build(s, i)
	}
	s.run = r
}

// search returns the position of nonce in s's nonce order and whether an
// entry with that nonce is buffered. A nil sender holds nothing.
func (p *Pool) search(s *sender, nonce uint64) (int, bool) {
	if s == nil {
		return 0, false
	}
	n := len(s.txs)
	if n == 0 || p.entries.at(s.txs[n-1]).nonce < nonce {
		return n, false
	}
	if first := p.entries.at(s.txs[0]).nonce; first >= nonce {
		return 0, first == nonce
	}
	lo, hi := 1, n-1 // txs[lo-1] < nonce <= txs[hi]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.entries.at(s.txs[mid]).nonce < nonce {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, p.entries.at(s.txs[lo]).nonce == nonce
}

// insertAt places entry e at position i of the nonce order.
//
//toposhot:hotpath
func (s *sender) insertAt(i int, e uint32) {
	s.txs = append(s.txs, e)
	if i < len(s.txs)-1 {
		copy(s.txs[i+1:], s.txs[i:])
		s.txs[i] = e
	}
}

// removeAt drops position i of the nonce order. The last entry leaves the
// slice's capacity as it is, and a head reslice never leaves a capacity of 2
// or less, so only an array allocated with at most two slots (the smallest
// []uint32 allocation holds two) ever has one.
//
//toposhot:hotpath
func (s *sender) removeAt(i int) {
	n := len(s.txs)
	switch {
	case n == 1:
		s.txs = s.txs[:0]
	case i == 0 && cap(s.txs) > 3:
		s.txs = s.txs[1:]
	default:
		copy(s.txs[i:], s.txs[i+1:])
		s.txs = s.txs[:n-1]
	}
}

// Pool is a single node's mempool. It is not safe for concurrent use; the
// simulator is single-threaded and the live TCP node wraps it in a mutex.
type Pool struct {
	policy Policy

	// A transaction can only sit in its sender's slot for its nonce, so the
	// pool needs no hash to tell whether it holds one (find). live answers the
	// common case before the slot is consulted: it holds the IDs of the
	// pending entries' transaction objects — the only ones gossip ever offers
	// or announces a second time. A bit set is exact membership (IDs are never
	// reused, and a pending object cannot be collected); a clear bit only
	// means "not this object", so content-equal copies still go to the slot.
	// An object draws its ID as it becomes pending, so one without an ID is
	// in no pool's set: futures never touch the process-wide counter.
	live idSet
	// senders holds one record per account with buffered entries or a
	// non-zero state nonce; idle zero-nonce accounts have none.
	senders senderTable
	// byHash serves the callers that hold nothing but a hash (lookup). It is
	// filled on demand: it indexes exactly the entries admitted up to
	// indexedSeq (the admission list ascends in seq, so that is a prefix of
	// it), and a by-hash call first indexes the younger tail. A pool nobody
	// asks by hash never computes one.
	byHash     map[types.Hash]uint32
	indexedSeq uint64

	// entries holds every entry, live or free, by number.
	entries entrySlab

	price entryHeap // min-heap over gas price for eviction victims
	// futures is a second index over future entries only, so the full-pool
	// pending-admission path finds its eviction victim in O(log n) instead
	// of scanning the whole pool.
	futures entryHeap
	// admitSeq numbers admissions; equal-price eviction ties break toward
	// the oldest admission, a defined order the old linear scan lacked.
	admitSeq uint64
	evictBuf []Victim // backs Result.Evicted: evicting allocates no slice

	// oldest/newest bound the admission-ordered list of live entries:
	// SetTime expires from oldest, Snapshot walks it. Live plus free entries
	// (entries.free) never outnumber the peak population, so the slab is
	// bounded by Capacity.
	oldest, newest uint32

	pendingCount int
	futureCount  int
	now          float64
	baseFee      uint64

	// DropObserver, when set, is invoked for every transaction that leaves
	// the pool involuntarily (eviction, expiry), with a reason tag.
	DropObserver func(tx *types.Transaction, reason string)

	// metrics, when set, tallies admissions, replacements, rejections per
	// reason, evictions and expiries. Nil (the default) costs one branch.
	metrics *Metrics
}

// New returns an empty pool with the given policy.
func New(policy Policy) *Pool {
	p := &Pool{policy: policy}
	p.price = entryHeap{kind: priceHeap, slab: &p.entries}
	p.futures = entryHeap{kind: futureHeap, slab: &p.entries}
	return p
}

// Policy returns the pool's policy.
func (p *Pool) Policy() Policy { return p.policy }

// SetMetrics attaches an instrument set to the pool (nil detaches). Several
// pools may share one Metrics value; counts then aggregate.
func (p *Pool) SetMetrics(m *Metrics) { p.metrics = m }

// SetTime advances the pool clock (virtual seconds) and expires transactions
// older than the policy expiry. The admission list is age-ordered, so expiry
// is O(expired).
//
//toposhot:hotpath
func (p *Pool) SetTime(now float64) {
	p.now = now
	if p.policy.Expiry <= 0 {
		return
	}
	for e := p.oldest; e != 0 && now-p.entries.at(e).added > p.policy.Expiry; e = p.oldest {
		var tx *types.Transaction
		if p.DropObserver != nil {
			tx = p.object(e)
		}
		p.repartitionAfterRemove(e)
		p.metrics.observeExpired()
		if p.DropObserver != nil {
			p.DropObserver(tx, "expired")
		}
	}
}

// Len returns the number of buffered transactions.
func (p *Pool) Len() int { return p.pendingCount + p.futureCount }

// PendingCount returns the number of executable transactions.
func (p *Pool) PendingCount() int { return p.pendingCount }

// FutureCount returns the number of nonce-gapped transactions.
func (p *Pool) FutureCount() int { return p.futureCount }

// find returns the number of the entry holding tx — the same object or one
// of equal content — or 0. No hash is computed: tx can only sit in the one
// slot its sender and nonce name.
//
//toposhot:hotpath
func (p *Pool) find(tx *types.Transaction) uint32 {
	s := p.senders.get(&tx.From)
	if i, ok := p.search(s, tx.Nonce); ok {
		if e := s.txs[i]; p.holds(s, e, &offered{tx: tx}) {
			return e
		}
	}
	return 0
}

// Contains reports whether the pool holds tx (by content, as Has would for
// its hash). Callers that hold the transaction ask this way; Has, Get,
// IsPending and Drop are for callers that hold only a hash.
//
//toposhot:hotpath
func (p *Pool) Contains(tx *types.Transaction) bool {
	return p.livePending(tx) || p.find(tx) != 0
}

// ContainsPending reports whether the pool holds tx as a pending transaction.
//
//toposhot:hotpath
func (p *Pool) ContainsPending(tx *types.Transaction) bool {
	if p.livePending(tx) {
		return true
	}
	e := p.find(tx)
	return e != 0 && p.entries.at(e).pending
}

// livePending reports whether the pool holds this very object pending. An
// object that has not drawn an ID is in no live set, and asking draws none.
func (p *Pool) livePending(tx *types.Transaction) bool {
	id := tx.AssignedID()
	return id != 0 && p.live.has(id)
}

// lookup returns the number of the entry with the given hash, or 0, after
// bringing the by-hash index up to date with the admission list — so Has, Get
// and IsPending write to the pool, and a caller sharing one between goroutines
// holds its lock exclusively for them too. The first call sizes the map for
// the whole pool: grown by doubling instead, a pool probed once at the end of
// a run would carry the garbage of every smaller table it outgrew.
func (p *Pool) lookup(h types.Hash) uint32 {
	if p.indexedSeq != p.admitSeq {
		if p.byHash == nil {
			p.byHash = make(map[types.Hash]uint32, p.Len())
		}
		for e := p.newest; e != 0 && p.entries.at(e).seq > p.indexedSeq; e = p.entries.at(e).prev {
			p.byHash[p.object(e).Hash()] = e
		}
		p.indexedSeq = p.admitSeq
	}
	return p.byHash[h]
}

// Has reports whether the pool holds the transaction with the given hash.
func (p *Pool) Has(h types.Hash) bool { return p.lookup(h) != 0 }

// Get returns the buffered transaction with the given hash, or nil.
func (p *Pool) Get(h types.Hash) *types.Transaction {
	if e := p.lookup(h); e != 0 {
		return p.object(e)
	}
	return nil
}

// GetBySenderNonce returns the buffered transaction from sender with the
// given nonce, or nil.
func (p *Pool) GetBySenderNonce(sender types.Address, nonce uint64) *types.Transaction {
	s := p.senders.get(&sender)
	if i, ok := p.search(s, nonce); ok {
		return p.build(s, s.txs[i])
	}
	return nil
}

// IsPending reports whether the hash is buffered as a pending transaction.
func (p *Pool) IsPending(h types.Hash) bool {
	e := p.lookup(h)
	return e != 0 && p.entries.at(e).pending
}

// StateNonce returns the chain nonce recorded for sender.
func (p *Pool) StateNonce(sender types.Address) uint64 {
	if s := p.senders.get(&sender); s != nil {
		return s.stateNonce
	}
	return 0
}

// SetStateNonce records sender's chain nonce. It re-evaluates the sender's
// buffered transactions: stale ones are dropped (in ascending nonce order)
// and newly executable ones promoted. It returns the promoted transactions.
//
//toposhot:hotpath
func (p *Pool) SetStateNonce(addr types.Address, nonce uint64) []*types.Transaction {
	s := p.senders.get(&addr)
	if s == nil {
		if nonce != 0 {
			p.senders.add(&addr).stateNonce = nonce
		}
		return nil
	}
	s.stateNonce = nonce
	for len(s.txs) > 0 && p.entries.at(s.txs[0]).nonce < nonce {
		p.remove(s.txs[0])
	}
	if len(s.txs) == 0 {
		p.releaseIfIdle(s)
		return nil
	}
	return p.repartition(s)
}

// releaseIfIdle forgets a sender that holds no entries and sits at nonce 0 —
// indistinguishable from an account the pool never saw — and returns its
// record to the table's free stack, so s is dead afterwards.
//
//toposhot:hotpath
func (p *Pool) releaseIfIdle(s *sender) {
	if len(s.txs) == 0 && s.stateNonce == 0 {
		p.senders.release(s)
	}
}

// markPending flips entry i's pending flag, keeping the global and
// per-sender tallies and the pending-only live index in sync.
func (p *Pool) markPending(i uint32, pending bool) {
	e := p.entries.at(i)
	if e.pending == pending {
		return
	}
	e.pending = pending
	s := p.senders.at(e.rec)
	if pending {
		p.live.add(p.build(s, i).ID())
		p.pendingCount++
		p.futureCount--
		s.pending++
		s.future--
	} else {
		p.live.remove(p.entries.tx(i).ID())
		p.pendingCount--
		p.futureCount++
		s.pending--
		s.future++
	}
}

// Offer submits a transaction to the pool and returns what happened. This is
// the single admission path; it implements, in order:
//
//  1. duplicate and stale-nonce filtering (a duplicate is the same object,
//     or equal content in the same sender slot — never a hash);
//  2. same-sender/nonce replacement under the R price-bump rule;
//  3. the per-account future cap U;
//  4. capacity-pressure eviction under the L/P rules, evicting the
//     lowest-priced transaction while the pool is over capacity;
//  5. pending/future classification and promotion of unblocked futures.
func (p *Pool) Offer(tx *types.Transaction) Result {
	res := p.offer(offered{tx: tx, nonce: tx.Nonce, price: tx.GasPrice})
	p.metrics.observeOffer(res)
	return res
}

// OfferRun offers member k of r. It decides and returns what Offer(r.Tx(k))
// would, but the pool keeps the member unbuilt until something asks for its
// object: a Result, a hook, a by-hash call, a snapshot, or its becoming
// pending.
func (p *Pool) OfferRun(r *types.Run, k int) Result {
	res := p.offer(offered{run: r, nonce: r.Nonce + uint64(k), price: r.Price})
	p.metrics.observeOffer(res)
	return res
}

//toposhot:hotpath
func (p *Pool) offer(o offered) Result {
	if o.tx != nil && p.livePending(o.tx) {
		return Result{Status: StatusKnown}
	}
	s := p.senders.get(o.from()) // nil for an account the pool holds nothing of
	var state uint64
	var futures int
	if s != nil {
		state, futures = s.stateNonce, int(s.future)
		if o.run != nil && s.run != o.run {
			p.adopt(s, o.run)
		}
	}
	if o.nonce < state {
		return Result{Status: StatusStaleNonce}
	}

	// Replacement path: same sender and nonce as a buffered transaction.
	// The new entry takes the old one's slot in the nonce order.
	i, found := p.search(s, o.nonce)
	if found {
		old := s.txs[i]
		if p.holds(s, old, &o) {
			return Result{Status: StatusKnown}
		}
		oe := p.entries.at(old)
		if o.price < p.policy.ReplaceThreshold(oe.price) {
			return Result{Status: StatusUnderpriced}
		}
		replaced, wasPending := p.build(s, old), oe.pending
		p.unlink(old, s)
		s.txs[i] = p.link(&o, s, wasPending)
		return Result{Status: StatusReplaced, Replaced: replaced}
	}

	// Entries are distinct nonces at or above the state nonce, so every
	// nonce below the offered one is buffered exactly when i of them are.
	executable := uint64(i) == o.nonce-state

	// Per-account future cap (U) applies to future admissions.
	if !executable && futures >= p.policy.MaxFuturePerAccount {
		return Result{Status: StatusOverAccountCap}
	}

	// Capacity pressure: evict until there is room, or reject.
	evicted := p.evictBuf[:0]
	for p.Len() >= p.policy.Capacity {
		var victim uint32
		if executable {
			// Executable transactions are first-class: they displace the
			// cheapest queued future regardless of price (Geth truncates the
			// queue before touching pending slots), falling back to a
			// price-checked pending victim.
			victim = p.cheapestFuture()
			if victim == 0 {
				victim = p.cheapest()
				if victim == 0 || o.price <= p.entries.at(victim).price {
					return Result{Status: StatusPoolFull}
				}
			}
		} else {
			victim = p.cheapest()
			if victim == 0 {
				return Result{Status: StatusPoolFull}
			}
			// The incoming future must outbid the victim, and may evict a
			// pending transaction only while the pending population exceeds
			// P (Table 2's eviction conditions).
			ve := p.entries.at(victim)
			if o.price <= ve.price {
				return Result{Status: StatusPoolFull}
			}
			if ve.pending && p.pendingCount <= p.policy.MinPendingForEviction {
				return Result{Status: StatusPoolFull}
			}
		}
		// The observer is handed an object, and the victim carries the same
		// one; without an observer an unbuilt member stays unbuilt.
		if p.DropObserver != nil {
			p.object(victim)
		}
		v, own := p.victim(victim), s != nil && p.entries.at(victim).rec == s.rec
		p.remove(victim)
		if own {
			// The victim was one of the offer's own sender's entries: the
			// record may be released and the slot has moved. The
			// classification above stands (repartition below corrects it),
			// as it always has.
			s = p.senders.get(o.from())
			i, _ = p.search(s, o.nonce)
		}
		evicted = append(evicted, v)
		if p.DropObserver != nil {
			p.DropObserver(v.tx, "evicted")
		}
	}
	p.evictBuf = evicted

	if s == nil {
		s = p.senders.add(o.from())
	}
	if o.run != nil && len(s.txs) == cap(s.txs) {
		// A full nonce array grows once to hold the rest of the run, not by
		// doubling per member.
		s.txs = slices.Grow(s.txs, o.run.Count-int(o.nonce-o.run.Nonce))
	}
	s.insertAt(i, p.link(&o, s, executable))
	status := StatusFuture
	var promoted []*types.Transaction
	if executable {
		status = StatusPending
		// The offer went in pending, so repartition never reports it as
		// promoted.
		promoted = p.repartition(s)
	}
	return Result{Status: status, Evicted: evicted[:len(evicted):len(evicted)], Promoted: promoted}
}

// link creates the entry for o and adds it to every index except its
// sender's nonce order, which the caller maintains, returning its number. A
// pending entry draws its object's ID, so a pending run member is built here.
//
//toposhot:hotpath
func (p *Pool) link(o *offered, s *sender, pending bool) uint32 {
	i := p.entries.alloc()
	p.admitSeq++
	if o.run != nil {
		s.run = o.run // a new record's; offer adopted it into an existing one
	}
	*p.entries.at(i) = entry{rec: s.rec, nonce: o.nonce, price: o.price, added: p.now, seq: p.admitSeq,
		pending: pending, idx: [2]int32{-1, -1}}
	p.entries.setTx(i, o.tx)
	p.enlist(i)
	p.price.push(i)
	if pending {
		p.live.add(p.build(s, i).ID())
		p.pendingCount++
		s.pending++
	} else {
		p.futureCount++
		s.future++
		p.futures.push(i)
	}
	return i
}

// enlist appends entry i to the admission-ordered list.
func (p *Pool) enlist(i uint32) {
	p.entries.at(i).prev = p.newest
	if p.newest != 0 {
		p.entries.at(p.newest).next = i
	} else {
		p.oldest = i
	}
	p.newest = i
}

// unlink is link's inverse: it takes entry i of s out of every index except
// s's nonce order and recycles it. Its fields and object are dead afterwards
// — callers take p.object(i) (and anything else they need) first. An indexed
// or pending entry has its object: lookup or link built it.
//
//toposhot:hotpath
func (p *Pool) unlink(i uint32, s *sender) {
	e := p.entries.at(i)
	if e.seq <= p.indexedSeq {
		delete(p.byHash, p.entries.tx(i).Hash()) // memoized when i was indexed
	}
	p.price.remove(i)
	p.futures.remove(i)
	if e.pending {
		p.live.remove(p.entries.tx(i).ID())
		p.pendingCount--
		s.pending--
	} else {
		p.futureCount--
		s.future--
	}
	if e.prev != 0 {
		p.entries.at(e.prev).next = e.next
	} else {
		p.oldest = e.next
	}
	if e.next != 0 {
		p.entries.at(e.next).prev = e.prev
	} else {
		p.newest = e.prev
	}
	p.entries.release(i)
}

// remove deletes entry i from all indexes and recycles it; take p.object(i)
// before calling. A sender left with nothing to remember is forgotten.
//
//toposhot:hotpath
func (p *Pool) remove(i uint32) {
	e := p.entries.at(i)
	s := p.senders.at(e.rec)
	k := 0
	if s.txs[0] != i {
		k, _ = p.search(s, e.nonce)
	}
	s.removeAt(k)
	p.unlink(i, s)
	p.releaseIfIdle(s)
}

// repartitionAfterRemove removes entry i and re-derives its sender's
// pending/future split around the hole. A sender left with nothing has gone
// to the free stack, empty, and needs none.
//
//toposhot:hotpath
func (p *Pool) repartitionAfterRemove(i uint32) {
	s := p.senders.at(p.entries.at(i).rec)
	p.remove(i)
	if len(s.txs) > 0 {
		p.repartition(s)
	}
}

// cheapest returns the lowest-priced entry, or 0 when the pool is empty.
func (p *Pool) cheapest() uint32 { return p.price.top() }

// cheapestFuture returns the lowest-priced future entry (oldest admission on
// price ties), or 0 when no futures are buffered. The dedicated future heap
// makes the full-pool pending-admission path O(log n); it used to scan the
// whole pool.
func (p *Pool) cheapestFuture() uint32 { return p.futures.top() }

// repartition re-derives the pending/future flags for one sender's
// transactions after an insertion or nonce change, returning transactions
// that transitioned future → pending, in ascending nonce order.
//
//toposhot:hotpath
func (p *Pool) repartition(s *sender) []*types.Transaction {
	var promoted []*types.Transaction
	// The executable run is the prefix whose nonces count up from the state
	// nonce without a gap.
	run := 0
	for run < len(s.txs) && p.entries.at(s.txs[run]).nonce == s.stateNonce+uint64(run) {
		i := s.txs[run]
		if !p.entries.at(i).pending {
			p.markPending(i, true)
			p.futures.remove(i)
			//lint:ignore hotalloc result slice handed to the caller; empty unless a nonce gap closed
			promoted = append(promoted, p.entries.tx(i))
		}
		run++
	}
	// Demote anything beyond the gap that is marked pending (can happen
	// after a mid-sequence removal), in ascending nonce order. The walk
	// above left the whole run pending, so when the sender's pending tally
	// equals the run's length no stale pending entry can exist and the scan
	// is skipped — without the check every future admission pays O(entries).
	if int(s.pending) != run {
		for _, i := range s.txs[run:] {
			if p.entries.at(i).pending {
				p.markPending(i, false)
				p.futures.push(i)
			}
		}
	}
	return promoted
}

// RemoveConfirmed removes transactions included in a block and advances the
// senders' state nonces, returning newly promoted transactions.
func (p *Pool) RemoveConfirmed(txs []*types.Transaction) []*types.Transaction {
	touched := make(map[types.Address]uint64)
	for _, tx := range txs {
		if e := p.find(tx); e != 0 {
			p.remove(e)
		}
		if next := tx.Nonce + 1; next > touched[tx.From] {
			touched[tx.From] = next
		}
	}
	// Advance senders in sorted order so the promotion sequence (and any
	// observer callbacks it fires) is identical across runs.
	senders := make([]types.Address, 0, len(touched))
	for sender := range touched {
		senders = append(senders, sender)
	}
	sort.Slice(senders, func(i, j int) bool {
		return string(senders[i][:]) < string(senders[j][:])
	})
	var promoted []*types.Transaction
	for _, sender := range senders {
		if next := touched[sender]; next > p.StateNonce(sender) {
			promoted = append(promoted, p.SetStateNonce(sender, next)...)
		}
	}
	return promoted
}

// Drop removes a specific transaction (used by tests and by the chain layer
// for invalidated transactions). It reports whether the hash was present.
func (p *Pool) Drop(h types.Hash) bool {
	e := p.lookup(h)
	if e == 0 {
		return false
	}
	p.repartitionAfterRemove(e)
	return true
}

// Pending returns the executable transactions ordered by descending gas
// price (miner order). Ties break on sender/nonce for determinism.
func (p *Pool) Pending() []*types.Transaction {
	out := make([]*types.Transaction, 0, p.pendingCount)
	for e := p.oldest; e != 0; e = p.entries.at(e).next {
		if p.entries.at(e).pending {
			out = append(out, p.object(e))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].GasPrice != out[j].GasPrice {
			return out[i].GasPrice > out[j].GasPrice
		}
		if out[i].From != out[j].From {
			return string(out[i].From[:]) < string(out[j].From[:])
		}
		return out[i].Nonce < out[j].Nonce
	})
	return out
}

// Content returns every buffered transaction, ordered by hash so the
// txpool_content RPC view is stable across runs.
func (p *Pool) Content() []*types.Transaction {
	out := make([]*types.Transaction, 0, p.Len())
	for e := p.oldest; e != 0; e = p.entries.at(e).next {
		out = append(out, p.object(e))
	}
	sort.Slice(out, func(i, j int) bool {
		hi, hj := out[i].Hash(), out[j].Hash()
		return string(hi[:]) < string(hj[:])
	})
	return out
}

// PendingPrices returns the gas prices of pending transactions in ascending
// order; the measurement node feeds this to the median estimator for Y
// (§5.2.1).
func (p *Pool) PendingPrices() []uint64 {
	out := make([]uint64, 0, p.pendingCount)
	for i := p.oldest; i != 0; {
		e := p.entries.at(i)
		if e.pending {
			out = append(out, e.price)
		}
		i = e.next
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

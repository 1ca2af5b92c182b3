package txpool

import (
	"runtime"
	"testing"

	"toposhot/internal/types"
)

// The per-layer benchmarks time the pool's admission paths in isolation, in
// the shapes the measurement primitive produces them. Transactions are minted
// and hashed with the timer stopped, so the figures are the pool's alone.

const benchBatch = 4096

// benchPending mints n executable transactions from distinct senders.
func benchPending(base uint64, n int, price uint64) []*types.Transaction {
	txs := make([]*types.Transaction, n)
	for i := range txs {
		txs[i] = types.NewTransaction(acct(base+uint64(i)), acct(1), 0, price, 0)
		txs[i].Hash()
	}
	return txs
}

// benchFutures mints n nonce-gapped transactions over accounts of at most
// perAccount each — how core.Measurer fills a mempool.
func benchFutures(base uint64, n, perAccount int, price uint64) []*types.Transaction {
	txs := make([]*types.Transaction, 0, n)
	for a := base; len(txs) < n; a++ {
		for i := 0; i < perAccount && len(txs) < n; i++ {
			ftx := types.NewTransaction(acct(a), acct(1), uint64(i+1), price, 0)
			ftx.Hash()
			txs = append(txs, ftx)
		}
	}
	return txs
}

// benchOffers times one Offer per iteration; setup runs with the timer
// stopped whenever the previous batch is used up.
func benchOffers(b *testing.B, setup func(round uint64) (*Pool, []*types.Transaction)) {
	b.ReportAllocs()
	var pool *Pool
	var txs []*types.Transaction
	var round uint64
	for i := 0; i < b.N; i++ {
		if len(txs) == 0 {
			b.StopTimer()
			pool, txs = setup(round)
			round++
			runtime.GC() // so the batch does not pay for collecting its own setup
			b.StartTimer()
		}
		pool.Offer(txs[0])
		txs = txs[1:]
	}
}

// benchHeld returns a roomy pool already holding a batch of pendings.
func benchHeld(round uint64) (*Pool, []*types.Transaction) {
	pool := New(Geth.WithCapacity(4 * benchBatch))
	txs := benchPending(round*benchBatch, benchBatch, types.Gwei)
	for _, ptx := range txs {
		pool.Offer(ptx)
	}
	return pool, txs
}

// BenchmarkPoolAdmit: first transaction of a new account into a roomy pool.
func BenchmarkPoolAdmit(b *testing.B) {
	benchOffers(b, func(round uint64) (*Pool, []*types.Transaction) {
		return New(Geth.WithCapacity(4 * benchBatch)), benchPending(round*benchBatch, benchBatch, types.Gwei)
	})
}

// BenchmarkPoolKnown: the duplicate look-up gossip pays on every redundant
// delivery.
func BenchmarkPoolKnown(b *testing.B) {
	benchOffers(b, benchHeld)
}

// BenchmarkPoolReplace: a same-sender/nonce replacement above the bump.
func BenchmarkPoolReplace(b *testing.B) {
	benchOffers(b, func(round uint64) (*Pool, []*types.Transaction) {
		pool, held := benchHeld(round)
		repl := make([]*types.Transaction, len(held))
		for i, old := range held {
			repl[i] = types.NewTransaction(old.From, old.To, old.Nonce, types.Gwei*12/10, 0)
			repl[i].Hash()
		}
		return pool, repl
	})
}

// BenchmarkPoolEvictAtFull: a future outbidding the cheapest pending of a
// full pool — one eviction per offer.
func BenchmarkPoolEvictAtFull(b *testing.B) {
	benchOffers(b, func(round uint64) (*Pool, []*types.Transaction) {
		pool := New(Geth.WithCapacity(benchBatch))
		for _, ptx := range benchPending(round*benchBatch, benchBatch, types.Gwei) {
			pool.Offer(ptx)
		}
		return pool, benchFutures(1<<40+round*benchBatch, benchBatch, Geth.MaxFuturePerAccount, 2*types.Gwei)
	})
}

// BenchmarkPoolFillZExpire is one probe's worth of pool traffic per
// iteration on a scaled pool: Z futures from one fresh account evict a full
// pool of pendings, the clock passes the expiry and drops them all, and
// background pendings refill the pool.
func BenchmarkPoolFillZExpire(b *testing.B) {
	const z, cycles = 512, 32
	pol := Geth.WithCapacity(z).WithExpiry(60)
	pool := New(pol)
	for _, ptx := range benchPending(1<<50, z, types.Gwei) {
		pool.Offer(ptx)
	}
	b.ReportAllocs()
	var fill, refill []*types.Transaction
	now := 0.0
	for i := 0; i < b.N; i++ {
		if i%cycles == 0 {
			b.StopTimer()
			fill = benchFutures(1<<40+uint64(i), cycles*z, z, 2*types.Gwei)
			refill = benchPending(uint64(i)*z, cycles*z, types.Gwei)
			b.StartTimer()
		}
		c := i % cycles
		for _, ftx := range fill[c*z : (c+1)*z] {
			pool.Offer(ftx)
		}
		now += pol.Expiry + 1
		pool.SetTime(now)
		for _, ptx := range refill[c*z : (c+1)*z] {
			pool.Offer(ptx)
		}
		if pool.Len() != z || pool.FutureCount() != 0 {
			b.Fatalf("cycle %d left %d entries, %d futures", i, pool.Len(), pool.FutureCount())
		}
	}
}

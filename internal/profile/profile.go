// Package profile implements the mempool-profiling harness of §5.1: the
// black-box unit tests a measurement node runs against a target client to
// recover its replacement/eviction parameters R, U, P and L (Table 3).
//
// The profiler drives the target's admission interface the way the paper's
// instrumented node M drives a target node T: it constructs mempool states
// (l pending + L−l future transactions), injects probes, and observes which
// are admitted — it never reads the target's policy directly.
package profile

import (
	"fmt"

	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// Result is a recovered client profile in the paper's notation.
type Result struct {
	Client string
	// R is the minimal relative price bump that triggers replacement
	// (0.10 = 10%).
	R float64
	// U is the max future transactions admitted per account; -1 reports
	// "unbounded" (no cap found within the probe budget).
	U int
	// P is the minimal pending population required for future-driven
	// eviction.
	P int
	// L is the mempool capacity.
	L int
	// Measurable mirrors §5.1's conclusion: clients with R = 0 cannot be
	// measured by TopoShot (and are flagged as flood-prone).
	Measurable bool
}

// String renders the profile as a Table-3 row.
func (r Result) String() string {
	u := fmt.Sprintf("%d", r.U)
	if r.U < 0 {
		u = "∞"
	}
	return fmt.Sprintf("%-12s R=%5.1f%%  U=%6s  P=%5d  L=%6d  measurable=%v",
		r.Client, 100*r.R, u, r.P, r.L, r.Measurable)
}

// basePrice keeps probe prices far from zero so percentage bumps resolve
// exactly in integer Wei.
const basePrice = 1_000_000_000 // 1 Gwei

// seq mints deterministic distinct accounts for the profiler.
type seq struct{ n uint64 }

func (s *seq) account() types.Address {
	s.n++
	return types.AddressFromUint64(0xbeef<<32 | s.n)
}

// uCapProbeBudget bounds the per-account future sweep; a client admitting
// this many futures from one account is reported unbounded (Besu).
const uCapProbeBudget = 1 << 16

// Profile recovers all four parameters of a client policy by black-box
// probing fresh pools built with it.
func Profile(policy txpool.Policy) Result {
	r := Result{Client: policy.Name}
	r.L = MeasureL(policy)
	r.R = MeasureR(policy)
	r.U = MeasureU(policy)
	r.P = MeasureP(policy, r.L)
	r.Measurable = r.R > 0
	return r
}

// MeasureL probes the mempool capacity: offer ever more pending
// transactions from distinct accounts until admission stops growing the
// pool. Prices descend so no eviction can mask the cap.
func MeasureL(policy txpool.Policy) int {
	pool := txpool.New(policy)
	var s seq
	price := uint64(basePrice * 64)
	for i := 0; ; i++ {
		if price > basePrice {
			price--
		}
		tx := types.NewTransaction(s.account(), s.account(), 0, price, 0)
		res := pool.Offer(tx)
		if !res.Status.Admitted() {
			return pool.Len()
		}
		if i > 1<<22 {
			return -1 // give up: effectively unbounded
		}
	}
}

// MeasureR binary-searches the minimal replacement price over a buffered
// transaction priced at basePrice and returns the relative bump.
// The probe pool holds exactly one transaction, so no eviction interferes.
func MeasureR(policy txpool.Policy) float64 {
	var s seq
	sender, dest := s.account(), s.account()
	admitted := func(price uint64) bool {
		pool := txpool.New(policy)
		old := types.NewTransaction(sender, dest, 0, basePrice, 0)
		if res := pool.Offer(old); res.Status != txpool.StatusPending {
			panic("profile: seed tx rejected")
		}
		// Value 1 (vs the seed's 0) keeps the probe's hash distinct even at
		// equal price, so R=0 clients register a replacement rather than a
		// duplicate.
		probe := types.NewTransaction(sender, dest, 0, price, 1)
		return pool.Offer(probe).Status == txpool.StatusReplaced
	}
	// Invariant: lo not admitted (or base), hi admitted.
	lo, hi := uint64(basePrice), uint64(basePrice*2)
	for !admitted(hi) {
		hi *= 2
		if hi > basePrice<<10 {
			return -1
		}
	}
	if admitted(basePrice) {
		return 0
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if admitted(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return float64(hi-basePrice) / float64(basePrice)
}

// MeasureU offers futures from one account (nonces 2,3,...; nonce 0 left
// open so they stay future) into an otherwise empty pool and counts how
// many are admitted before the per-account cap rejects one. Prices ascend
// so capacity pressure resolves by futures evicting older futures, which
// separates an unbounded per-account allowance (Besu) from a mere capacity
// limit.
func MeasureU(policy txpool.Policy) int {
	pool := txpool.New(policy)
	var s seq
	sender := s.account()
	for i := 0; i < uCapProbeBudget; i++ {
		tx := types.NewTransaction(sender, s.account(), uint64(i+2), basePrice+uint64(i), 0)
		res := pool.Offer(tx)
		if !res.Status.Admitted() {
			return i
		}
	}
	return -1 // unbounded within budget (Besu)
}

// MeasureP sweeps the pending population l of a full pool (capacity txs:
// l pending + L−l futures) and reports the smallest l at which a
// higher-priced incoming future successfully evicts a pending transaction.
// Matching the paper's tests, the sweep is linear in coarse steps with a
// fine pass around the transition.
func MeasureP(policy txpool.Policy, capacity int) int {
	if capacity <= 0 {
		return -1
	}
	works := func(l int) bool { return evictionWorks(policy, capacity, l) }
	if works(1) {
		// Clients with P=0 evict with any pending present.
		return 0
	}
	// Coarse then fine search for the smallest working l.
	step := capacity / 16
	if step < 1 {
		step = 1
	}
	lo, hi := 1, -1
	for l := step; l <= capacity; l += step {
		if works(l) {
			hi = l
			break
		}
		lo = l
	}
	if hi < 0 {
		return -1
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if works(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi - 1 // eviction requires strictly more than P pendings
}

// evictionWorks builds a full pool with l pendings (at basePrice) and L−l
// futures (at 4× basePrice, so the cheapest victim is always a pending)
// and reports whether a future probe at 2× basePrice evicts a pending
// transaction — the condition P gates.
func evictionWorks(policy txpool.Policy, capacity, l int) bool {
	pool := txpool.New(policy)
	var s seq
	for i := 0; i < l; i++ {
		tx := types.NewTransaction(s.account(), s.account(), 0, basePrice, 0)
		if !pool.Offer(tx).Status.Admitted() {
			return false
		}
	}
	// Futures spread across accounts to stay under any per-account cap.
	perAcct := policy.MaxFuturePerAccount
	if perAcct < 1 || perAcct > 64 {
		perAcct = 64
	}
	for pool.Len() < capacity {
		sender := s.account()
		for i := 0; i < perAcct && pool.Len() < capacity; i++ {
			tx := types.NewTransaction(sender, s.account(), uint64(i+2), basePrice*4, 0)
			if !pool.Offer(tx).Status.Admitted() {
				return false
			}
		}
	}
	probe := types.NewTransaction(s.account(), s.account(), 2, basePrice*2, 0)
	res := pool.Offer(probe)
	if !res.Status.Admitted() {
		return false
	}
	for _, v := range res.Evicted {
		if ev := v.Tx(); pool.StateNonce(ev.From) == ev.Nonce && ev.GasPrice == basePrice {
			return true // a pending fell victim
		}
	}
	return false
}

// ProfileAll profiles every Table-3 preset.
func ProfileAll() []Result {
	out := make([]Result, 0, len(txpool.AllClients))
	for _, p := range txpool.AllClients {
		out = append(out, Profile(p))
	}
	return out
}

package txpool

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"toposhot/internal/types"
)

// runPool is one side of FuzzFutureRun: a pool and the log of its
// DropObserver calls.
type runPool struct {
	p *Pool
	// objects makes the pool receive every run member as a fresh r.Tx(k)
	// object instead of through OfferRun.
	objects  bool
	observed []string
}

func (rp *runPool) observe() {
	rp.p.DropObserver = func(tx *types.Transaction, reason string) {
		rp.observed = append(rp.observed, reason+" "+tx.String())
	}
}

func (rp *runPool) member(r *types.Run, k int) Result {
	if rp.objects {
		return rp.p.Offer(r.Tx(k))
	}
	return rp.p.OfferRun(r, k)
}

// resultText renders a Result by content: victims through Tx, since a
// victim's own fields are pointers that differ between pools.
func resultText(res Result) string {
	return fmt.Sprintf("%v replaced=%v evicted=%v promoted=%v", res.Status, res.Replaced, victimTxs(res.Evicted), res.Promoted)
}

// victimTxs returns the victims' transactions.
func victimTxs(vs []Victim) []*types.Transaction {
	txs := make([]*types.Transaction, len(vs))
	for i, v := range vs {
		txs[i] = v.Tx()
	}
	return txs
}

func contentText(txs []*types.Transaction) string {
	var b strings.Builder
	for _, tx := range txs {
		b.WriteString(tx.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// FuzzFutureRun is a differential test of run members: two pools take one
// seeded stream of operations, one receiving fill members through OfferRun,
// which keeps them unbuilt, the other a fresh r.Tx(k) object per offer. The
// stream interleaves members of runs that share senders with ordinary
// offers at tied prices, objects of a member's content (and of that content
// with another tip) meeting the unbuilt member in its slot, expiry, state
// nonces that close a run's gap so that its members turn pending and draw
// IDs, drops by hash, and a mid-stream restore. After every operation each
// Result, the DropObserver calls, the Snapshot and the Content must match by
// content, and both pools must pass invariantCheck. Each input runs twice:
// with a DropObserver on both pools, whose calls must match too, and with
// none, so that evicted members stay unbuilt and their victims carry the run.
func FuzzFutureRun(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(300))
	f.Add(int64(34), uint8(77), uint16(600))
	f.Add(int64(-5), uint8(200), uint16(450))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, steps uint16) {
		futureRun(t, seed, shape, steps, true)
		futureRun(t, seed, shape, steps, false)
	})
}

// futureRun is one pass of FuzzFutureRun; watch sets a DropObserver on both
// pools.
func futureRun(t *testing.T, seed int64, shape uint8, steps uint16, watch bool) {
	rng := rand.New(rand.NewSource(seed))
	capacity := 16 + int(shape)%49
	pol := Geth.WithCapacity(capacity).WithExpiry(6)
	pol.MaxFuturePerAccount = 2 + int(shape)%5
	pol.MinPendingForEviction = capacity / 8
	if shape >= 128 {
		pol.BumpMil = 0 // same-price replacement: only content tells known from replaced
	}
	pools := [2]*runPool{{p: New(pol)}, {p: New(pol), objects: true}}
	for _, rp := range pools {
		if watch {
			rp.observe()
		}
	}
	senders := uint64(capacity/4 + 2)
	prices := []uint64{100, 100, 110, 110, 120, 200}
	var runs []*types.Run
	delivered := make(map[*types.Run]int) // members delivered so far, in order
	var minted []*types.Transaction
	toSeq, now := uint64(0), 0.0

	// both runs op on each pool and requires equal renderings.
	both := func(step int, what string, op func(rp *runPool) string) {
		a, b := op(pools[0]), op(pools[1])
		if a != b {
			t.Fatalf("observed=%v step %d %s:\n run members: %s\n objects:     %s", watch, step, what, a, b)
		}
	}
	offer := func(step int, what string, tx *types.Transaction) {
		both(step, what+" "+tx.String(), func(rp *runPool) string { return resultText(rp.p.Offer(tx.Copy())) })
	}
	// mint adds a run over some sender's next nonces; starting at the
	// state nonce, its first member is executable.
	mint := func() *types.Run {
		from := acct(uint64(rng.Intn(int(senders))))
		r := &types.Run{From: from, Nonce: pools[0].p.StateNonce(from) + uint64(rng.Intn(3)),
			Count: 1 + rng.Intn(2*pol.MaxFuturePerAccount+2), Price: prices[rng.Intn(len(prices))],
			ToSpace: types.SpaceTopoShot, ToSeq: toSeq}
		if rng.Intn(4) == 0 {
			r.Tip = 5
		}
		toSeq += uint64(r.Count)
		runs = append(runs, r)
		return r
	}
	ordinary := func() *types.Transaction {
		s := acct(uint64(rng.Intn(int(senders))))
		nonce := pools[0].p.StateNonce(s) + uint64(rng.Intn(5))
		tx := types.NewTransaction(s, acct(1_000_000+uint64(rng.Intn(2))), nonce, prices[rng.Intn(len(prices))], 0)
		minted = append(minted, tx)
		return tx
	}
	someMember := func() (*types.Run, int) {
		r := runs[rng.Intn(len(runs))]
		return r, rng.Intn(r.Count)
	}

	for step := 0; step < int(steps)%1024; step++ {
		switch op := rng.Intn(100); {
		case op < 45:
			// One delivery: a stretch of items, as one message carries
			// them, so members admitted here are still unbuilt when the
			// later items meet them.
			for n := 1 + rng.Intn(24); n > 0; n-- {
				switch c := rng.Intn(12); {
				case c < 6 || len(runs) == 0:
					var r *types.Run
					if len(runs) > 0 {
						r = runs[len(runs)-1]
					}
					if r == nil || delivered[r] == r.Count || rng.Intn(6) == 0 {
						r = mint()
					}
					k := delivered[r]
					delivered[r]++
					both(step, fmt.Sprintf("member %d of %+v", k, *r), func(rp *runPool) string { return resultText(rp.member(r, k)) })
				case c < 7:
					r, k := someMember()
					both(step, fmt.Sprintf("member %d of %+v again", k, *r), func(rp *runPool) string { return resultText(rp.member(r, k)) })
				case c < 9:
					r, k := someMember()
					offer(step, "member as an object", r.Tx(k))
				case c < 10:
					r, k := someMember()
					tx := r.Tx(k)
					tx.Tip++
					offer(step, "member with another tip", tx)
				default:
					offer(step, "ordinary", ordinary())
				}
			}
		case op < 55:
			now += 2 * rng.Float64()
			both(step, "SetTime", func(rp *runPool) string { rp.p.SetTime(now); return "" })
		case op < 67:
			// Half the time a run's own sender moves to the run's first
			// nonce: a gap below the run closes and its members turn
			// pending.
			var s types.Address
			var next uint64
			if len(runs) > 0 && rng.Intn(2) == 0 {
				r := runs[rng.Intn(len(runs))]
				s, next = r.From, r.Nonce
			} else {
				s = acct(uint64(rng.Intn(int(senders))))
				next = pools[0].p.StateNonce(s) + 1 + uint64(rng.Intn(2))
			}
			both(step, "SetStateNonce", func(rp *runPool) string { return fmt.Sprint(rp.p.SetStateNonce(s, next)) })
		case op < 80:
			offer(step, "ordinary", ordinary())
		case op < 86:
			var h types.Hash
			if len(runs) > 0 && rng.Intn(2) == 0 {
				r, k := someMember()
				h = r.Tx(k).Hash()
			} else if len(minted) > 0 {
				h = minted[rng.Intn(len(minted))].Copy().Hash()
			}
			both(step, "Drop", func(rp *runPool) string { return fmt.Sprint(rp.p.Drop(h)) })
		case op < 95:
			fee := uint64(0)
			if pools[0].p.BaseFee() == 0 {
				fee = prices[rng.Intn(len(prices))] + 1
			}
			both(step, "SetBaseFee", func(rp *runPool) string { return fmt.Sprint(rp.p.SetBaseFee(fee)) })
		default:
			both(step, "RestorePool", func(rp *runPool) string {
				p, err := RestorePool(pol, rp.p.Snapshot())
				if err != nil {
					return err.Error()
				}
				rp.p = p
				if watch {
					rp.observe()
				}
				return ""
			})
		}
		both(step, "observer calls", func(rp *runPool) string {
			s := fmt.Sprint(rp.observed)
			rp.observed = rp.observed[:0]
			return s
		})
		for _, rp := range pools {
			invariantCheck(t, rp.p) // before the snapshot below builds every member
		}
		both(step, "snapshot", func(rp *runPool) string { return snapshotText(rp.p.Snapshot()) })
		both(step, "content", func(rp *runPool) string { return contentText(rp.p.Content()) })
		if len(minted) > 4*capacity {
			minted = minted[len(minted)-2*capacity:]
		}
		if len(runs) > 16 {
			runs = runs[len(runs)-8:]
		}
	}
}

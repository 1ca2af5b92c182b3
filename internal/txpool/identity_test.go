package txpool

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"toposhot/internal/types"
)

// identityPool is one side of FuzzPoolIdentity: a pool and the log of its
// DropObserver calls.
type identityPool struct {
	p *Pool
	// fresh makes every transaction handed to the pool a new object of equal
	// content, so the pool can never recognize one by pointer.
	fresh    bool
	observed []string
}

func (ip *identityPool) observe() {
	ip.p.DropObserver = func(tx *types.Transaction, reason string) {
		ip.observed = append(ip.observed, reason+" "+tx.String())
	}
}

func (ip *identityPool) arg(tx *types.Transaction) *types.Transaction {
	if ip.fresh {
		return tx.Copy()
	}
	return tx
}

func (ip *identityPool) args(txs []*types.Transaction) []*types.Transaction {
	out := make([]*types.Transaction, len(txs))
	for i, tx := range txs {
		out[i] = ip.arg(tx)
	}
	return out
}

// snapshotText renders a snapshot by content (golden_test.go's form).
func snapshotText(s Snapshot) string {
	var b strings.Builder
	writeSnapshot(&b, s)
	return b.String()
}

// sameSnapshot reports whether two snapshots render the same snapshotText:
// entries compare by transaction content, everything else by value. It
// renders nothing, so a fuzz step pays for text only when it reports.
func sameSnapshot(a, b Snapshot) bool {
	return slices.EqualFunc(a.Entries, b.Entries, func(x, y EntrySnapshot) bool {
		return x.Added == y.Added && x.Seq == y.Seq && x.Pending == y.Pending && x.Tx.Equal(y.Tx)
	}) && slices.Equal(a.PriceOrder, b.PriceOrder) && slices.Equal(a.FutureOrder, b.FutureOrder) &&
		slices.Equal(a.StateNonces, b.StateNonces) && a.AdmitSeq == b.AdmitSeq && a.Now == b.Now && a.BaseFee == b.BaseFee
}

// checkByHash asks the pool about tx both ways and against membership read
// off the step's snapshot entries: the by-hash calls, which first bring the
// on-demand index up to date, must agree with identity by object and
// content. It is called several times per fuzz step, so it marks itself no
// helper: a failure names the step instead.
func checkByHash(t *testing.T, step int, p *Pool, ents []EntrySnapshot, tx *types.Transaction) {
	held, pending := false, false
	for _, e := range ents {
		if e.Tx.Equal(tx) {
			held, pending = true, e.Pending
		}
	}
	probe := tx.Copy()
	if p.Contains(tx) != held || p.Contains(probe) != held || p.ContainsPending(tx) != pending || p.ContainsPending(probe) != pending {
		t.Fatalf("step %d: %v held=%v pending=%v, Contains says %v/%v, ContainsPending %v/%v", step, tx,
			held, pending, p.Contains(tx), p.Contains(probe), p.ContainsPending(tx), p.ContainsPending(probe))
	}
	h := probe.Hash()
	got := p.Get(h)
	if p.Has(h) != held || (got != nil) != held || (got != nil && !got.Equal(tx)) {
		t.Fatalf("step %d: %v held=%v, Has says %v, Get %v", step, tx, held, p.Has(h), got)
	}
}

// FuzzPoolIdentity is a differential test of transaction identity: two pools
// take one seeded stream of operations, one receiving the stream's own
// objects (so it recognizes a pending transaction by pointer), the other a
// fresh copy on every call (so it can only ever recognize content through
// the sender slot). Every Result, every DropObserver call and every Snapshot
// must match by content, and for a sample of held and absent transactions
// the by-hash calls must agree with Contains/ContainsPending and with the
// snapshot. The by-hash index is filled on demand, so the two pools are
// probed on different schedules: identity must not depend on when anyone
// last asked by hash.
func FuzzPoolIdentity(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(400))
	f.Add(int64(42), uint8(48), uint16(1500))
	f.Add(int64(-7), uint8(255), uint16(800))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, steps uint16) {
		rng := rand.New(rand.NewSource(seed))
		capacity := 16 + int(shape)%49
		pol := Geth.WithCapacity(capacity).WithExpiry(4)
		pol.MaxFuturePerAccount = 3
		pol.MinPendingForEviction = capacity / 8
		if shape >= 128 {
			pol.BumpMil = 0 // same-price replacement: only content tells known from replaced
		}
		pools := [2]*identityPool{{p: New(pol)}, {p: New(pol), fresh: true}}
		for _, ip := range pools {
			ip.observe()
		}
		senders := uint64(capacity / 3)
		prices := []uint64{100, 100, 100, 110, 110, 120, 200, 300}
		var minted []*types.Transaction
		now := 0.0

		// both runs op on each pool and requires equal renderings.
		both := func(step int, what string, op func(ip *identityPool) string) {
			a, b := op(pools[0]), op(pools[1])
			if a != b {
				t.Fatalf("step %d %s:\n same objects: %s\n fresh copies: %s", step, what, a, b)
			}
		}
		for step := 0; step < int(steps)%2048; step++ {
			ref := pools[0].p
			switch k := rng.Intn(100); {
			case k < 60:
				var tx *types.Transaction
				if len(minted) > 0 && rng.Intn(4) == 0 {
					tx = minted[rng.Intn(len(minted))] // seen before: held, or long gone
				} else {
					s := acct(uint64(rng.Intn(int(senders))))
					state := ref.StateNonce(s)
					nonce := state + uint64(rng.Intn(6)) // up to 5 futures against U = 3
					if state > 0 && rng.Intn(20) == 0 {
						nonce = state - 1
					}
					price, to := prices[rng.Intn(len(prices))], acct(1_000_000+uint64(rng.Intn(2)))
					tx = types.NewTransaction(s, to, nonce, price, uint64(rng.Intn(2)))
					if rng.Intn(6) == 0 {
						tx = types.NewDynamicFeeTransaction(s, to, nonce, price, price/2, 0)
					}
					if rng.Intn(8) == 0 {
						tx.Data = []byte{byte(rng.Intn(2))}
					}
					minted = append(minted, tx)
				}
				both(step, "offer "+tx.String(), func(ip *identityPool) string { return resultText(ip.p.Offer(ip.arg(tx))) })
			case k < 70:
				now += rng.Float64()
				both(step, "SetTime", func(ip *identityPool) string { ip.p.SetTime(now); return "" })
			case k < 81:
				s := acct(uint64(rng.Intn(int(senders))))
				next := ref.StateNonce(s) + 1 + uint64(rng.Intn(2))
				both(step, "SetStateNonce", func(ip *identityPool) string { return fmt.Sprint(ip.p.SetStateNonce(s, next)) })
			case k < 92:
				block := ref.Pending()
				if len(block) > 3 {
					block = block[:3]
				}
				if rng.Intn(3) == 0 {
					s := acct(uint64(rng.Intn(int(senders))))
					block = append(block, types.NewTransaction(s, acct(2_000_000), ref.StateNonce(s), 900, 7))
				}
				both(step, "RemoveConfirmed", func(ip *identityPool) string { return fmt.Sprint(ip.p.RemoveConfirmed(ip.args(block))) })
			case k < 96:
				fee := uint64(0)
				if ref.baseFee == 0 {
					fee = prices[rng.Intn(len(prices))] + 1
				}
				both(step, "SetBaseFee", func(ip *identityPool) string { return fmt.Sprint(ip.p.SetBaseFee(fee)) })
			default:
				// Continue on restored pools; the copying side restores from
				// copies, so none of its entries keeps its object.
				both(step, "RestorePool", func(ip *identityPool) string {
					snap := ip.p.Snapshot()
					for i := range snap.Entries {
						snap.Entries[i].Tx = ip.arg(snap.Entries[i].Tx)
					}
					p, err := RestorePool(pol, snap)
					if err != nil {
						return err.Error()
					}
					ip.p = p
					ip.observe()
					return ""
				})
			}
			both(step, "observer calls", func(ip *identityPool) string {
				s := fmt.Sprint(ip.observed)
				ip.observed = ip.observed[:0]
				return s
			})
			// One snapshot per pool per step serves the comparison and every
			// by-hash probe below: nothing between them moves an entry.
			snaps := [2]Snapshot{pools[0].p.Snapshot(), pools[1].p.Snapshot()}
			if !sameSnapshot(snaps[0], snaps[1]) {
				t.Fatalf("step %d snapshot:\n same objects: %s\n fresh copies: %s", step, snapshotText(snaps[0]), snapshotText(snaps[1]))
			}
			for i, ip := range pools {
				invariantCheck(t, ip.p) // reads both indexes before any by-hash call below
				if i == 0 && rng.Intn(3) != 0 {
					continue // this side's by-hash index falls behind for a while
				}
				ents := snaps[i].Entries
				for n := 0; n < 3 && len(ents) > 0; n++ {
					checkByHash(t, step, ip.p, ents, ents[rng.Intn(len(ents))].Tx)
				}
				for n := 0; n < 3 && len(minted) > 0; n++ {
					checkByHash(t, step, ip.p, ents, minted[rng.Intn(len(minted))])
				}
				checkByHash(t, step, ip.p, ents, types.NewTransaction(acct(9_000_000), acct(1), 0, 100, 0))
			}
			if len(minted) > 4*capacity {
				minted = minted[len(minted)-2*capacity:]
			}
		}
	})
}

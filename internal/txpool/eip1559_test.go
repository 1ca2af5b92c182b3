package txpool

import (
	"testing"

	"toposhot/internal/types"
)

func dyn(from uint64, nonce, cap, tip uint64) *types.Transaction {
	return types.NewDynamicFeeTransaction(acct(from), acct(from+1_000_000), nonce, cap, tip, 0)
}

func TestSetBaseFeeDropsUnderpriced(t *testing.T) {
	p := New(small(100))
	cheap := dyn(1, 0, 100, 5)
	rich := dyn(2, 0, 500, 5)
	legacyCheap := tx(3, 0, 150)
	p.Offer(cheap)
	p.Offer(rich)
	p.Offer(legacyCheap)
	dropped := p.SetBaseFee(200)
	if len(dropped) != 2 {
		t.Fatalf("dropped %d, want 2", len(dropped))
	}
	if p.Has(cheap.Hash()) || p.Has(legacyCheap.Hash()) {
		t.Fatal("underpriced txs still buffered")
	}
	if !p.Has(rich.Hash()) {
		t.Fatal("rich tx dropped")
	}
	if p.baseFee != 200 {
		t.Fatalf("base fee = %d", p.baseFee)
	}
	if p.SetBaseFee(0) != nil {
		t.Fatal("zero base fee should drop nothing")
	}
}

func TestSetBaseFeeDemotesDependents(t *testing.T) {
	p := New(small(100))
	p.Offer(dyn(1, 0, 100, 1))
	p.Offer(dyn(1, 1, 500, 1))
	p.SetBaseFee(200) // nonce 0 dropped → nonce 1 must demote
	n1 := p.GetBySenderNonce(acct(1), 1)
	if n1 == nil {
		t.Fatal("nonce 1 dropped")
	}
	if p.ContainsPending(n1) {
		t.Fatal("nonce 1 still pending after dependency dropped")
	}
}

func TestDynamicFeeReplacementUsesCap(t *testing.T) {
	p := New(small(100))
	p.Offer(dyn(1, 0, 1000, 2))
	// Appendix E: the mempool keys replacement on the MAX FEE.
	low := dyn(1, 0, 1099, 900)
	if res := p.Offer(low); res.Status != StatusUnderpriced {
		t.Fatalf("9.9%% cap bump accepted: %v", res.Status)
	}
	ok := dyn(1, 0, 1100, 2)
	if res := p.Offer(ok); res.Status != StatusReplaced {
		t.Fatalf("10%% cap bump rejected: %v", res.Status)
	}
}

func TestEffectiveTip(t *testing.T) {
	d := dyn(1, 0, 1000, 50)
	if got := d.EffectiveTip(900); got != 50 {
		t.Fatalf("tip-limited: %d", got)
	}
	if got := d.EffectiveTip(980); got != 20 {
		t.Fatalf("headroom-limited: %d", got)
	}
	if got := d.EffectiveTip(1200); got != 0 {
		t.Fatalf("under base fee: %d", got)
	}
	legacy := tx(1, 0, 1000)
	if got := legacy.EffectiveTip(900); got != 100 {
		t.Fatalf("legacy effective tip: %d", got)
	}
}

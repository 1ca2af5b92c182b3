package core

import (
	"testing"

	"toposhot/internal/obs"
	"toposhot/internal/types"
)

// TestLedgerCut pins Cut's arithmetic on the ledger alone: a stretch holds
// what was recorded since the last cut, fees summed one term per Record*
// call in call order (the values are past float exactness, so == sees the
// order), a transaction recorded twice is attributed once, and restored
// aggregates belong to no stretch.
func TestLedgerCut(t *testing.T) {
	l := NewLedger()
	l.RestoreAggregates(7, 900, 907, 1.25e17)
	if got := l.Cut(); got != (Spend{}) {
		t.Fatalf("restored aggregates leaked into the open stretch: %+v", got)
	}
	tx := func(i, price uint64) *types.Transaction {
		return types.NewTransaction(types.AddressFromUint64(i), types.AddressFromUint64(2), 0, price, 0)
	}
	c, b, a := tx(1, 7e12+1), tx(2, 6e12+3), tx(3, 8e12+7)
	run := func(i, price uint64, n int) *types.Run {
		return &types.Run{From: types.AddressFromUint64(i), Nonce: 1, Count: n, Price: price, ToSeq: 10 * i}
	}
	fut := []*types.Run{run(4, 9e12+1, 2), run(5, 9e12+3, 1), run(6, 9e12+5, 1)}

	l.RecordPending(c)
	l.RecordFutures(fut)
	l.RecordPending(b)
	l.RecordPending(c)        // again: injected twice, attributed once
	l.RecordPending(b.Copy()) // equal content behind another pointer: the same transaction
	l.RecordFutures(fut[:2])
	l.RecordPending(a)
	want := Spend{Pending: 3, Futures: 7}
	want.FeeWei = float64(c.Fee())
	want.FeeWei += memberFees(fut)
	want.FeeWei += float64(b.Fee())
	want.FeeWei += memberFees(fut[:2])
	want.FeeWei += float64(a.Fee())
	if got := l.Cut(); got != want {
		t.Fatalf("cut = %+v, want %+v", got, want)
	}
	if got := l.Cut(); got != (Spend{}) {
		t.Fatalf("second cut not empty: %+v", got)
	}
	l.RecordPending(a) // known since the last stretch: nothing new to attribute
	if got := l.Cut(); got != (Spend{}) {
		t.Fatalf("re-recorded transaction attributed again: %+v", got)
	}
	if l.PendingCount() != 7+3 || l.FutureCount() != 900+7 || l.InjectedMsgs != 907+13 {
		t.Fatalf("campaign totals moved: pending %d futures %d injected %d",
			l.PendingCount(), l.FutureCount(), l.InjectedMsgs)
	}
}

// memberFees sums the fees of runs' members one transaction at a time, in
// order: what recording every member as an object summed.
func memberFees(runs []*types.Run) float64 {
	var sum float64
	for _, r := range runs {
		for k := 0; k < r.Count; k++ {
			sum += float64(r.Tx(k).Fee())
		}
	}
	return sum
}

// TestLedgerRecordsRunFeesMemberByMember: a fill recorded as runs costs, bit
// for bit, the sum of its members' fees added one at a time. At Z = 5120 and
// Y = 1 Gwei each future may pay 23 100 000 021 000 Wei, and the partial sums
// pass 2^53 Wei, where count × fee rounds differently: a ledger that
// multiplies fails here.
func TestLedgerRecordsRunFeesMemberByMember(t *testing.T) {
	m := &Measurer{params: DefaultParams()}
	runs := m.futureRuns(5120, m.params.PriceFuture(types.Gwei))
	if len(runs) != 2 || runs[0].Count != 4096 || runs[1].Count != 1024 || runs[0].Fee() != 23_100_000_021_000 {
		t.Fatalf("fill minted as %d runs: %+v", len(runs), runs)
	}
	want := memberFees(runs)
	var product float64
	for _, r := range runs {
		product += float64(r.Count) * float64(r.Fee())
	}
	if product == want || 5120*float64(runs[0].Fee()) == want {
		t.Fatalf("count × fee equals the member sum %v: the test cannot tell them apart", want)
	}
	l := NewLedger()
	l.RecordFutures(runs)
	if got := l.Cut(); got.FeeWei != want || got.Futures != 5120 || l.InjectedMsgs != 5120 {
		t.Fatalf("recorded %+v and %d messages, want %v Wei over 5120 futures", got, l.InjectedMsgs, want)
	}
}

// ledgerMark remembers a measurer ledger's contents at one moment.
type ledgerMark struct {
	pending map[types.Hash]bool
	futures int
}

func markLedger(l *Ledger) ledgerMark {
	m := ledgerMark{pending: make(map[types.Hash]bool, len(l.pending)), futures: l.futures}
	for h := range l.pending {
		m.pending[h] = true
	}
	return m
}

// checkAttribution demands Σ records == the ledger's growth since the mark:
// pending, futures and fees. The growth is taken in integers — every pending
// transaction new since the mark, plus the new futures at the one price the
// fixed Y gives them — and every fee is a multiple of 8 with all sums below
// 2⁵⁶, so the float sum over the records, in record order, is exact and ==
// is the right comparison: one transaction counted twice or dropped shows.
func checkAttribution(t *testing.T, m *Measurer, since ledgerMark, led *obs.Ledger) {
	t.Helper()
	var wantFee uint64
	wantPending := 0
	for h, tx := range m.Ledger.pending {
		if !since.pending[h] {
			wantPending++
			wantFee += tx.Fee()
		}
	}
	wantFutures := m.Ledger.futures - since.futures
	future := types.NewTransaction(types.Address{}, types.Address{}, 1, m.params.PriceFuture(m.params.Y), 0)
	wantFee += uint64(wantFutures) * future.Fee()
	if wantFee >= 1<<56 {
		t.Fatalf("growth %d Wei is past where the float sum is exact; shrink the test", wantFee)
	}
	var got Spend
	for _, r := range led.Records() {
		got.Pending += r.Pending
		got.Futures += r.Futures
		got.FeeWei += r.FeeWei
	}
	if want := (Spend{Pending: wantPending, Futures: wantFutures, FeeWei: float64(wantFee)}); got != want {
		t.Fatalf("records add up to %+v, ledger grew by %+v", got, want)
	}
}

// cutRing is buildRing with txC's price fixed, so a test can price a future
// without seeing it.
func cutRing(t *testing.T, seed int64) (*Measurer, []types.NodeID) {
	t.Helper()
	_, m, ids := buildRing(t, 6, seed)
	p := m.Params()
	p.Y = types.Gwei / 10
	m.SetParams(p)
	return m, ids
}

// TestCutAttributionAfterMidCampaignAttach: what was spent before SetObs
// belongs to no record; from the attach on, one OneLink, one Par and a ProbeZ
// (nested OneLinks, one pair record each) add up to the ledger's growth.
func TestCutAttributionAfterMidCampaignAttach(t *testing.T) {
	m, ids := cutRing(t, 21)
	if _, err := m.MeasureOneLink(ids[0], ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.MeasurePar([]Edge{{Source: ids[2], Sink: ids[4]}}); err != nil {
		t.Fatal(err)
	}
	// The primitives cut as they finish; a caller recording on the exported
	// ledger itself leaves a stretch open, and the attach must drop that too.
	m.Ledger.RecordPending(types.NewTransaction(types.AddressFromUint64(1), types.AddressFromUint64(2), 0, types.Gwei, 0))
	since := markLedger(m.Ledger)
	if len(since.pending) != 7 || since.futures == 0 {
		t.Fatalf("nothing spent before the attach: %d pending, %d futures", len(since.pending), since.futures)
	}
	led := obs.NewLedger()
	m.SetObs(nil, led)
	m.SetPhase("attached")

	if _, err := m.MeasureOneLink(ids[1], ids[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.MeasurePar([]Edge{{Source: ids[0], Sink: ids[3]}, {Source: ids[1], Sink: ids[3]}, {Source: ids[1], Sink: ids[4]}}); err != nil {
		t.Fatal(err)
	}
	if led.Len() != 1+3+1 {
		t.Fatalf("%d records, want a pair, three pairs and a round", led.Len())
	}
	checkAttribution(t, m, since, led)

	// An undersized first candidate forces a second nested probe.
	before := led.Len()
	if _, ok := m.ProbeZ(ids[5], []int{8, 512}); !ok {
		t.Fatal("ProbeZ found no working Z on a default node")
	}
	if got := led.Len() - before; got != 2 {
		t.Fatalf("ProbeZ wrote %d records, want one per nested probe (2)", got)
	}
	checkAttribution(t, m, since, led)
}

// TestCutAttributionAfterResume: a resumed campaign restores aggregates, not
// transactions; they belong to the earlier run's records, and the
// continuation's records add up to the continuation's growth.
func TestCutAttributionAfterResume(t *testing.T) {
	m, ids := cutRing(t, 22)
	m.Ledger.RestoreAggregates(42, 9000, 9042, 3.5e17)
	since := markLedger(m.Ledger)
	led := obs.NewLedger()
	m.SetObs(nil, led)
	if _, err := m.MeasureNetwork(ids[:4], 2, 2000); err != nil {
		t.Fatal(err)
	}
	checkAttribution(t, m, since, led)
	if got, want := m.Ledger.PendingCount(), 42+3*6; got != want {
		t.Fatalf("whole-campaign pending = %d, want %d", got, want)
	}
}

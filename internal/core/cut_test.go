package core

import (
	"math"
	"testing"

	"toposhot/internal/obs"
	"toposhot/internal/types"
)

// TestLedgerCut pins Cut's arithmetic on the ledger alone: a stretch holds
// what was recorded since the last cut, pending fees summed one term per
// RecordPending call in call order (the values are past float exactness, so
// == sees the order), futures counted but free, a transaction recorded twice
// is attributed once, and restored aggregates belong to no stretch.
func TestLedgerCut(t *testing.T) {
	l := NewLedger()
	l.RestoreAggregates(7, 900, 1.25e17)
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
	want.FeeWei += float64(b.Fee())
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
	if l.PendingCount() != 7+3 || l.FutureCount() != 900+7 {
		t.Fatalf("campaign totals moved: pending %d futures %d", l.PendingCount(), l.FutureCount())
	}
}

// TestLedgerFuturesCostNothing: a fill is counted but adds nothing to either
// price, since futures are never mined (§5.2.2). At Z = 5120 and Y = 1 Gwei
// each future would pay 23 100 000 021 000 Wei if it were.
func TestLedgerFuturesCostNothing(t *testing.T) {
	m := &Measurer{params: DefaultParams()}
	runs := m.futureRuns(5120, m.params.PriceFuture(types.Gwei))
	if len(runs) != 2 || runs[0].Count != 4096 || runs[1].Count != 1024 || runs[0].Tx(0).Fee() != 23_100_000_021_000 {
		t.Fatalf("fill minted as %d runs: %+v", len(runs), runs)
	}
	l := NewLedger()
	l.RecordFutures(runs)
	if got := l.Cut(); got != (Spend{Futures: 5120}) || l.WorstCaseWei() != 0 {
		t.Fatalf("recorded %+v and a worst case of %v Wei for 5120 futures, want both free", got, l.WorstCaseWei())
	}
}

// TestJournalPricesWhatWorstCasePrices: a campaign has one price. The cost
// journal's fees over a whole MeasureNetwork add up to the ledger's
// WorstCaseWei, which prices pending transactions only; the two sums differ
// in order (records in emission order, WorstCaseWei in hash order), hence
// the relative tolerance.
func TestJournalPricesWhatWorstCasePrices(t *testing.T) {
	_, m, ids := buildRing(t, 4, 13)
	led := obs.NewLedger()
	m.SetObs(nil, led)
	if _, err := m.MeasureNetwork(ids, 2, 2000); err != nil {
		t.Fatal(err)
	}
	journal, worst := led.Totals().FeeWei, m.Ledger.WorstCaseWei()
	if worst <= 0 || math.Abs(journal-worst) > 1e-12*worst {
		t.Fatalf("journal prices the campaign at %v Wei, WorstCaseWei at %v Wei", journal, worst)
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
// pending, futures and fees. The fee growth is taken in integers — every
// pending transaction new since the mark; futures are free — and every fee
// is a multiple of 8 with all sums below 2⁵⁶, so the float sum over the
// records, in record order, is exact and == is the right comparison: one
// transaction counted twice or dropped shows.
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

// cutRing is buildRing with txC's price fixed at 0.1 Gwei, which keeps the
// campaign's fee sums exact in float64.
func cutRing(t *testing.T, seed int64) (*Measurer, []types.NodeID) {
	t.Helper()
	_, m, ids := buildRing(t, 6, seed)
	p := m.Params()
	p.Y = types.Gwei / 10
	m.SetParams(p)
	return m, ids
}

// TestCutAttributionAfterMidCampaignAttach: what was spent before SetObs
// belongs to no record; from the attach on, one OneLink and one Par add up to
// the ledger's growth.
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
}

// TestCutAttributionAfterResume: a resumed campaign restores aggregates, not
// transactions; they belong to the earlier run's records, and the
// continuation's records add up to the continuation's growth.
func TestCutAttributionAfterResume(t *testing.T) {
	m, ids := cutRing(t, 22)
	m.Ledger.RestoreAggregates(42, 9000, 3.5e17)
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

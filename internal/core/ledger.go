package core

import (
	"bytes"
	"fmt"
	"slices"

	"toposhot/internal/types"
)

// Ledger tracks the transactions a measurement campaign emits and prices the
// campaign the way §5.2.2/§6.4 do: future transactions are guaranteed never
// to be mined (their nonce gap never closes) and cost nothing; pending
// measurement transactions (txC/txB/txA) cost gas × price if and when a
// miner includes them.
type Ledger struct {
	pending map[types.Hash]*types.Transaction
	futures int

	// sorted holds the pending transactions in hash order, except those
	// recorded since it was last read, which wait in fresh. A campaign reads
	// its price after every batch; merging the newcomers in keeps that linear
	// in the campaign where re-sorting everything each time was quadratic.
	sorted []*types.Transaction
	fresh  []*types.Transaction

	// open is what was recorded since the last Cut.
	open Spend

	// basePending/baseWorstWei carry the aggregates of a resumed campaign's
	// earlier run: a checkpoint stores totals rather than every emitted
	// transaction, so a restored ledger reports whole-campaign figures while
	// only tracking post-resume transactions individually.
	basePending  int
	baseWorstWei float64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{pending: make(map[types.Hash]*types.Transaction)}
}

// Spend is one stretch of a ledger's growth: the transactions recorded
// between two cuts and the worst-case fees of the pending ones, summed in
// recording order.
type Spend struct {
	Pending, Futures int
	FeeWei           float64
}

// RecordPending notes an emitted pending-class measurement transaction.
func (l *Ledger) RecordPending(tx *types.Transaction) {
	if h := tx.Hash(); l.pending[h] == nil {
		l.pending[h] = tx
		l.fresh = append(l.fresh, tx)
		l.open.Pending++
		l.open.FeeWei += float64(tx.Fee())
	}
}

// RecordFutures notes the emitted future transactions of a fill. Futures are
// never mined (§5.2.2), so they are counted but add nothing to the price.
func (l *Ledger) RecordFutures(runs []*types.Run) {
	var n int
	for _, r := range runs {
		n += r.Count
	}
	l.futures += n
	l.open.Futures += n
}

// Cut returns everything recorded since the previous cut and starts the next
// stretch. Cost attribution is cut from the ledger rather than counted beside
// it, so the cuts of a campaign add up to the ledger's growth by
// construction.
func (l *Ledger) Cut() Spend {
	s := l.open
	l.open = Spend{}
	return s
}

// PendingCount returns the number of pending-class transactions emitted
// over the whole campaign, including any resumed-from baseline.
func (l *Ledger) PendingCount() int { return len(l.pending) + l.basePending }

// FutureCount returns the number of future transactions emitted.
func (l *Ledger) FutureCount() int { return l.futures }

// RestoreAggregates seeds the ledger with the totals of a campaign's
// pre-checkpoint run, so a resumed campaign's cost report covers the whole
// campaign. Per-transaction data from before the checkpoint is not carried:
// the cost report is worst-case pricing, which these totals suffice for.
func (l *Ledger) RestoreAggregates(pending, futures int, worstWei float64) {
	l.basePending = pending
	l.futures = futures
	l.baseWorstWei = worstWei
}

// sortedPending returns the pending transactions ordered by hash. Campaign
// prices are float sums; summing in hash order keeps the total bit-identical
// across runs (float addition is not associative over map iteration order).
// The slice is the ledger's own: callers only read it.
func (l *Ledger) sortedPending() []*types.Transaction {
	if len(l.fresh) == 0 {
		return l.sorted
	}
	slices.SortFunc(l.fresh, compareTxHash)
	// Merge from the back into the grown slice: no second buffer.
	i, j := len(l.sorted)-1, len(l.fresh)-1
	l.sorted = append(l.sorted, l.fresh...)
	for k := len(l.sorted) - 1; j >= 0; k-- {
		if i >= 0 && compareTxHash(l.sorted[i], l.fresh[j]) > 0 {
			l.sorted[k] = l.sorted[i]
			i--
		} else {
			l.sorted[k] = l.fresh[j]
			j--
		}
	}
	l.fresh = l.fresh[:0]
	return l.sorted
}

func compareTxHash(a, b *types.Transaction) int {
	ha, hb := a.Hash(), b.Hash()
	return bytes.Compare(ha[:], hb[:])
}

// WorstCaseWei prices the campaign as if every pending-class measurement
// transaction were mined — the estimation basis for the paper's $60M
// full-mainnet figure.
func (l *Ledger) WorstCaseWei() float64 {
	sum := l.baseWorstWei
	for _, tx := range l.sortedPending() {
		sum += float64(tx.Fee())
	}
	return sum
}

// Ether converts Wei to Ether for reporting.
func Ether(wei float64) float64 { return wei / 1e18 }

// String summarizes the ledger.
func (l *Ledger) String() string {
	return fmt.Sprintf("ledger{pending=%d futures=%d worstCase=%.6f ETH}",
		l.PendingCount(), l.futures, Ether(l.WorstCaseWei()))
}

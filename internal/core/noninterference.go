package core

import (
	"fmt"

	"toposhot/internal/chain"
	"toposhot/internal/types"
)

// NIVerifier is the non-interference extension of Appendix C: after a
// measurement over [T1, T2] priced at Y0, it verifies a posteriori that
//
//	V1) every block produced in [T1, T2+Expiry] was full, and
//	V2) every transaction included in those blocks was priced above Y0,
//
// which together imply (Theorem C.2) that the measurement did not change
// the set of transactions included in the blockchain.
type NIVerifier struct {
	Chain *chain.Chain
	// Y0 is the txC gas price used during the measurement.
	Y0 uint64
	// T1 and T2 bound the measurement interval (virtual seconds).
	T1, T2 float64
	// Expiry is the mempool transaction lifetime e (3 h for Geth).
	Expiry float64
}

// Violation describes one failed condition.
type Violation struct {
	Condition string // "V1" or "V2"
	Block     uint64
	Detail    string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s@block %d: %s", v.Condition, v.Block, v.Detail)
}

// Check evaluates V1 and V2 over the produced blocks and returns the
// violations (empty means non-interference is established).
func (v NIVerifier) Check() []Violation {
	var out []Violation
	for _, b := range v.Chain.BlocksIn(v.T1, v.T2+v.Expiry) {
		if !b.Full() {
			out = append(out, Violation{
				Condition: "V1", Block: b.Number,
				Detail: fmt.Sprintf("block not full: %d/%d gas", b.GasUsed, b.GasLimit),
			})
		}
		if min, ok := b.MinGasPrice(); ok && min <= v.Y0 {
			out = append(out, Violation{
				Condition: "V2", Block: b.Number,
				Detail: fmt.Sprintf("included tx priced %d ≤ Y0=%d", min, v.Y0),
			})
		}
	}
	return out
}

// safeY0Window is how many of the latest blocks SafeY0 calibrates against.
const safeY0Window = 4

// SafeY0 derives a workload-adaptive measurement price that V2 is expected
// to hold for: half the cheapest transaction included in the last
// safeY0Window blocks. It returns 0 when no recent block exists to
// calibrate against.
func SafeY0(c *chain.Chain) uint64 {
	blocks := c.Blocks()
	lo := uint64(0)
	for _, b := range blocks[max(0, len(blocks)-safeY0Window):] {
		if min, ok := b.MinGasPrice(); ok && (lo == 0 || min < lo) {
			lo = min
		}
	}
	return lo / 2
}

// TwinWorldReport compares the actual (measured) world's blocks against the
// hypothetical (unmeasured) world's — Definition C.1 made executable. The
// two chains must be produced by deterministic twin simulations sharing the
// same seed, workload, and miner schedule.
type TwinWorldReport struct {
	BlocksCompared int
	Mismatches     []uint64 // block numbers with differing tx sets
}

// Interfered reports whether any block pair differed.
func (r TwinWorldReport) Interfered() bool { return len(r.Mismatches) > 0 }

// CompareTwinWorlds aligns the two chains block-by-block and records every
// index whose included-transaction sets differ.
func CompareTwinWorlds(measured, hypothetical *chain.Chain) TwinWorldReport {
	var rep TwinWorldReport
	mb, hb := measured.Blocks(), hypothetical.Blocks()
	n := len(mb)
	if len(hb) < n {
		n = len(hb)
	}
	for i := 0; i < n; i++ {
		rep.BlocksCompared++
		if !chain.TxSetEqual(mb[i], hb[i]) {
			rep.Mismatches = append(rep.Mismatches, mb[i].Number)
		}
	}
	return rep
}

// FilterMeasurement strips a ledger's measurement transactions out of a
// block's tx set — used when comparing twin worlds where measurement txs
// may legitimately appear in the measured world's blocks (the paper's
// testnet runs; the mainnet extension prevents even that).
func FilterMeasurement(b *types.Block, l *Ledger) *types.Block {
	cp := *b
	cp.Txs = nil
	for _, tx := range b.Txs {
		if _, ok := l.pending[tx.Hash()]; !ok {
			cp.Txs = append(cp.Txs, tx)
		}
	}
	return &cp
}

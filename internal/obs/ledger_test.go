package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestNilLedgerNoops(t *testing.T) {
	var l *Ledger
	l.Record(ProbeRecord{Kind: KindPair, Pending: 3})
	if l.Len() != 0 || l.Records() != nil || l.ByPhase() != nil {
		t.Fatal("nil ledger should be empty")
	}
	if tot := l.Totals(); tot != (CostTotals{}) {
		t.Fatalf("nil totals = %+v", tot)
	}
	if err := l.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func sampleLedger() *Ledger {
	l := NewLedger()
	l.Record(ProbeRecord{Phase: "census", Kind: KindPair, A: 1, B: 2, Pending: 3, Futures: 4,
		FeeWei: 42e9, Start: 0, End: 30, Verdict: "detected", Detected: true})
	l.Record(ProbeRecord{Phase: "census", Kind: KindPair, A: 1, B: 3, Pending: 3, Futures: 4,
		FeeWei: 42e9, Start: 30, End: 60, Verdict: "undetected"})
	l.Record(ProbeRecord{Phase: "census", Kind: KindRound, Futures: 10, Start: 0, End: 60})
	l.Record(ProbeRecord{Phase: "tick-1", Kind: KindPair, A: 2, B: 3, Pending: 3,
		FeeWei: 21e9, Start: 60, End: 90, Verdict: VerdictSetupFailed})
	l.Record(ProbeRecord{Phase: "tick-1", Kind: KindTick, Start: 60, End: 90})
	return l
}

func TestLedgerTotalsAndByPhase(t *testing.T) {
	l := sampleLedger()
	tot := l.Totals()
	want := CostTotals{Records: 5, Pairs: 3, Detected: 1, Pending: 9, Futures: 18, FeeWei: 105e9}
	if tot != want {
		t.Fatalf("totals = %+v, want %+v", tot, want)
	}
	if tot.Txs() != 27 {
		t.Fatalf("Txs = %d", tot.Txs())
	}
	if got := tot.FeeEther(); got != 105e9/1e18 {
		t.Fatalf("FeeEther = %g", got)
	}
	phases := l.ByPhase()
	if len(phases) != 2 || phases[0].Phase != "census" || phases[1].Phase != "tick-1" {
		t.Fatalf("phase order = %+v (must be first-appearance)", phases)
	}
	if phases[0].Pairs != 2 || phases[0].Detected != 1 || phases[0].Futures != 18 {
		t.Fatalf("census phase = %+v", phases[0])
	}
	if phases[1].Pairs != 1 || phases[1].Pending != 3 || phases[1].FeeWei != 21e9 {
		t.Fatalf("tick-1 phase = %+v", phases[1])
	}
}

func TestLedgerJSONLRoundTrip(t *testing.T) {
	orig := sampleLedger()
	var a bytes.Buffer
	if err := orig.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLedgerJSONL(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := back.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("ledger round trip not lossless:\n%s\nvs\n%s", a.String(), b.String())
	}
	if back.Totals() != orig.Totals() {
		t.Fatalf("totals drift: %+v vs %+v", back.Totals(), orig.Totals())
	}
}

func TestLedgerJSONLReadErrors(t *testing.T) {
	if _, err := ReadLedgerJSONL(strings.NewReader("{broken\n")); err == nil {
		t.Fatal("malformed line should fail")
	}
	l, err := ReadLedgerJSONL(strings.NewReader("\n\n"))
	if err != nil || l.Len() != 0 {
		t.Fatalf("blank stream: %v, %d records", err, l.Len())
	}
}

func TestLedgerWriteFailure(t *testing.T) {
	if err := sampleLedger().WriteJSONL(&failWriter{n: 0}); err == nil {
		t.Fatal("WriteJSONL on a dead sink should fail")
	}
}

// TestLedgerSerialVsParallelMergeOrder pins the ledger determinism
// contract: one ledger per replica, merged in replica order, is identical
// to the serial emission — the ledger-level analog of the event-log
// byte-identity test.
func TestLedgerSerialVsParallelMergeOrder(t *testing.T) {
	emit := func(l *Ledger, replica int) {
		for j := 0; j < 50; j++ {
			l.Record(ProbeRecord{Phase: "probe", Kind: KindPair,
				A: 1, B: 2, Pending: replica, Futures: j})
		}
	}
	serialize := func(ledgers []*Ledger) []byte {
		var buf bytes.Buffer
		for _, l := range ledgers {
			if err := l.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	serial := make([]*Ledger, 4)
	for i := range serial {
		serial[i] = NewLedger()
		emit(serial[i], i)
	}
	par := make([]*Ledger, 4)
	done := make(chan int, len(par))
	for i := range par {
		par[i] = NewLedger()
		go func(i int) {
			emit(par[i], i)
			done <- i
		}(i)
	}
	for range par {
		<-done
	}
	if !bytes.Equal(serialize(serial), serialize(par)) {
		t.Fatal("per-replica ledgers merged in replica order must not depend on scheduling")
	}
}

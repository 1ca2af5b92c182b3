package core

import (
	"bytes"
	"testing"

	"toposhot/internal/obs"
	"toposhot/internal/trace"
)

// runGoldenObs drives the trace goldens' fixed-seed three-node world with an
// event log (on a child scope, so a non-zero scope id is pinned), a cost
// ledger and a tracer (so the span cross-link is non-zero) attached: one
// MeasureOneLink, one MeasurePar, then a whole-network schedule (the only
// call that logs), and returns the log snapshot and the ledger.
func runGoldenObs(t *testing.T) (*obs.Log, *obs.Ledger) {
	t.Helper()
	_, m, ids := buildRing(t, 3, 11)
	lg := obs.New(obs.Options{Level: obs.LevelDebug})
	led := obs.NewLedger()
	m.SetTracer(trace.New(trace.Options{Level: trace.LevelMeasure, Deterministic: true}))
	m.SetObs(lg.Scope("three-node"), led)
	m.SetPhase("golden")
	if _, err := m.MeasureOneLink(ids[0], ids[1]); err != nil {
		t.Fatalf("measure: %v", err)
	}
	if _, err := m.MeasurePar([]Edge{{Source: ids[0], Sink: ids[2]}, {Source: ids[1], Sink: ids[2]}}); err != nil {
		t.Fatalf("measure-par: %v", err)
	}
	if _, err := m.MeasureNetwork(ids, 2, 2000); err != nil {
		t.Fatalf("measure-network: %v", err)
	}
	return lg.Snapshot(), led
}

// TestObsGolden pins the event log in both renderings and the cost ledger's
// JSONL — fee_wei included — for the three-node world. The files were
// recorded on commit 3a3eb45, before the log became a trace sink and
// attribution a cut of core.Ledger; they move only if the bytes do.
func TestObsGolden(t *testing.T) {
	log, led := runGoldenObs(t)
	var b bytes.Buffer
	if err := log.WriteJSONL(&b); err != nil {
		t.Fatalf("log jsonl: %v", err)
	}
	checkGolden(t, "obs_three_node_log_jsonl.golden", b.Bytes())
	b.Reset()
	if err := log.WriteText(&b); err != nil {
		t.Fatalf("log text: %v", err)
	}
	checkGolden(t, "obs_three_node_log_text.golden", b.Bytes())
	b.Reset()
	if err := led.WriteJSONL(&b); err != nil {
		t.Fatalf("ledger jsonl: %v", err)
	}
	checkGolden(t, "obs_three_node_ledger_jsonl.golden", b.Bytes())
}

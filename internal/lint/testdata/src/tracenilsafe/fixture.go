// Package fixture exercises the trace-nilsafe and trace-spanname analyzers:
// recorders — trace's and the obs logger and ledger — are nil-safe (no
// guards, no dereferences) and span names must be compile-time constants.
package fixture

import (
	"fmt"

	"toposhot/internal/obs"
	"toposhot/internal/trace"
)

const spanRow = "row"

// guarded wraps pure recording in the nil guard the nil-safe methods exist
// to delete.
func guarded(tr *trace.Tracer) {
	if tr != nil {
		sp := tr.StartSpan(spanRow)
		defer sp.End()
		tr.Event("tick")
	}
}

// deref copies through the pointer; a nil recorder panics here.
func deref(tr *trace.Tracer) trace.Tracer {
	return *tr
}

// dynamicName builds a span name at runtime, defeating constant-name
// aggregation.
func dynamicName(tr *trace.Tracer, i int) {
	sp := tr.StartSpan(fmt.Sprintf("row-%d", i))
	tr.Event("msg" + fmt.Sprint(i))
	sp.End()
}

// sanctioned shapes: unconditional recording with constant names, nil
// guards around non-recording work (wiring), and nil checks that skip
// construction.
func sanctioned(tr *trace.Tracer, wire func(*trace.Tracer)) {
	sp := tr.StartSpan(spanRow, trace.Int("i", 1))
	tr.Event("literal-is-constant")
	sp.End()
	if tr != nil {
		wire(tr)
	}
	if tr == nil {
		return
	}
}

// guardedObs wraps logging and cost recording in nil guards: the obs handles
// are recorders under the same rule, alone or mixed with trace's.
func guardedObs(lg *obs.Logger, led *obs.Ledger, sp trace.Span) {
	if lg != nil {
		lg.Info("tick")
		sp.End()
	}
	if led != nil {
		led.Record(obs.ProbeRecord{})
	}
}

// derefObs copies through the pointer; a nil logger panics here.
func derefObs(lg *obs.Logger) obs.Logger {
	return *lg
}

// sanctionedObs: unconditional calls, guards around non-recording work, and
// nil checks that skip construction stay legal for obs handles too.
func sanctionedObs(lg *obs.Logger, led *obs.Ledger, wire func(*obs.Logger)) {
	lg.Info("tick")
	led.Record(obs.ProbeRecord{})
	if lg != nil {
		wire(lg)
	}
	if led == nil {
		return
	}
}

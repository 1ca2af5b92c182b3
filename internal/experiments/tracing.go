package experiments

import (
	"fmt"

	"toposhot/internal/obs"
	"toposhot/internal/trace"
)

// Span names recorded by the experiment drivers (trace-spanname lint rule:
// StartSpan/Event names must be constants).
const (
	// spanSweepRow wraps one row of a figure/table sweep. Each row runs on
	// its own lane, so parallel sweeps render as concurrent tracks.
	spanSweepRow = "sweep-row"
	// spanCensus wraps one whole-testnet campaign; the phases below are its
	// children.
	spanCensus        = "census"
	spanCensusBuild   = "census-build"
	spanCensusPrefill = "census-prefill"
	spanPreprocess    = "preprocess"
	spanCensusScore   = "census-score"
)

// Attribute keys on experiment spans.
const (
	attrRow    = "row"
	attrWorker = "worker"
	attrParam  = "param"
	attrName   = "name"
	attrNodes  = "nodes"
	attrK      = "k"
	attrSeed   = "seed"
)

// sweepLanes pre-creates one trace lane per sweep row on the process-default
// tracer, named "<name>[row]". Creation happens serially on the caller's
// goroutine BEFORE the runner fan-out, so lane ids — and therefore export
// order — are deterministic regardless of scheduling. With tracing off every
// element is nil, which no-ops all recording.
func sweepLanes(name string, n int) []*trace.Tracer {
	lanes := make([]*trace.Tracer, n)
	tr := trace.Enabled()
	if tr == nil {
		return lanes
	}
	for i := range lanes {
		lanes[i] = tr.Lane(fmt.Sprintf("%s[%d]", name, i))
	}
	return lanes
}

// obsScopes is sweepLanes' event-log analog: one pre-created logger scope per
// sweep row, named "<name>[row]", created serially BEFORE the runner fan-out
// so scope ids — and therefore snapshot order — are deterministic at any pool
// width. With event logging off every element is nil, which no-ops logging.
func obsScopes(name string, n int) []*obs.Logger {
	scopes := make([]*obs.Logger, n)
	lg := obs.Enabled()
	if lg == nil {
		return scopes
	}
	for i := range scopes {
		scopes[i] = lg.Scope(fmt.Sprintf("%s[%d]", name, i))
	}
	return scopes
}

// rowSpan opens the per-row span on a sweep lane with the standard row,
// worker, and sweep-parameter attributes. The worker slot is scheduling-
// dependent (purely observational, per runner.MapWorker), so deterministic
// mode drops it — that makes sweep traces byte-identical at ANY -parallel
// width, not just -parallel 1.
func rowSpan(lane *trace.Tracer, row, worker int, param int64) trace.Span {
	if lane.Deterministic() {
		return lane.StartSpan(spanSweepRow,
			trace.Int(attrRow, int64(row)), trace.Int(attrParam, param))
	}
	return lane.StartSpan(spanSweepRow,
		trace.Int(attrRow, int64(row)), trace.Int(attrWorker, int64(worker)),
		trace.Int(attrParam, param))
}

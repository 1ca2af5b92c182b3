package tracker

import "toposhot/internal/metrics"

// trackMetrics pre-resolves the tracker's instruments. The zero value
// (all-nil instruments) is the un-instrumented default: every update is then
// a nil-safe no-op call. Updates happen only in Tick, after the plan/apply
// helpers return — the trk* tick-path functions stay allocation- and
// instrumentation-free (DESIGN.md §8).
type trackMetrics struct {
	ticks      *metrics.Counter // delta campaigns run
	planned    *metrics.Counter // pairs selected across all ticks
	probed     *metrics.Counter // pairs that returned a verdict
	failed     *metrics.Counter // probe setup failures (re-queued urgent)
	urgent     *metrics.Counter // planned pairs that came from the urgent queue
	staleSwept *metrics.Counter // planned pairs from the confidence-decay sweep
	changed    *metrics.Counter // verdict flips

	beliefNodes *metrics.Gauge // tracked targets
	beliefEdges *metrics.Gauge // pairs believed present
	urgentDepth *metrics.Gauge // pending urgent queue after the tick
	budget      *metrics.Gauge // configured pairs-per-tick budget
	budgetUsed  *metrics.Gauge // pairs planned by the latest tick
}

// SetMetrics wires the tracker to a registry under the "tracker." prefix
// (nil detaches). Instruments populated per tick:
//
//	tracker.ticks          delta campaigns run
//	tracker.pairs.planned  pairs selected (urgent + stale sweep)
//	tracker.pairs.probed   pairs that returned a verdict
//	tracker.pairs.failed   probe setup failures, re-queued urgent
//	tracker.pairs.urgent   planned pairs drawn from the urgent queue
//	tracker.pairs.stale    planned pairs drawn from the confidence-decay sweep
//	tracker.verdict_flips  verdict flips (believed-link edits)
//	tracker.belief.nodes   tracked targets (gauge)
//	tracker.belief.edges   pairs believed present (gauge)
//	tracker.urgent_depth   urgent queue length after the tick (gauge)
//	tracker.budget         configured pairs-per-tick budget (gauge)
//	tracker.budget_used    pairs planned by the latest tick (gauge)
func (t *Tracker) SetMetrics(r *metrics.Registry) {
	if r == nil {
		t.metrics = trackMetrics{}
		return
	}
	t.metrics = trackMetrics{
		ticks:       r.Counter("tracker.ticks"),
		planned:     r.Counter("tracker.pairs.planned"),
		probed:      r.Counter("tracker.pairs.probed"),
		failed:      r.Counter("tracker.pairs.failed"),
		urgent:      r.Counter("tracker.pairs.urgent"),
		staleSwept:  r.Counter("tracker.pairs.stale"),
		changed:     r.Counter("tracker.verdict_flips"),
		beliefNodes: r.Gauge("tracker.belief.nodes"),
		beliefEdges: r.Gauge("tracker.belief.edges"),
		urgentDepth: r.Gauge("tracker.urgent_depth"),
		budget:      r.Gauge("tracker.budget"),
		budgetUsed:  r.Gauge("tracker.budget_used"),
	}
	t.metrics.budget.Set(int64(t.cfg.Budget))
}

// observeTick folds one (possibly partial, on error paths) tick report into
// the instruments. Every instrument method is nil-safe, so the
// un-instrumented default costs a handful of no-op calls per tick.
func (t *Tracker) observeTick(rep *TickReport) {
	mm := &t.metrics
	mm.ticks.Inc()
	mm.planned.Add(int64(rep.Planned))
	mm.probed.Add(int64(rep.Probed))
	mm.failed.Add(int64(rep.Failed))
	mm.urgent.Add(int64(rep.Urgent))
	mm.staleSwept.Add(int64(rep.Planned - rep.Urgent))
	mm.changed.Add(int64(rep.Changed))
	mm.beliefNodes.Set(int64(len(t.ids)))
	mm.beliefEdges.Set(int64(t.edges))
	mm.urgentDepth.Set(int64(len(t.urgent) - t.urgentHead))
	mm.budgetUsed.Set(int64(rep.Planned))
}

package main

import "strings"

// metricDef names one reported number. Bound is the share of the baseline's
// median by which an end-to-end metric may worsen before -compare calls it a
// regression; AbsFloor widens that for values near zero. Per-layer metrics
// carry no bound.
type metricDef struct {
	Name     string
	Unit     string
	Better   string // "lower" or "higher"
	Bound    float64
	AbsFloor float64
}

// endToEnd lists the metrics a user of the system would see. The first five
// exist on every workload and are the ones BENCHMARK.json hands to the
// driver; the rest exist where skips() says so and are judged by -compare.
//
// The driver draws a new seed for every run, so a bound has to cover the
// spread between seeds as well as the sandbox's noise. README.md lists the
// spreads observed over ten seeds next to each bound; the bounds of the
// host-measured metrics sit at the contract's ceiling of 25 % because a
// spread should stay under a third of its bound, and they reach 8–10 % on
// this machine even after yardstick scaling.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, AbsFloor: 0.05},
	{Name: "work_per_s", Unit: "units/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "step_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "step_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "precision", Unit: "ratio", Better: "higher", Bound: 0.001},
	{Name: "recall", Unit: "ratio", Better: "higher", Bound: 0.001},
	{Name: "virtual_h", Unit: "virtual_h", Better: "lower", Bound: 0.01},
	{Name: "cost_eth", Unit: "Ether", Better: "lower", Bound: 0.01},
	{Name: "fail_share", Unit: "ratio", Better: "lower", Bound: 0},
}

// driverMetrics are the end-to-end metrics defined on all four workloads and
// never zero, which is what the driver's contract requires of every entry.
var driverMetrics = []string{"wall_s", "setup_s", "work_per_s", "alloc_mb", "peak_rss_mb"}

// skips reports whether an end-to-end metric does not exist on a workload;
// such a metric is left out of the workload's row, never printed as zero.
func skips(w workload, metric string) bool {
	switch metric {
	case "step_p50_ms", "step_p90_ms":
		return !w.steps
	case "precision", "recall", "virtual_h", "cost_eth":
		return w.name == "gossip_flood"
	}
	return false
}

func endToEndDef(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// Per-layer metric names, by group. A–C come from a workload's traced
// repetition, D from the layers pass.
var (
	spanMetrics = []string{"netgen.grow_s", "ethsim.build_s", "ethsim.prefill_s",
		"core.preprocess_s", "core.measure_s", "core.score_s", "experiments.run_s"}

	countMetrics = []string{
		"txpool.offers", "txpool.admitted", "txpool.replaced", "txpool.evicted", "txpool.expired",
		"txpool.rejected", "txpool.useful_ratio",
		"ethsim.msgs", "ethsim.msgs_txs", "ethsim.msgs_announce", "ethsim.msgs_request",
		"ethsim.announce_lock_hits", "ethsim.msgs_per_s",
		"sim.events", "sim.events_per_s", "sim.ns_per_event",
		"core.rounds", "core.edges_measured", "core.edges_detected", "core.setup_failed", "core.txs_sent",
		"tracker.pairs_planned", "tracker.pairs_probed", "tracker.pairs_failed", "tracker.verdict_flips",
		"runner.cpu_util", "trace.overhead_pct",
	}

	driverLayerMetrics = []string{
		"txpool.admit_ns", "txpool.known_ns", "txpool.replace_ns", "txpool.reject_ns", "txpool.evict_ns",
		"txpool.fill_z_ms", "txpool.allocs_per_offer", "txpool.snapshot_ms", "txpool.restore_ms",
		"sim.event_ns", "sim.event_lanes4_ns", "sim.allocs_per_event",
		"ethsim.flood_us", "ethsim.msg_ns", "ethsim.allocs_per_msg", "ethsim.inject_z_ms",
		"ethsim.churn_op_us", "ethsim.checkpoint_ms", "ethsim.restore_ms", "ethsim.checkpoint_kb",
		"types.hash_ns",
		"core.onelink_ms", "core.onelink_events", "core.par_edge_ms", "core.preprocess_node_ms",
		"strategy.toposhot_pair_ms", "strategy.dethna_pair_ms", "strategy.txprobe_pair_ms", "strategy.ethna_pair_ms",
		"tracker.tick_plan_us", "tracker.restore_ms",
		"graph.dynamic_edge_ns", "graph.properties_ms", "graph.louvain_ms",
		"netgen.grow_ms", "netgen.instantiate_ms",
		"telemetry.flood_off_us", "telemetry.flood_on_us", "telemetry.overhead_pct",
		"rlp.encode_ns", "rlp.decode_ns",
	}
)

// higherIsBetter are the per-layer metrics where more is better; every
// other per-layer metric is a cost or a count of work done.
var higherIsBetter = map[string]bool{
	"txpool.useful_ratio": true, "ethsim.msgs_per_s": true, "sim.events_per_s": true,
	"runner.cpu_util": true, "core.edges_detected": true, "tracker.pairs_probed": true,
}

// perLayer returns every per-layer metric in reporting order.
func perLayer() []metricDef {
	var names []string
	for _, l := range cpuLayers {
		names = append(names, l+".cpu_s")
	}
	for _, l := range allocLayers {
		names = append(names, l+".alloc_mb")
	}
	names = append(names, spanMetrics...)
	names = append(names, countMetrics...)
	names = append(names, driverLayerMetrics...)

	defs := make([]metricDef, len(names))
	for i, n := range names {
		defs[i] = metricDef{Name: n, Unit: layerUnit(n), Better: "lower"}
		if higherIsBetter[n] {
			defs[i].Better = "higher"
		}
	}
	return defs
}

// layerUnit reads a per-layer metric's unit off its name.
func layerUnit(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_pct", "%"}, {"_per_s", "1/s"}, {"_ratio", "ratio"}, {"cpu_util", "ratio"},
		{"alloc_mb", "MB"}, {"_kb", "kB"}, {"_ns", "ns"}, {"_us", "us"}, {"_ms", "ms"}, {"_s", "s"},
		{"ns_per_event", "ns"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}

package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"toposhot/internal/runner"
)

// Every run pins the scheduler to two threads, so a bigger machine gives
// comparable numbers.
const maxProcs = 2

// At least minReps fresh repetitions (world rebuilt each time) go into every
// run, and as many more as the time budget holds: timings are the median
// repetition, step samples are pooled. Repetitions are kept short so that
// the yardstick samples between them follow the machine's speed closely.
const minReps = 3

// metricValue is one reported number. Values holds the per-repetition
// figures behind a median, which -compare reads the run's spread from.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values,omitempty"`
}

// runResult is everything one (workload, mode) run produced.
type runResult struct {
	Workload    string                 `json:"workload"`
	WorkUnit    string                 `json:"work_unit"`
	Seed        int64                  `json:"seed"`
	Traced      bool                   `json:"traced"`
	Parallel    int                    `json:"parallel"`
	Reps        int                    `json:"reps"`
	StepSamples int                    `json:"step_samples,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
	// Fingerprint is a digest of FingerprintText, the simulated statistics
	// that must repeat exactly for a fixed seed.
	Fingerprint     string   `json:"fingerprint"`
	FingerprintText []string `json:"fingerprint_text"`
	// Raw holds, per repetition, wall_s and setup_s as the clock read them
	// and the yardstick pass time they were scaled by.
	Raw       map[string][]float64 `json:"raw,omitempty"`
	Checks    []check              `json:"checks"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
	Notes     []string             `json:"notes,omitempty"`
}

func (r *runResult) set(name string, v float64, perRep []float64) {
	unit := layerUnit(name)
	if d, ok := endToEndDef(name); ok {
		unit = d.Unit
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit, Values: perRep}
}

func (r *runResult) fail(format string, args ...interface{}) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// oneRep runs a single repetition and books its operations: the repetition
// itself, its steps, and its output checks.
func (r *runResult) oneRep(w workload, sz sizes, m *meter) *repOut {
	out, err := w.run(r.Seed, sz, m)
	r.Reps++
	r.Attempted++
	if err != nil {
		r.fail("rep %d: %v", r.Reps, err)
		return nil
	}
	r.Attempted += len(m.steps) + len(out.checks)
	for _, c := range out.checks {
		if !c.OK {
			r.fail("rep %d: check %s: %s", r.Reps, c.Name, c.Detail)
		}
	}
	if r.FingerprintText == nil {
		r.FingerprintText, r.Fingerprint, r.Checks = out.fingerprint, fingerprintHash(out.fingerprint), out.checks
	} else if got := fingerprintHash(out.fingerprint); got != r.Fingerprint {
		r.fail("rep %d: simulated fingerprint %s differs from rep 1's %s", r.Reps, got, r.Fingerprint)
	}
	return out
}

// newRun pins the scheduler and the runner's pool for a workload and returns
// the empty result of a run.
func newRun(w workload, seed int64, traced bool) *runResult {
	runtime.GOMAXPROCS(maxProcs)
	runner.SetParallelism(w.parallel)
	return &runResult{Workload: w.name, WorkUnit: w.workUnit, Seed: seed, Parallel: w.parallel, Traced: traced,
		Metrics: make(map[string]metricValue), Raw: make(map[string][]float64)}
}

// runUntraced measures the end-to-end metrics: telemetry off, no profiler,
// fresh repetitions until both minReps and the time budget are spent.
func runUntraced(w workload, seed int64, sz sizes, reps int, budget time.Duration, yard *yardstick) *runResult {
	r := newRun(w, seed, false)

	// Host times are scaled by the yardstick samples around each repetition
	// (see yardstick.go); r.Raw keeps the seconds as the clock read them.
	var wall, setup, rate, alloc, steps, repP50 []float64
	var sim map[string]float64
	if err := yard.mark(); err != nil {
		r.fail("%v", err)
		return r
	}
	for t0 := time.Now(); r.Reps < reps || time.Since(t0) < budget; {
		m := &meter{}
		out := r.oneRep(w, sz, m)
		if out == nil {
			break
		}
		scale, pass, err := yard.scale()
		if err != nil {
			r.fail("%v", err)
			break
		}
		r.Raw["wall_s"] = append(r.Raw["wall_s"], m.wallS())
		r.Raw["setup_s"] = append(r.Raw["setup_s"], m.setupS())
		r.Raw["yardstick_ms"] = append(r.Raw["yardstick_ms"], pass)

		wall, setup = append(wall, m.wallS()*scale), append(setup, m.setupS()*scale)
		rate, alloc = append(rate, out.work/(m.wallS()*scale)), append(alloc, m.allocMB())
		first := len(steps)
		for _, ms := range m.steps {
			steps = append(steps, ms*scale)
		}
		if w.steps {
			repP50 = append(repP50, median(steps[first:]))
		}
		sim = out.sim
	}
	if len(wall) == 0 {
		return r
	}

	r.set("wall_s", median(wall), wall)
	r.set("setup_s", median(setup), setup)
	r.set("work_per_s", median(rate), rate)
	r.set("alloc_mb", median(alloc), alloc)
	if w.steps {
		r.StepSamples = len(steps)
		r.set("step_p50_ms", median(steps), repP50)
		if p90, err := percentile(steps, 90); err == nil {
			r.set("step_p90_ms", p90, nil)
		} else {
			r.Notes = append(r.Notes, "step_p90_ms omitted: "+err.Error())
		}
	}
	for name, v := range sim {
		r.set(name, v, nil)
	}
	if rss, err := peakRSSMB(); err == nil {
		r.set("peak_rss_mb", rss, nil)
	} else {
		r.fail("peak_rss_mb: %v", err)
	}
	r.set("fail_share", float64(r.Failed)/float64(r.Attempted), nil)
	return r
}

// counterMetrics are the group-C counts that are sums of the program's own
// counters (internal/metrics names) over the timed section.
var counterMetrics = []struct {
	metric   string
	counters []string
}{
	{"txpool.admitted", []string{"txpool.admitted.pending", "txpool.admitted.future"}},
	{"txpool.replaced", []string{"txpool.replaced"}},
	{"txpool.evicted", []string{"txpool.evicted"}},
	{"txpool.expired", []string{"txpool.expired"}},
	// Every refusal, a duplicate of a held transaction included.
	{"txpool.rejected", []string{"txpool.rejected.known", "txpool.rejected.underpriced", "txpool.rejected.pool_full",
		"txpool.rejected.stale_nonce", "txpool.rejected.over_account_cap"}},
	{"txpool.offers", []string{"txpool.admitted.pending", "txpool.admitted.future", "txpool.replaced",
		"txpool.rejected.known", "txpool.rejected.underpriced", "txpool.rejected.pool_full",
		"txpool.rejected.stale_nonce", "txpool.rejected.over_account_cap"}},
	{"ethsim.msgs", []string{"ethsim.msg.txs", "ethsim.msg.announce", "ethsim.msg.request"}},
	{"ethsim.msgs_txs", []string{"ethsim.msg.txs"}},
	{"ethsim.msgs_announce", []string{"ethsim.msg.announce"}},
	{"ethsim.msgs_request", []string{"ethsim.msg.request"}},
	{"ethsim.announce_lock_hits", []string{"ethsim.announce_lock_hits"}},
	{"core.rounds", []string{"core.rounds"}},
	{"core.edges_measured", []string{"core.edges.measured"}},
	{"core.edges_detected", []string{"core.edges.detected"}},
	{"core.setup_failed", []string{"core.edges.setup_failed"}},
	{"tracker.pairs_planned", []string{"tracker.pairs.planned"}},
	{"tracker.pairs_probed", []string{"tracker.pairs.probed"}},
	{"tracker.pairs_failed", []string{"tracker.pairs.failed"}},
	{"tracker.verdict_flips", []string{"tracker.verdict_flips"}},
}

// tracedPairs is how many (untraced, traced) pairs of repetitions a traced
// run makes. The pairs alternate, so both sides of trace.overhead_pct see
// the same weather, and the profiles of the traced ones are summed.
const tracedPairs = 3

// runTraced produces a workload's per-layer metrics (groups A to C) from
// repetitions with spans, the program's telemetry and the profiler on, each
// paired with an untraced one: the pair gives trace.overhead_pct and checks
// that telemetry does not change the simulation. Figures are means per
// traced repetition. None of them feeds an end-to-end metric. Group D is
// added by addLayers.
func runTraced(w workload, seed int64, sz sizes, pairs int, outDir string, yard *yardstick) *runResult {
	r := newRun(w, seed, true)
	for _, d := range perLayer() {
		r.set(d.Name, 0, nil)
	}

	tr := newTracer(w.name)
	var out *repOut
	var baseWall, tracedWall []float64 // yardstick-scaled
	var wall float64                   // raw, summed over traced repetitions
	if err := yard.mark(); err != nil {
		r.fail("%v", err)
		return r
	}
	for i := 0; i < pairs; i++ {
		for _, traced := range []bool{false, true} {
			m := &meter{}
			if traced {
				m.tr = tr
				tr.on()
			}
			out = r.oneRep(w, sz, m)
			if traced {
				tr.off()
			}
			if out == nil {
				return r
			}
			scale, _, err := yard.scale()
			if err != nil {
				r.fail("%v", err)
				return r
			}
			if traced {
				tracedWall = append(tracedWall, m.wallS()*scale)
				wall += m.wallS()
			} else {
				baseWall = append(baseWall, m.wallS()*scale)
			}
		}
	}
	perRep := func(sum float64) float64 { return sum / float64(pairs) }

	// A: CPU and allocation attribution of the timed section.
	var cpuTotal, cpuListed int64
	for _, v := range tr.cpuByLayer {
		cpuTotal += v
	}
	for _, l := range cpuLayers {
		r.set(l+".cpu_s", perRep(float64(tr.cpuByLayer[l])/1e9), nil)
		cpuListed += tr.cpuByLayer[l]
	}
	if math.Abs(float64(cpuListed-cpuTotal)) > 0.03*float64(cpuTotal) {
		r.fail("folded cpu_s sums to %.3f s of %.3f s profiled", float64(cpuListed)/1e9, float64(cpuTotal)/1e9)
	}
	// Layers without an alloc_mb metric of their own count as "other".
	var allocUnlisted int64
	for layer, v := range tr.allocByLayer {
		if !slices.Contains(allocLayers, layer) {
			allocUnlisted += v
		}
	}
	for _, l := range allocLayers {
		v := tr.allocByLayer[l]
		if l == "other" {
			v += allocUnlisted
		}
		r.set(l+".alloc_mb", perRep(float64(v)/(1<<20)), nil)
	}

	// B: harness spans.
	fillSelfTimes(tr.spans.spans)
	self := selfByName(tr.spans.spans)
	for name := range self {
		self[name] = perRep(self[name])
	}
	r.set("netgen.grow_s", self["netgen.Grow"], nil)
	r.set("ethsim.build_s", self["ethsim.NewNetwork"]+self["netgen.InstantiateScaled"]+self["Supernode.ConnectAll"], nil)
	r.set("ethsim.prefill_s", self["Workload.Prefill"], nil)
	r.set("core.preprocess_s", self["Measurer.Preprocess"], nil)
	r.set("core.measure_s", self["Measurer.MeasureNetworkResume"]+self["MeasurePar batch"], nil)
	r.set("core.score_s", self["core.ScoreAgainst"], nil)
	r.set("experiments.run_s", self["experiments.RunScaleCensus"]+self["experiments.RunTracking"], nil)
	if err := writeSpans(filepath.Join(outDir, "trace-"+w.name+".json"), tr.spans.spans); err != nil {
		r.fail("writing spans: %v", err)
	}

	// C: counts over the timed section, from the program's own counters.
	c := make(map[string]int64, len(tr.counters))
	for name, v := range tr.counters {
		c[name] = v / int64(pairs) // every repetition counts the same
	}
	wall = perRep(wall)
	for _, cm := range counterMetrics {
		var sum int64
		for _, name := range cm.counters {
			sum += c[name]
		}
		r.set(cm.metric, float64(sum), nil)
	}
	val := func(metric string) float64 { return r.Metrics[metric].Value }
	if offers := val("txpool.offers"); offers > 0 {
		r.set("txpool.useful_ratio", (val("txpool.admitted")+val("txpool.replaced"))/offers, nil)
	}
	r.set("ethsim.msgs_per_s", val("ethsim.msgs")/wall, nil)
	r.set("sim.events", float64(out.events), nil)
	r.set("sim.events_per_s", float64(out.events)/wall, nil)
	if out.events > 0 {
		r.set("sim.ns_per_event", wall*1e9/float64(out.events), nil)
	}
	r.set("core.txs_sent", float64(out.txsSent), nil)
	r.set("runner.cpu_util", perRep(tr.processCPUSecs)/(wall*float64(w.parallel)), nil)
	r.set("trace.overhead_pct", 100*(median(tracedWall)-median(baseWall))/median(baseWall), nil)

	return r
}

// addLayers runs the layers pass and books it as one operation.
func (r *runResult) addLayers(samples int, scale float64) {
	layers, err := runLayers(samples, scale)
	r.Attempted++
	if err != nil {
		r.fail("layers pass: %v", err)
	}
	for name, v := range layers {
		r.set(name, v, nil)
	}
}

// print writes every metric of the run by name with its unit, then the
// checks and the fingerprint.
func (r *runResult) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %d reps, parallel %d, work unit: %s)\n",
		r.Workload, mode, r.Seed, r.Reps, r.Parallel, r.WorkUnit)
	var names []string
	if r.Traced {
		for _, d := range perLayer() {
			names = append(names, d.Name)
		}
	} else {
		for _, d := range endToEnd {
			if _, ok := r.Metrics[d.Name]; ok {
				names = append(names, d.Name)
			}
		}
	}
	for _, n := range names {
		v := r.Metrics[n]
		line := fmt.Sprintf("  %-28s %14.6g %s", n, v.Value, v.Unit)
		if len(v.Values) > 1 {
			line += fmt.Sprintf("   (median of %d, spread %.1f%%)", len(v.Values), 100*spread(v.Values))
		}
		if strings.HasPrefix(n, "step_") {
			line += fmt.Sprintf("   (%d samples)", r.StepSamples)
		}
		fmt.Fprintln(w, line)
	}
	if raw := r.Raw["wall_s"]; len(raw) > 0 {
		fmt.Fprintf(w, "  host times above are scaled to a %.0f ms yardstick pass; measured pass %.2f ms, raw wall_s %.6g s, raw setup_s %.6g s\n",
			yardRefMS, median(r.Raw["yardstick_ms"]), median(raw), median(r.Raw["setup_s"]))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "  check %-24s %s (%s)\n", c.Name, status, c.Detail)
	}
	fmt.Fprintf(w, "  fingerprint %s   operations %d, failed %d\n", r.Fingerprint, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILURE: %s\n", f)
	}
}

package main

import (
	"fmt"
	"io"
	"math"
)

// verdict of one (workload, end-to-end metric) row of -compare.
const (
	verdictOK         = "ok"
	verdictOutside    = "outside"    // worse than the baseline by more than the bound
	verdictUnresolved = "unresolved" // the runs' own spread is wider than the bound
)

// judge compares a metric's value in two runs. worse is how far b is on the
// bad side of a, as a share of a; allowed is the metric's bound (widened by
// its absolute floor near zero).
func judge(d metricDef, a, b metricValue) (worse, allowed float64, verdict string) {
	delta := b.Value - a.Value
	if d.Better == "higher" {
		delta = -delta
	}
	allowed = d.Bound
	if a.Value != 0 {
		worse = delta / math.Abs(a.Value)
		if floor := d.AbsFloor / math.Abs(a.Value); floor > allowed {
			allowed = floor
		}
	} else if delta != 0 {
		worse = math.Inf(int(math.Copysign(1, delta)))
	}
	switch {
	case math.Max(spread(a.Values), spread(b.Values)) > allowed && !allBetter(d, a.Values, b.Values):
		return worse, allowed, verdictUnresolved
	case worse > allowed:
		return worse, allowed, verdictOutside
	}
	return worse, allowed, verdictOK
}

// allBetter reports whether every repetition of b reads better than every
// repetition of a, which settles a comparison however wide the spread.
func allBetter(d metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if (d.Better == "lower" && y >= x) || (d.Better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the relative difference and the bound, and returns the exit code: 1 when
// any row is outside its bound. Same-seed fingerprints are shown, not judged:
// a correctness change may move them, and -check-against is the strict form.
func compareFiles(w io.Writer, pathA, pathB string) int {
	var a, b result
	if err := readJSON(pathA, &a); err != nil {
		fatal("%v", err)
	}
	if err := readJSON(pathB, &b); err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(w, "a = %s (commit %s, seed %d)\nb = %s (commit %s, seed %d)\n",
		pathA, a.Machine.Commit, a.Seed, pathB, b.Machine.Commit, b.Seed)
	bad := 0
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil || ra.Untraced == nil || rb.Untraced == nil {
			fmt.Fprintf(w, "%s: missing from one file\n", wl.name)
			bad++
			continue
		}
		fmt.Fprintf(w, "%s\n  %-14s %14s %14s %9s %8s  %s\n", wl.name, "metric", "a", "b", "worse", "bound", "verdict")
		for _, d := range endToEnd {
			if skips(wl, d.Name) {
				continue
			}
			va, okA := ra.Untraced.Metrics[d.Name]
			vb, okB := rb.Untraced.Metrics[d.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "  %-14s missing from one file\n", d.Name)
				bad++
				continue
			}
			worse, allowed, verdict := judge(d, va, vb)
			if verdict == verdictOutside {
				bad++
			}
			fmt.Fprintf(w, "  %-14s %14.6g %14.6g %+8.2f%% %7.2f%%  %s\n",
				d.Name, va.Value, vb.Value, 100*worse, 100*allowed, verdict)
		}
		if a.Seed == b.Seed {
			same := ra.Untraced.Fingerprint == rb.Untraced.Fingerprint
			fmt.Fprintf(w, "  simulated fingerprint %s vs %s: identical=%v\n", ra.Untraced.Fingerprint, rb.Untraced.Fingerprint, same)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

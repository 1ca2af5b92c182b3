package main

import (
	"testing"
)

// TestSmoke runs every workload at toy size, untraced and traced, and the
// whole layers pass at one iteration, so `go test ./...` notices when the
// harness no longer fits the packages it measures without paying for a real
// run. Accuracy checks run too, but nothing here is a measurement.
func TestSmoke(t *testing.T) {
	const seed = 11
	outDir := t.TempDir()
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			u := runUntraced(w, seed, smokeSizes, 1, 0, nil)
			for _, f := range u.Failures {
				t.Errorf("untraced: %s", f)
			}
			for _, d := range endToEnd {
				v, ok := u.Metrics[d.Name]
				switch {
				case skips(w, d.Name) && ok:
					t.Errorf("%s reported on a workload that has no such metric", d.Name)
				case !skips(w, d.Name) && !ok && d.Name != "step_p90_ms": // toy runs have too few steps for a p90
					t.Errorf("%s missing", d.Name)
				case ok && d.Name != "fail_share" && !(v.Value > 0):
					t.Errorf("%s = %v, want a positive number", d.Name, v.Value)
				}
			}

			tr := runTraced(w, seed, smokeSizes, 1, outDir, nil)
			for _, f := range tr.Failures {
				t.Errorf("traced: %s", f)
			}
			if tr.Fingerprint != u.Fingerprint {
				t.Errorf("fingerprint %s traced, %s untraced: telemetry changed the simulation", tr.Fingerprint, u.Fingerprint)
			}
			var cpu float64
			for _, l := range cpuLayers {
				cpu += tr.Metrics[l+".cpu_s"].Value
			}
			if tr.Metrics["txpool.offers"].Value == 0 || tr.Metrics["ethsim.msgs"].Value == 0 {
				t.Errorf("counters stayed at zero: offers %v msgs %v (profiled %v cpu s)",
					tr.Metrics["txpool.offers"].Value, tr.Metrics["ethsim.msgs"].Value, cpu)
			}
		})
	}

	t.Run("layers", func(t *testing.T) {
		got, err := runLayers(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range driverLayerMetrics {
			if _, ok := got[name]; !ok {
				t.Errorf("layers pass produced no %s", name)
			}
		}
		if len(got) != len(driverLayerMetrics) {
			t.Errorf("layers pass produced %d metrics, %d are declared", len(got), len(driverLayerMetrics))
		}
	})
}

package experiments

import (
	"reflect"
	"testing"

	"toposhot/internal/netgen"
	"toposhot/internal/runner"
)

// scaleTestConfig is a downsized sharded census: a few hundred nodes in a
// handful of regions, so the whole test stays in CI budget while still
// exercising multi-region aggregation and multi-lane engines.
func scaleTestConfig(seed int64) ScaleCensusConfig {
	return ScaleCensusConfig{
		CensusConfig: CensusConfig{
			Name:       "scaletest",
			Grow:       netgen.RopstenConfig.WithSeed(seed).WithN(180),
			Het:        netgen.DefaultHeterogeneity(),
			Seed:       seed,
			PoolScale:  0.1,
			GroupK:     30,
			EdgeBudget: 100,
			Prefill:    120,
		},
		Regions: 4,
		Lanes:   2,
	}
}

// TestScaleCensusParallelWidthInvariant pins the sharded census's core
// contract: every region runs in its own engine, so the aggregate result is
// byte-identical whether regions execute serially or across a worker pool of
// width 2, 4 or 8.
func TestScaleCensusParallelWidthInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded census is a multi-minute simulation")
	}
	saved := runner.Parallelism()
	defer runner.SetParallelism(saved)

	runner.SetParallelism(1)
	serial, err := RunScaleCensus(scaleTestConfig(9))
	if err != nil {
		t.Fatalf("serial sharded census: %v", err)
	}
	for _, width := range []int{2, 4, 8} {
		runner.SetParallelism(width)
		wide, err := RunScaleCensus(scaleTestConfig(9))
		if err != nil {
			t.Fatalf("sharded census at width %d: %v", width, err)
		}
		if !reflect.DeepEqual(serial.Regions, wide.Regions) {
			t.Fatalf("region rows diverged at width %d:\nserial: %+v\nwide:   %+v", width, serial.Regions, wide.Regions)
		}
		if !reflect.DeepEqual(serial.Measured.Edges(), wide.Measured.Edges()) {
			t.Fatalf("measured edge sets diverged at width %d", width)
		}
		if FormatScaleCensus(serial) != FormatScaleCensus(wide) {
			t.Fatalf("summaries diverged at width %d:\n%s\n%s", width, FormatScaleCensus(serial), FormatScaleCensus(wide))
		}
	}

	// Coverage accounting must partition the ground truth exactly.
	if serial.CoveredEdges+serial.CrossEdges != serial.Truth.NumEdges() {
		t.Fatalf("coverage accounting broken: %d intra + %d cross != %d total",
			serial.CoveredEdges, serial.CrossEdges, serial.Truth.NumEdges())
	}
	if serial.TP > serial.CoveredEdges {
		t.Fatalf("TP %d exceeds measurable links %d", serial.TP, serial.CoveredEdges)
	}
	if serial.TP == 0 {
		t.Fatal("sharded census detected nothing")
	}
	if serial.Precision < 0.9 {
		t.Fatalf("sharded census precision %.3f below 0.9", serial.Precision)
	}
	t.Logf("\n%s", FormatScaleCensus(serial))
}

package experiments

import (
	"reflect"
	"testing"

	"toposhot/internal/runner"
)

// tinyEquivCensus is a deliberately small campaign: big enough to exercise
// the full census pipeline (growth, preprocessing, parallel schedule,
// scoring), small enough to run several times in one test.
func tinyEquivCensus(seed int64) CensusConfig {
	cfg := RopstenCensus(seed)
	cfg.Grow = cfg.Grow.WithN(30)
	cfg.GroupK = 5
	cfg.Prefill = 60
	return cfg
}

// TestCensusRunnerEquivalence is the PR's core determinism guarantee: a
// census run on a pool worker is byte-identical to the same census run
// directly on the test goroutine. Each run owns a private engine seeded
// from the config, so goroutine identity, scheduling order, and sibling
// jobs must not be observable in any output.
func TestCensusRunnerEquivalence(t *testing.T) {
	cfg := tinyEquivCensus(4242)

	direct, err := RunCensus(cfg)
	if err != nil {
		t.Fatal(err)
	}

	runner.SetParallelism(4)
	defer runner.SetParallelism(0)
	// Three concurrent same-seed runs: equal to each other and to direct.
	pooled := runner.Map(3, func(int) *Census {
		c, err := RunCensus(cfg)
		if err != nil {
			t.Error(err)
			return nil
		}
		return c
	})

	for i, c := range pooled {
		if c == nil {
			t.Fatalf("run %d failed", i)
		}
		if !reflect.DeepEqual(c.Score, direct.Score) {
			t.Errorf("run %d: score %+v != direct %+v", i, c.Score, direct.Score)
		}
		if got, want := c.Measured.Edges(), direct.Measured.Edges(); !reflect.DeepEqual(got, want) {
			t.Errorf("run %d: measured edges diverge: %d vs %d edges", i, len(got), len(want))
		}
		if !reflect.DeepEqual(c.Truth.Edges(), direct.Truth.Edges()) {
			t.Errorf("run %d: ground-truth graphs diverge", i)
		}
		if !reflect.DeepEqual(c.MsgCount, direct.MsgCount) {
			t.Errorf("run %d: message counts diverge: %v vs %v", i, c.MsgCount, direct.MsgCount)
		}
		if c.DurationHours != direct.DurationHours || c.Calls != direct.Calls {
			t.Errorf("run %d: schedule diverges: %.6f/%d vs %.6f/%d", i,
				c.DurationHours, c.Calls,
				direct.DurationHours, direct.Calls)
		}
		if c.CostEther != direct.CostEther {
			t.Errorf("run %d: cost %.12f != %.12f", i, c.CostEther, direct.CostEther)
		}
	}
}

// TestSweepParallelismInvariance pins the sweep-level guarantee: a row
// sweep produces deep-equal rows whether the pool runs serial or wide.
func TestSweepParallelismInvariance(t *testing.T) {
	runner.SetParallelism(1)
	serial := Table8(5, 2)
	runner.SetParallelism(4)
	defer runner.SetParallelism(0)
	parallel := Table8(5, 2)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("Table8 rows diverge across parallelism:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

package experiments

import (
	"testing"

	"toposhot/internal/runner"
	"toposhot/internal/strategy"
)

// smallCompareConfig keeps the head-to-head affordable for the test suite
// while preserving every claim the full run makes.
func smallCompareConfig() CompareConfig {
	cfg := DefaultCompareConfig()
	cfg.Nodes = 32
	cfg.EdgePairs, cfg.NonEdgePairs = 6, 6
	cfg.Strategy.EthnaSamples = 32
	return cfg
}

// TestCompareHeadToHead pins the characteristic four-method outcome: the
// shared pair list is honored, TopoShot stays exact, and TxProbe reproduces
// its account-model false-positive collapse.
func TestCompareHeadToHead(t *testing.T) {
	rows, err := Compare(7, smallCompareConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(strategy.Methods()) {
		t.Fatalf("rows = %d, want %d", len(rows), len(strategy.Methods()))
	}
	byMethod := make(map[strategy.Method]CompareRow)
	for i, r := range rows {
		if r.Method != strategy.Methods()[i] {
			t.Errorf("row %d is %s, want canonical order %v", i, r.Method, strategy.Methods())
		}
		if r.Pairs != 12 {
			t.Errorf("%s measured %d pairs, want 12", r.Method, r.Pairs)
		}
		byMethod[r.Method] = r
	}
	ts := byMethod[strategy.MethodTopoShot]
	if ts.Score.FalsePositives != 0 || ts.Score.Recall() != 1 {
		t.Errorf("TopoShot not exact: %v", ts.Score)
	}
	if ts.Cost.FutureTxs == 0 {
		t.Error("TopoShot reported no future-transaction cost")
	}
	tp := byMethod[strategy.MethodTxProbe]
	if tp.Score.FalsePositives == 0 {
		t.Error("TxProbe clean: account-model collapse not reproduced")
	}
	de := byMethod[strategy.MethodDEthna]
	if de.Cost.Total() >= ts.Cost.Total() {
		t.Errorf("DEthna cost %d not below TopoShot cost %d", de.Cost.Total(), ts.Cost.Total())
	}
}

// TestCompareGoldenTable pins the rendered table byte-for-byte at a fixed
// seed — the CI smoke artifact.
func TestCompareGoldenTable(t *testing.T) {
	rows, err := Compare(7, smallCompareConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "compare_seed7.txt", []byte(FormatCompare(rows)))
}

// TestCompareSerialParallelIdentity renders the table at runner width 1 and
// width 4 and demands byte identity — each method's replica is its own
// engine, so pool scheduling cannot leak into results.
func TestCompareSerialParallelIdentity(t *testing.T) {
	prev := runner.Parallelism()
	defer runner.SetParallelism(prev)

	runner.SetParallelism(1)
	serialRows, err := Compare(7, smallCompareConfig())
	if err != nil {
		t.Fatal(err)
	}
	serial := FormatCompare(serialRows)

	runner.SetParallelism(4)
	parallelRows, err := Compare(7, smallCompareConfig())
	if err != nil {
		t.Fatal(err)
	}
	parallel := FormatCompare(parallelRows)

	if serial != parallel {
		t.Errorf("serial and parallel tables differ\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

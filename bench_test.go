package toposhot

// The repository-level benchmark harness: one benchmark per table and
// figure of the paper's evaluation (§6 and the appendices). Each benchmark
// regenerates its artifact and reports the headline quantities as benchmark
// metrics, so `go test -bench=. -benchmem` reproduces the full evaluation.
//
// Whole-testnet censuses are expensive; they run once and are shared across
// the benchmarks that analyze the same testnet (Fig 6 + Tables 4/5 etc.).
// By default the censuses run at half the paper's node counts (Ropsten 294,
// Rinkeby 223, Goerli 512) to keep the whole suite under ~20 minutes; set
// TOPOSHOT_FULL=1 for the paper-scale 588/446/1025 run, or -short for a
// quarter-scale smoke pass.

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"toposhot/internal/experiments"
	"toposhot/internal/graph"
	"toposhot/internal/runner"
	"toposhot/internal/txpool"
)

const benchSeed = 42

// TestMain sizes the experiment runner's worker pool for the whole suite.
// `go test -parallel N` doubles as the knob (its default is GOMAXPROCS,
// which is also the runner's default); TOPOSHOT_PARALLEL overrides it when
// the test-framework flag needs to stay independent. Parallelism changes
// wall-clock only: every experiment is pinned byte-identical to its serial
// run by the equivalence tests in internal/experiments.
func TestMain(m *testing.M) {
	flag.Parse()
	n := runtime.GOMAXPROCS(0)
	if f := flag.Lookup("test.parallel"); f != nil {
		if v, err := strconv.Atoi(f.Value.String()); err == nil && v > 0 {
			n = v
		}
	}
	if env := os.Getenv("TOPOSHOT_PARALLEL"); env != "" {
		if v, err := strconv.Atoi(env); err == nil && v > 0 {
			n = v
		}
	}
	runner.SetParallelism(n)
	os.Exit(m.Run())
}

// benchVerbose mirrors experiment output to stderr when TOPOSHOT_PRINT=1.
func benchPrint(b *testing.B, s string) {
	b.Helper()
	if os.Getenv("TOPOSHOT_PRINT") != "" {
		fmt.Fprintln(os.Stderr, s)
	}
}

func BenchmarkTable3ClientProfiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3()
		if len(rows) != 5 {
			b.Fatalf("expected 5 client profiles, got %d", len(rows))
		}
		if i == 0 {
			benchPrint(b, experiments.FormatTable3(rows))
			b.ReportMetric(rows[0].R*100, "geth-R-%")
			b.ReportMetric(float64(rows[0].L), "geth-L")
		}
	}
}

func BenchmarkFig4aRecallVsFutures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig4a(benchSeed)
		if i == 0 {
			benchPrint(b, experiments.FormatFig4a(rows))
			b.ReportMetric(100*rows[0].Recall, "recall@minZ-%")
			b.ReportMetric(100*rows[len(rows)-1].Recall, "recall@maxZ-%")
		}
	}
}

func BenchmarkFig4bParallelGroupSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig4b(benchSeed)
		if i == 0 {
			benchPrint(b, experiments.FormatFig4b(rows))
			var minPrec, lastRecall float64 = 1, 1
			for _, r := range rows {
				if r.Precision < minPrec {
					minPrec = r.Precision
				}
				lastRecall = r.Recall
			}
			b.ReportMetric(100*minPrec, "min-precision-%")
			b.ReportMetric(100*lastRecall, "recall@p99-%")
		}
	}
}

func BenchmarkFig5ParallelSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig5(benchSeed)
		if i == 0 {
			benchPrint(b, experiments.FormatFig5(rows))
			for _, r := range rows {
				if r.GroupSize == 30 {
					b.ReportMetric(r.Speedup, "speedup@K30-x")
				}
			}
		}
	}
}

// benchCensusConfig resolves a named campaign at the suite's scale.
func benchCensusConfig(name string) experiments.CensusConfig {
	var cfg experiments.CensusConfig
	switch name {
	case "rinkeby":
		cfg = experiments.RinkebyCensus(benchSeed)
	case "goerli":
		cfg = experiments.GoerliCensus(benchSeed)
	default:
		cfg = experiments.RopstenCensus(benchSeed)
	}
	switch {
	case testing.Short():
		cfg.Grow = cfg.Grow.WithN(cfg.Grow.N / 4)
	case os.Getenv("TOPOSHOT_FULL") == "":
		cfg.Grow = cfg.Grow.WithN(cfg.Grow.N / 2)
	}
	return cfg
}

// censusPrewarm launches all three testnet campaigns on the first census
// request. Each census is one serial engine, but the three are independent,
// so warming them concurrently costs the wall-clock of the slowest instead
// of the sum; the singleflight cache in experiments shares each run across
// every benchmark that analyzes the same testnet.
var censusPrewarm sync.Once

func benchCensus(b *testing.B, name string) *experiments.Census {
	b.Helper()
	censusPrewarm.Do(func() {
		experiments.PrewarmCensuses(
			benchCensusConfig("ropsten"),
			benchCensusConfig("rinkeby"),
			benchCensusConfig("goerli"),
		)
	})
	c, err := experiments.CachedCensus(benchCensusConfig(name))
	if err != nil {
		b.Fatalf("census %s: %v", name, err)
	}
	return c
}

func BenchmarkFig6RopstenDegrees(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := benchCensus(b, "ropsten")
		if i == 0 {
			benchPrint(b, experiments.FormatDegreeDistribution(c.Measured, 90))
			b.ReportMetric(c.Measured.AverageDegree(), "avg-degree")
			b.ReportMetric(100*c.Score.Recall(), "recall-%")
			b.ReportMetric(100*c.Score.Precision(), "precision-%")
		}
	}
}

func BenchmarkTable4RopstenProperties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := benchCensus(b, "ropsten")
		t := experiments.PropertyTable("ropsten", c, 3, benchSeed)
		if i == 0 {
			benchPrint(b, experiments.FormatGraphTable(t))
			b.ReportMetric(t.Measured.Modularity, "modularity")
			b.ReportMetric(t.Baselines.ER.Modularity, "ER-modularity")
		}
	}
}

func BenchmarkTable5RopstenCommunities(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := benchCensus(b, "ropsten")
		rows := experiments.CommunityTable(c)
		if i == 0 {
			benchPrint(b, experiments.FormatCommunityTable("Ropsten", rows))
			b.ReportMetric(float64(len(rows)), "communities")
		}
	}
}

func BenchmarkTable6MainnetCritical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table6(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			benchPrint(b, experiments.FormatTable6(r))
			agree := 0.0
			if r.GroundTruthAgree {
				agree = 1
			}
			ni := 0.0
			if r.NonInterferenceOK {
				ni = 1
			}
			b.ReportMetric(agree, "truth-agreement")
			b.ReportMetric(ni, "non-interference")
		}
	}
}

func BenchmarkTable7CostSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var cs []*experiments.Census
		for _, n := range []string{"ropsten", "rinkeby", "goerli"} {
			cs = append(cs, benchCensus(b, n))
		}
		rows := experiments.Table7(cs, nil)
		if i == 0 {
			benchPrint(b, experiments.FormatTable7(rows))
			b.ReportMetric(rows[0].Cost, "ropsten-ETH")
			b.ReportMetric(rows[0].Duration, "ropsten-hours")
		}
	}
}

func BenchmarkFig7LocalMempoolSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7(benchSeed)
		if i == 0 {
			benchPrint(b, experiments.FormatFig7(rows))
			// The theorem cell-exactness: every cell matches L−pending ≤ Z.
			exact := 1.0
			for _, r := range rows {
				want := r.MempoolSize-r.Pending <= 5120
				if (r.Recall == 1) != want {
					exact = 0
				}
			}
			b.ReportMetric(exact, "cells-exact")
		}
	}
}

func BenchmarkTable8LocalParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table8(benchSeed, 10)
		if i == 0 {
			benchPrint(b, experiments.FormatTable8(rows))
			perfect := 1.0
			for _, r := range rows {
				if r.Recall != 1 || r.Precision != 1 {
					perfect = 0
				}
			}
			b.ReportMetric(perfect, "all-100%")
		}
	}
}

func BenchmarkFig8to10DegreeDistributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rk := benchCensus(b, "rinkeby")
		gl := benchCensus(b, "goerli")
		if i == 0 {
			benchPrint(b, experiments.FormatDegreeDistribution(rk.Measured, 150))
			benchPrint(b, experiments.FormatDegreeDistribution(gl.Measured, 100))
			b.ReportMetric(rk.Measured.AverageDegree(), "rinkeby-avg-degree")
			b.ReportMetric(gl.Measured.AverageDegree(), "goerli-avg-degree")
		}
	}
}

func BenchmarkTable9RinkebyProperties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := benchCensus(b, "rinkeby")
		t := experiments.PropertyTable("rinkeby", c, 3, benchSeed)
		if i == 0 {
			benchPrint(b, experiments.FormatGraphTable(t))
			b.ReportMetric(t.Measured.Modularity, "modularity")
		}
	}
}

func BenchmarkTable10GoerliProperties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := benchCensus(b, "goerli")
		t := experiments.PropertyTable("goerli", c, 3, benchSeed)
		if i == 0 {
			benchPrint(b, experiments.FormatGraphTable(t))
			b.ReportMetric(t.Measured.Modularity, "modularity")
		}
	}
}

func BenchmarkAppCNonInterference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AppC(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			benchPrint(b, experiments.FormatAppC(r))
			ok := 0.0
			if r.V1V2OK && !r.Twin.Interfered() {
				ok = 1
			}
			b.ReportMetric(ok, "non-interference")
			b.ReportMetric(float64(r.Blocks), "blocks-compared")
		}
	}
}

func BenchmarkAppATxProbeBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AppA(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			benchPrint(b, experiments.FormatAppA(r))
			b.ReportMetric(float64(r.TxProbe.FalsePositives), "txprobe-FPs")
			b.ReportMetric(float64(r.TopoShot.FalsePositives), "toposhot-FPs")
		}
	}
}

func BenchmarkW2InactiveEdgeBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.W2Crawl(benchSeed)
		if i == 0 {
			benchPrint(b, experiments.FormatW2(r))
			b.ReportMetric(100*r.Report.PrecisionAsActive, "precision-as-active-%")
		}
	}
}

func BenchmarkAblationDesignChoices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Ablations(benchSeed)
		if i == 0 {
			benchPrint(b, experiments.FormatAblations(rows))
			b.ReportMetric(float64(len(rows)), "ablations")
		}
	}
}

func BenchmarkAppETopoShotUnderEIP1559(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AppE(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			benchPrint(b, experiments.FormatAppE(r))
			b.ReportMetric(100*r.Score.Precision(), "precision-%")
			b.ReportMetric(100*r.Score.Recall(), "recall-%")
			b.ReportMetric(float64(r.BaseFeeEnd), "final-base-fee-wei")
		}
	}
}

func BenchmarkFloodZeroRExploit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var rows []experiments.FloodResult
		for _, name := range []string{"geth", "nethermind", "aleth"} {
			pol, _ := txpool.ClientByName(name)
			rows = append(rows, experiments.FloodExploit(pol, benchSeed))
		}
		if i == 0 {
			benchPrint(b, experiments.FormatFlood(rows))
			b.ReportMetric(float64(rows[0].Replacements), "geth-accepted")
			b.ReportMetric(float64(rows[1].Replacements), "nethermind-accepted")
		}
	}
}

func BenchmarkEclipseRiskAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := benchCensus(b, "ropsten")
		r := graph.AnalyzeEclipseRisk(c.Measured.LargestComponent())
		if i == 0 {
			b.ReportMetric(float64(r.VulnerableAtOrBelow[3]), "nodes-deg≤3")
			b.ReportMetric(float64(r.ArticulationPoints), "articulation-points")
			b.ReportMetric(float64(r.Bridges), "bridges")
		}
	}
}

// benchTrackingConfig sizes the churning-goerli incremental-tracking
// campaign: the seeding census is the expensive part, so the node counts sit
// below the census suite's (tracking re-censuses nothing — that is the
// point).
func benchTrackingConfig() experiments.TrackingConfig {
	cfg := experiments.GoerliTracking(benchSeed)
	switch {
	case testing.Short():
		cfg.Census.Grow = cfg.Census.Grow.WithN(48)
	case os.Getenv("TOPOSHOT_FULL") == "":
		cfg.Census.Grow = cfg.Census.Grow.WithN(96)
	default:
		cfg.Census.Grow = cfg.Census.Grow.WithN(192)
	}
	return cfg
}

// BenchmarkIncrementalTracking follows a churning goerli-shaped network with
// budgeted delta campaigns and reports the cost of staying current versus
// re-running the full census every tick. The ≥5× cost-reduction and ≤2
// percentage-point recall-loss floors are the feature's acceptance bars; the
// benchmark fails outright if a regression sinks either.
func BenchmarkIncrementalTracking(b *testing.B) {
	cfg := benchTrackingConfig()
	for i := 0; i < b.N; i++ {
		tr, err := experiments.RunTracking(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			benchPrint(b, experiments.FormatTracking(tr))
			costX, loss := tr.CostReductionX(), tr.RecallLoss()
			if costX < 5 {
				b.Fatalf("delta campaigns only %.1fx cheaper than census-per-tick (floor 5x)", costX)
			}
			if loss > 0.02 {
				b.Fatalf("tracking recall loss %.4f exceeds the 0.02 floor (census %.4f, mean %.4f)",
					loss, tr.CensusScore.Recall(), tr.MeanRecall)
			}
			b.ReportMetric(costX, "cost-reduction-x")
			b.ReportMetric(tr.VirtualReductionX(), "virtual-cost-reduction-x")
			b.ReportMetric(100*loss, "recall-loss-pp")
			b.ReportMetric(100*tr.MeanRecall, "recall-%")
			b.ReportMetric(100*tr.FinalScore.Precision(), "precision-%")
			b.ReportMetric(float64(tr.ChurnEvents), "churn-events")
		}
	}
}

// benchScaleConfig sizes the region-sharded mainnet census for the suite's
// scale: the full 50k-node MainnetConfig under TOPOSHOT_FULL=1, a 1/32
// population (same region granularity) by default, and 1/64 for -short.
func benchScaleConfig() experiments.ScaleCensusConfig {
	cfg := experiments.MainnetScaleCensus(benchSeed)
	switch {
	case testing.Short():
		cfg.Grow = cfg.Grow.WithN(cfg.Grow.N / 64)
		cfg.Regions = 8
	case os.Getenv("TOPOSHOT_FULL") == "":
		cfg.Grow = cfg.Grow.WithN(cfg.Grow.N / 32)
		cfg.Regions = 12
	}
	return cfg
}

// BenchmarkCensusScale runs the region-sharded census at increasing runner
// widths. Regions are independent engines, so wall-clock scales near-
// linearly with min(width, cores, regions) while every reported quantity
// stays identical across widths. speedup-x is measured wall-clock vs the
// width-1 sub-benchmark (bounded by the host's core count — flat on a
// single-core CI runner); fleet-speedup-x is the host-independent figure,
// total virtual measurement hours over the critical path, i.e. the speedup
// a sufficiently wide fleet attains. cmd/benchcompare diffs both.
func BenchmarkCensusScale(b *testing.B) {
	cfg := benchScaleConfig()
	saved := runner.Parallelism()
	defer runner.SetParallelism(saved)
	var serialSecs float64
	for _, width := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel-%d", width), func(b *testing.B) {
			runner.SetParallelism(width)
			for i := 0; i < b.N; i++ {
				start := time.Now()
				sc, err := experiments.RunScaleCensus(cfg)
				secs := time.Since(start).Seconds()
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					if width == 1 {
						serialSecs = secs
					}
					benchPrint(b, experiments.FormatScaleCensus(sc))
					if sc.TP == 0 {
						b.Fatal("sharded census detected nothing")
					}
					if serialSecs > 0 {
						b.ReportMetric(serialSecs/secs, "speedup-x")
					}
					if sc.MaxDurationHours > 0 {
						b.ReportMetric(sc.SumDurationHours/sc.MaxDurationHours, "fleet-speedup-x")
					}
					b.ReportMetric(100*sc.Precision, "precision-%")
					b.ReportMetric(100*sc.RecallCovered, "recall-covered-%")
					b.ReportMetric(100*float64(sc.CoveredEdges)/float64(sc.Truth.NumEdges()), "pair-coverage-%")
				}
			}
		})
	}
}

// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run Table3,Fig4a
//	experiments -run all -seed 7
//
// Each experiment prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"toposhot/internal/experiments"
	"toposhot/internal/obs"
	runnerpool "toposhot/internal/runner"
	"toposhot/internal/txpool"
)

type runner struct {
	name string
	desc string
	run  func(seed int64) (string, error)
}

func table(name string) func(int64) (string, error) {
	return func(seed int64) (string, error) {
		c, err := experiments.CachedCensus(censusFor(name, seed))
		if err != nil {
			return "", err
		}
		t := experiments.PropertyTable(name, c, 5, seed)
		return experiments.FormatGraphTable(t), nil
	}
}

func censusFor(name string, seed int64) experiments.CensusConfig {
	switch name {
	case "rinkeby":
		return experiments.RinkebyCensus(seed)
	case "goerli":
		return experiments.GoerliCensus(seed)
	default:
		return experiments.RopstenCensus(seed)
	}
}

func degrees(name string, highCut int) func(int64) (string, error) {
	return func(seed int64) (string, error) {
		c, err := experiments.CachedCensus(censusFor(name, seed))
		if err != nil {
			return "", err
		}
		return experiments.FormatDegreeDistribution(c.Measured, highCut), nil
	}
}

func runners() []runner {
	return []runner{
		{"Table3", "client mempool policies (R/U/P/L)", func(seed int64) (string, error) {
			return experiments.FormatTable3(experiments.Table3()), nil
		}},
		{"Fig4a", "recall vs number of future transactions", func(seed int64) (string, error) {
			return experiments.FormatFig4a(experiments.Fig4a(seed)), nil
		}},
		{"Fig4b", "precision/recall vs parallel group size", func(seed int64) (string, error) {
			return experiments.FormatFig4b(experiments.Fig4b(seed)), nil
		}},
		{"Fig5", "parallel speedup over serial", func(seed int64) (string, error) {
			return experiments.FormatFig5(experiments.Fig5(seed)), nil
		}},
		{"Fig6", "Ropsten degree distribution", degrees("ropsten", 90)},
		{"Table4", "Ropsten graph properties vs ER/CM/BA", table("ropsten")},
		{"Table5", "Ropsten communities (Louvain)", func(seed int64) (string, error) {
			c, err := experiments.CachedCensus(experiments.RopstenCensus(seed))
			if err != nil {
				return "", err
			}
			return experiments.FormatCommunityTable("Ropsten", experiments.CommunityTable(c)), nil
		}},
		{"Table6", "mainnet critical-subnetwork connections", func(seed int64) (string, error) {
			r, err := experiments.Table6(seed)
			if err != nil {
				return "", err
			}
			return experiments.FormatTable6(r), nil
		}},
		{"Table7", "campaign cost/time summary", func(seed int64) (string, error) {
			var cs []*experiments.Census
			for _, n := range []string{"ropsten", "rinkeby", "goerli"} {
				c, err := experiments.CachedCensus(censusFor(n, seed))
				if err != nil {
					return "", err
				}
				cs = append(cs, c)
			}
			t6, err := experiments.Table6(seed)
			if err != nil {
				return "", err
			}
			return experiments.FormatTable7(experiments.Table7(cs, t6)), nil
		}},
		{"Fig7", "local validation: recall vs mempool size", func(seed int64) (string, error) {
			return experiments.FormatFig7(experiments.Fig7(seed)), nil
		}},
		{"Table8", "local parallel validation", func(seed int64) (string, error) {
			return experiments.FormatTable8(experiments.Table8(seed, 10)), nil
		}},
		{"Fig8", "Rinkeby degree distribution", degrees("rinkeby", 150)},
		{"Fig9", "Goerli degree distribution", degrees("goerli", 100)},
		{"Table9", "Rinkeby graph properties vs ER/CM/BA", table("rinkeby")},
		{"Table10", "Goerli graph properties vs ER/CM/BA", table("goerli")},
		{"AppA", "TxProbe inapplicability to Ethereum", func(seed int64) (string, error) {
			r, err := experiments.AppA(seed)
			if err != nil {
				return "", err
			}
			return experiments.FormatAppA(r), nil
		}},
		{"AppC", "non-interference twin worlds", func(seed int64) (string, error) {
			r, err := experiments.AppC(seed)
			if err != nil {
				return "", err
			}
			return experiments.FormatAppC(r), nil
		}},
		{"AppE", "TopoShot under EIP-1559", func(seed int64) (string, error) {
			r, err := experiments.AppE(seed)
			if err != nil {
				return "", err
			}
			return experiments.FormatAppE(r), nil
		}},
		{"Flood", "zero-R same-price flooding exploit", func(seed int64) (string, error) {
			var rows []experiments.FloodResult
			for _, name := range []string{"geth", "nethermind", "aleth"} {
				pol, _ := txpool.ClientByName(name)
				rows = append(rows, experiments.FloodExploit(pol, seed))
			}
			return experiments.FormatFlood(rows), nil
		}},
		{"W2", "FIND_NODE inactive-edge baseline", func(seed int64) (string, error) {
			return experiments.FormatW2(experiments.W2Crawl(seed)), nil
		}},
		{"Ablations", "design-choice ablations", func(seed int64) (string, error) {
			return experiments.FormatAblations(experiments.Ablations(seed)), nil
		}},
		{"Compare", "strategy head-to-head (TopoShot/DEthna/TxProbe/Ethna)", func(seed int64) (string, error) {
			rows, err := experiments.Compare(seed, experiments.DefaultCompareConfig())
			if err != nil {
				return "", err
			}
			return experiments.FormatCompare(rows), nil
		}},
		{"CensusScale", "region-sharded 50k-node mainnet census (hours; TOPOSHOT_SCALE_N/_REGIONS downsize)", func(seed int64) (string, error) {
			cfg := experiments.MainnetScaleCensus(seed)
			if v, err := strconv.Atoi(os.Getenv("TOPOSHOT_SCALE_N")); err == nil && v > 0 {
				cfg.Grow = cfg.Grow.WithN(v)
			}
			if v, err := strconv.Atoi(os.Getenv("TOPOSHOT_SCALE_REGIONS")); err == nil && v > 0 {
				cfg.Regions = v
			}
			sc, err := experiments.RunScaleCensus(cfg)
			if err != nil {
				return "", err
			}
			return experiments.FormatScaleCensus(sc), nil
		}},
	}
}

func main() {
	list := flag.Bool("list", false, "list available experiments")
	run := flag.String("run", "", "comma-separated experiment names, or 'all'")
	seed := flag.Int64("seed", 42, "simulation seed")
	parallel := flag.Int("parallel", 0, "worker-pool width for independent simulations (0 = GOMAXPROCS, 1 = serial); results are identical at any width")
	telemetry := obs.RegisterCLIFlags(flag.CommandLine)
	// Sweeps fan out over workers, so this binary's help adds the width caveat.
	flag.Lookup("trace-deterministic").Usage += " (use with -parallel 1)"
	flag.Parse()

	cli := telemetry.Open()
	lg := cli.Logger
	defer func() {
		if err := cli.Close(); err != nil {
			fmt.Fprintln(os.Stderr, obs.FormatLine("log-write-failed", obs.Err(err)))
		}
	}()

	runnerpool.SetParallelism(*parallel)

	rs := runners()
	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, r := range rs {
			fmt.Printf("  %-9s %s\n", r.name, r.desc)
		}
		return
	}
	want := map[string]bool{}
	all := *run == "all"
	for _, n := range strings.Split(*run, ",") {
		want[strings.ToLower(strings.TrimSpace(n))] = true
	}
	names := make([]string, 0, len(rs))
	for _, r := range rs {
		names = append(names, r.name)
	}
	sort.Strings(names)

	// Start the censuses the selected experiments will need before the
	// (serial) experiment loop: the three testnets build concurrently and
	// each CachedCensus call below joins its in-flight run.
	censusNeeds := map[string][]string{
		"fig6": {"ropsten"}, "table4": {"ropsten"}, "table5": {"ropsten"},
		"table7": {"ropsten", "rinkeby", "goerli"},
		"fig8":   {"rinkeby"}, "fig9": {"goerli"},
		"table9": {"rinkeby"}, "table10": {"goerli"},
	}
	needed := map[string]bool{}
	var prewarm []experiments.CensusConfig
	for _, r := range rs {
		if !all && !want[strings.ToLower(r.name)] {
			continue
		}
		for _, n := range censusNeeds[strings.ToLower(r.name)] {
			if !needed[n] {
				needed[n] = true
				prewarm = append(prewarm, censusFor(n, *seed))
			}
		}
	}
	experiments.PrewarmCensuses(prewarm...)

	ran := 0
	for _, r := range rs {
		if !all && !want[strings.ToLower(r.name)] {
			continue
		}
		// The mainnet-scale sharded census takes hours at full size; it runs
		// only when named explicitly, never as part of 'all'.
		if all && r.name == "CensusScale" && !want["censusscale"] {
			continue
		}
		out, err := r.run(*seed)
		if err != nil {
			cli.Fatal(1, "experiment-failed", obs.String("experiment", r.name), obs.Err(err))
		}
		fmt.Printf("=== %s ===\n%s\n", r.name, out)
		lg.Info("experiment-done", obs.String("experiment", r.name))
		ran++
	}
	if ran == 0 {
		cli.Fatal(2, "no-experiment-matched", obs.String("run", *run),
			obs.String("known", strings.Join(names, ", ")))
	}
	cli.FlushTrace()
}

// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run Table3,Fig4a
//	experiments -run all -seed 7
//
// Each experiment prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured comparison. The artifacts
// themselves are internal/experiments.Figures.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"toposhot/internal/experiments"
	"toposhot/internal/obs"
	"toposhot/internal/runner"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// selectFigures resolves a -run value against the registry, in registry
// order. "all" is every figure except CensusScale: the mainnet-scale sharded
// census takes hours at full size and runs only when named explicitly.
func selectFigures(figs []experiments.Figure, names string) []experiments.Figure {
	want := map[string]bool{}
	for _, n := range strings.Split(names, ",") {
		want[strings.ToLower(strings.TrimSpace(n))] = true
	}
	var picked []experiments.Figure
	for _, f := range figs {
		if want[strings.ToLower(f.Name)] || want["all"] && f.Name != "CensusScale" {
			picked = append(picked, f)
		}
	}
	return picked
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list available experiments")
	names := fs.String("run", "", "comma-separated experiment names, or 'all'")
	seed := fs.Int64("seed", 42, "simulation seed")
	parallel := fs.Int("parallel", 0, "worker-pool width for independent simulations (0 = GOMAXPROCS, 1 = serial); results are identical at any width")
	telemetry := obs.RegisterCLIFlags(fs)
	// Sweeps fan out over workers, so this binary's help adds the width caveat.
	fs.Lookup("trace-deterministic").Usage += " (use with -parallel 1)"
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cli, code := telemetry.Open(stderr)
	if cli == nil {
		return code
	}
	defer cli.Close()

	defer runner.SetParallelism(runner.Parallelism())
	runner.SetParallelism(*parallel)

	figs := experiments.Figures()
	if *list || *names == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, f := range figs {
			fmt.Fprintf(stdout, "  %-9s %s\n", f.Name, f.Desc)
		}
		return 0
	}
	picked := selectFigures(figs, *names)
	if len(picked) == 0 {
		known := make([]string, 0, len(figs))
		for _, f := range figs {
			known = append(known, f.Name)
		}
		sort.Strings(known)
		return cli.Fatal(2, "no-experiment-matched", obs.String("run", *names),
			obs.String("known", strings.Join(known, ", ")))
	}

	// Start the censuses the selected experiments will need before the
	// (serial) experiment loop: the three testnets build concurrently and
	// each CachedCensus call below joins its in-flight run.
	var prewarm []experiments.CensusConfig
	for _, f := range picked {
		for _, cfg := range f.Censuses {
			prewarm = append(prewarm, cfg(*seed))
		}
	}
	experiments.PrewarmCensuses(prewarm...)

	for _, f := range picked {
		out, err := f.Run(*seed, experiments.CachedCensus)
		if err != nil {
			return cli.Fatal(1, "experiment-failed", obs.String("experiment", f.Name), obs.Err(err))
		}
		fmt.Fprintf(stdout, "=== %s ===\n%s\n", f.Name, out)
		cli.Logger.Info("experiment-done", obs.String("experiment", f.Name))
	}
	if err := cli.FlushTrace(); err != nil {
		return cli.Fatal(1, "trace-write-failed", obs.Err(err))
	}
	return 0
}

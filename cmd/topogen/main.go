// Command topogen grows an Ethereum-style testnet overlay of one preset, on
// generator seed 42, and writes it as an edge list, one "u v" pair per line.
//
// Usage:
//
//	topogen -preset ropsten
//	topogen -preset goerli | graphstats -communities
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"toposhot/internal/netgen"
)

// seed is the generator seed every overlay grows from.
const seed = 42

// presets are the -preset worlds.
var presets = map[string]netgen.GrowConfig{
	"ropsten": netgen.RopstenConfig, "rinkeby": netgen.RinkebyConfig, "goerli": netgen.GoerliConfig,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	preset := fs.String("preset", "ropsten", "testnet preset: ropsten|rinkeby|goerli")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	cfg, ok := presets[*preset]
	if !ok {
		fmt.Fprintf(stderr, "unknown preset %q\n", *preset)
		return 2
	}

	g := netgen.Grow(cfg.WithSeed(seed))
	fmt.Fprintf(stderr, "generated ethereum: n=%d m=%d avgdeg=%.1f\n",
		g.NumNodes(), g.NumEdges(), g.AverageDegree())
	bw := bufio.NewWriter(stdout)
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "%d %d\n", e[0], e[1])
	}
	if err := bw.Flush(); err != nil {
		fmt.Fprintf(stderr, "write: %v\n", err)
		return 1
	}
	return 0
}

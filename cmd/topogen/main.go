// Command topogen generates network topologies: Ethereum-style testnet
// overlays and the ER/CM/BA random baselines, as edge lists.
//
// Usage:
//
//	topogen -model ethereum -preset ropsten -seed 7
//	topogen -model er -n 588 -m 7496
//	topogen -model ba -n 588 -avgdeg 26
//	topogen -model cm -degrees edges.txt   # degree sequence of an edge list
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"toposhot/internal/graph"
	"toposhot/internal/netgen"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "ethereum", "ethereum|er|cm|ba")
	preset := fs.String("preset", "ropsten", "ethereum preset: ropsten|rinkeby|goerli")
	n := fs.Int("n", 588, "node count")
	m := fs.Int("m", 7496, "edge count (er)")
	avgdeg := fs.Int("avgdeg", 26, "average degree (ba)")
	degreesOf := fs.String("degrees", "", "edge-list file whose degree sequence to replicate (cm)")
	seed := fs.Int64("seed", 42, "generator seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var g *graph.Graph
	switch *model {
	case "ethereum":
		cfg := netgen.RopstenConfig
		switch *preset {
		case "ropsten":
		case "rinkeby":
			cfg = netgen.RinkebyConfig
		case "goerli":
			cfg = netgen.GoerliConfig
		default:
			fmt.Fprintf(stderr, "unknown preset %q\n", *preset)
			return 2
		}
		g = netgen.Grow(cfg.WithSeed(*seed))
	case "er":
		g = netgen.ErdosRenyiNM(*n, *m, *seed)
	case "ba":
		g = netgen.BarabasiAlbert(*n, *avgdeg/2, *seed)
	case "cm":
		if *degreesOf == "" {
			fmt.Fprintln(stderr, "cm requires -degrees <edge-list>")
			return 2
		}
		base, err := readEdgeList(*degreesOf)
		if err != nil {
			fmt.Fprintf(stderr, "read %s: %v\n", *degreesOf, err)
			return 1
		}
		g = netgen.Configuration(netgen.DegreeSequence(base), *seed)
	default:
		fmt.Fprintf(stderr, "unknown model %q\n", *model)
		return 2
	}

	fmt.Fprintf(stderr, "generated %s: n=%d m=%d avgdeg=%.1f\n",
		*model, g.NumNodes(), g.NumEdges(), g.AverageDegree())
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

func readEdgeList(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g := graph.New()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var u, v int
		if _, err := fmt.Sscanf(sc.Text(), "%d %d", &u, &v); err == nil {
			g.AddEdge(u, v)
		}
	}
	return g, sc.Err()
}

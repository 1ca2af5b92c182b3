// Command graphstats computes the paper's Table-4-style graph statistics
// (and optionally Louvain communities) for an edge list.
//
// Usage:
//
//	topogen -preset ropsten | graphstats -communities
//	graphstats -in edges.txt -baselines 10
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

// cliqueBudget caps maximal-clique enumeration at the budget Table 4 uses,
// and baselineSeed seeds the -baselines generators.
const (
	cliqueBudget = 300000
	baselineSeed = 42
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graphstats", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "edge-list file (default stdin)")
	communities := fs.Bool("communities", false, "also print Louvain communities")
	baselines := fs.Int("baselines", 0, "average this many ER/CM/BA baseline instances")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintf(stderr, "open %s: %v\n", *in, err)
			return 1
		}
		defer f.Close()
		r = f
	}
	g := graph.New()
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		var u, v int
		if _, err := fmt.Sscanf(sc.Text(), "%d %d", &u, &v); err == nil {
			g.AddEdge(u, v)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(stderr, "read: %v\n", err)
		return 1
	}
	if g.NumNodes() == 0 {
		fmt.Fprintln(stderr, "empty graph")
		return 1
	}

	p := graph.ComputeProperties(g.LargestComponent(), cliqueBudget)
	fmt.Fprintf(stdout, "nodes                 %d\n", p.Nodes)
	fmt.Fprintf(stdout, "edges                 %d\n", p.Edges)
	fmt.Fprintf(stdout, "average degree        %.2f\n", p.AvgDegree)
	fmt.Fprintf(stdout, "diameter              %d\n", p.DistanceStats.Diameter)
	fmt.Fprintf(stdout, "radius                %d\n", p.DistanceStats.Radius)
	fmt.Fprintf(stdout, "center size           %d\n", p.DistanceStats.CenterSize)
	fmt.Fprintf(stdout, "periphery size        %d\n", p.DistanceStats.PeripherySize)
	fmt.Fprintf(stdout, "mean eccentricity     %.3f\n", p.DistanceStats.MeanEcc)
	fmt.Fprintf(stdout, "clustering coeff      %.4f\n", p.Clustering)
	fmt.Fprintf(stdout, "transitivity          %.4f\n", p.Transitivity)
	fmt.Fprintf(stdout, "degree assortativity  %.4f\n", p.Assortativity)
	fmt.Fprintf(stdout, "maximal cliques       %d\n", p.MaximalCliques)
	fmt.Fprintf(stdout, "modularity            %.4f\n", p.Modularity)
	fmt.Fprintf(stdout, "communities           %d\n", p.Communities)

	if *baselines > 0 {
		b := netgen.Baselines(g.LargestComponent(), *baselines, baselineSeed, cliqueBudget)
		fmt.Fprintf(stdout, "\nbaselines (avg of %d runs):\n", *baselines)
		fmt.Fprintf(stdout, "  %-14s %10s %10s %10s\n", "property", "ER", "CM", "BA")
		fmt.Fprintf(stdout, "  %-14s %10.1f %10.1f %10.1f\n", "diameter",
			float64(b.ER.DistanceStats.Diameter), float64(b.CM.DistanceStats.Diameter), float64(b.BA.DistanceStats.Diameter))
		fmt.Fprintf(stdout, "  %-14s %10.4f %10.4f %10.4f\n", "clustering", b.ER.Clustering, b.CM.Clustering, b.BA.Clustering)
		fmt.Fprintf(stdout, "  %-14s %10.4f %10.4f %10.4f\n", "assortativity", b.ER.Assortativity, b.CM.Assortativity, b.BA.Assortativity)
		fmt.Fprintf(stdout, "  %-14s %10.4f %10.4f %10.4f\n", "modularity", b.ER.Modularity, b.CM.Modularity, b.BA.Modularity)
	}

	if *communities {
		part := graph.Louvain(g.LargestComponent(), 1)
		fmt.Fprintf(stdout, "\ncommunities (Louvain):\n")
		for _, c := range graph.CommunityTable(g.LargestComponent(), part) {
			fmt.Fprintf(stdout, "  #%d: %d nodes, %d intra (%.1f%%), %d inter, avg deg %.1f\n",
				c.Index+1, c.Size, c.IntraEdges, 100*c.Density, c.InterEdges, c.AvgDegree)
		}
	}
	return 0
}

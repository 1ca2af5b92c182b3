package experiments

import (
	"fmt"
	"strings"

	"toposhot/internal/graph"
	"toposhot/internal/netgen"
	"toposhot/internal/obs"
	"toposhot/internal/runner"
	"toposhot/internal/trace"
)

// ScaleCensusConfig sizes a region-sharded census of a mainnet-scale graph.
//
// A single-engine census of the 50k-node MainnetConfig would serialize tens
// of thousands of pool simulations behind one event loop. The sharded census
// instead partitions the vertex set into contiguous regions and runs one
// full TopoShot census per region over that region's *induced subgraph* in
// its own replica network — its own engine, pools, supernode, and workload.
// Regions share nothing, so they parallelize across runner workers with no
// cross-talk, and the result is byte-identical at any parallel width.
//
// The trade-off is coverage, and it is reported honestly: only links whose
// both endpoints fall in the same region are measurable; cross-region links
// are out of scope for the sharded pass (a follow-up pass over the region
// frontier would be needed to close them) and counted separately rather than
// folded into recall.
type ScaleCensusConfig struct {
	// CensusConfig is every region's census, its seed salted and its name
	// suffixed per region.
	CensusConfig
	// Regions is the number of contiguous vertex shards; each is censused in
	// an independent replica network. More regions → smaller engines and more
	// parallelism, but less pair coverage.
	Regions int
	// Lanes is the per-region engine's event-lane count (a recorded tag).
	// Lane count never changes results, only wall-clock (DESIGN.md §12).
	Lanes int
}

// MainnetScaleCensus returns the 50k-node mainnet-sized sharded campaign.
// 500 regions of ~100 nodes keep per-region cost low (census cost grows
// roughly cubically in region size), so the whole pass finishes in tens of
// minutes on one machine; the price is pair coverage (~1/Regions of the
// links are intra-region), which FormatScaleCensus reports up front.
// Complementary passes with a rotated partition would grow coverage; one
// pass is a scalability demonstration, not a full link census.
func MainnetScaleCensus(seed int64) ScaleCensusConfig {
	cfg := RopstenCensus(seed)
	cfg.Name = "mainnet"
	cfg.Grow = netgen.MainnetConfig.WithSeed(seed)
	return ScaleCensusConfig{CensusConfig: cfg, Regions: 500, Lanes: 4}
}

// ScaleRegion summarizes one region's census.
type ScaleRegion struct {
	Index    int
	Nodes    int
	Edges    int // intra-region ground-truth edges
	Eligible int
	Detected int
	TP       int
	Calls    int
	// DurationHours is the region's virtual measurement time.
	DurationHours float64
	CostEther     float64
}

// ScaleCensus is a completed region-sharded measurement.
type ScaleCensus struct {
	Config ScaleCensusConfig
	// Truth is the full ground-truth graph; Measured is the union of the
	// per-region measurements, in the same global vertex space.
	Truth    *graph.Graph
	Measured *graph.Graph
	Regions  []ScaleRegion

	// CoveredEdges are ground-truth links with both endpoints in one region
	// (the sharded census's scope); CrossEdges span regions and are
	// unmeasurable by this pass.
	CoveredEdges int
	CrossEdges   int
	TP, FP       int
	// Precision is TP/(TP+FP); RecallCovered is TP/CoveredEdges — recall
	// over the links the sharded pass can see; RecallOverall is TP over all
	// ground-truth links, the honest whole-network figure.
	Precision     float64
	RecallCovered float64
	RecallOverall float64

	// SumDurationHours is total virtual measurement time across regions (the
	// serial-fleet cost); MaxDurationHours is the critical path when every
	// region runs concurrently.
	SumDurationHours float64
	MaxDurationHours float64
	CostEther        float64
}

// regionBounds returns the r-th contiguous vertex range [lo, hi) of an
// n-vertex graph split into k regions.
func regionBounds(r, k, n int) (int, int) {
	return r * n / k, (r + 1) * n / k
}

// runScaleRegion censuses one region's induced subgraph in a fresh replica
// network. Everything about the region run is a pure function of (cfg, g,
// region index), so regions may execute in any order on any worker. The
// subgraph keeps g's vertex ids, so the census's measured graph is in g's
// vertex space.
func runScaleRegion(cfg ScaleCensusConfig, g *graph.Graph, region int, lg *obs.Logger) (*Census, error) {
	lo, hi := regionBounds(region, cfg.Regions, cfg.Grow.N)
	sub := graph.New()
	for v := lo; v < hi; v++ {
		sub.AddNode(v)
		for _, u := range g.Neighbors(v) {
			if u >= lo && u < hi && u < v {
				sub.AddEdge(u, v)
			}
		}
	}

	// Per-region seed salt: replica networks must not mirror each other's
	// latency draws and account keys.
	rc := cfg.CensusConfig
	rc.Name, rc.Seed = fmt.Sprintf("%s-r%d", cfg.Name, region), cfg.Seed^int64(region+1)<<24
	tr := trace.Enabled().Lane(fmt.Sprintf("scale:%s/%d/r%d", cfg.Name, cfg.Seed, region), nil)
	span := tr.StartSpan(spanCensus,
		trace.String(attrName, rc.Name), trace.Int(attrSeed, cfg.Seed),
		trace.Int(attrNodes, int64(sub.NumNodes())), trace.Int(attrK, int64(cfg.GroupK)))
	defer span.End()
	// The region's events go to its own pre-created scope (never the shared
	// root scope: concurrent regions interleaving there would break snapshot
	// byte-identity).
	c, err := runCensus(rc, sub, cfg.Lanes, tr, lg)
	if err != nil {
		return nil, fmt.Errorf("region %d: %w", region, err)
	}
	return c, nil
}

// RunScaleCensus grows the graph, shards it into regions, censuses every
// region (in parallel across runner workers — each region is its own
// engine), and aggregates the per-region detections into one measured graph
// with honest coverage accounting.
func RunScaleCensus(cfg ScaleCensusConfig) (*ScaleCensus, error) {
	if cfg.Regions < 1 {
		cfg.Regions = 1
	}
	if cfg.Regions > cfg.Grow.N {
		cfg.Regions = cfg.Grow.N
	}
	g := netgen.Grow(cfg.Grow)

	// One event-log scope per region, pre-created serially so scope ids are
	// deterministic at any worker-pool width (the obsScopes convention).
	scopes := obsScopes(fmt.Sprintf("scale:%s/%d", cfg.Name, cfg.Seed), cfg.Regions)
	censuses, err := runner.MapErr(0, cfg.Regions, func(r int) (*Census, error) {
		return runScaleRegion(cfg, g, r, scopes[r])
	})
	if err != nil {
		return nil, err
	}

	sc := &ScaleCensus{Config: cfg, Truth: g, Measured: graph.New()}
	for v := 0; v < cfg.Grow.N; v++ {
		sc.Measured.AddNode(v)
	}
	for r, c := range censuses {
		row := ScaleRegion{
			Index:         r,
			Nodes:         c.Truth.NumNodes(),
			Edges:         c.Truth.NumEdges(),
			Eligible:      c.Eligible,
			Detected:      c.Measured.NumEdges(),
			TP:            c.Score.TruePositives,
			Calls:         c.Calls,
			DurationHours: c.DurationHours,
			CostEther:     c.CostEther,
		}
		sc.Regions = append(sc.Regions, row)
		sc.CoveredEdges += row.Edges
		sc.TP += row.TP
		sc.FP += row.Detected - row.TP
		sc.SumDurationHours += row.DurationHours
		sc.MaxDurationHours = max(sc.MaxDurationHours, row.DurationHours)
		sc.CostEther += row.CostEther
		for _, e := range c.Measured.Edges() {
			sc.Measured.AddEdge(e[0], e[1])
		}
	}
	sc.CrossEdges = g.NumEdges() - sc.CoveredEdges
	if d := sc.TP + sc.FP; d > 0 {
		sc.Precision = float64(sc.TP) / float64(d)
	}
	if sc.CoveredEdges > 0 {
		sc.RecallCovered = float64(sc.TP) / float64(sc.CoveredEdges)
	}
	if m := g.NumEdges(); m > 0 {
		sc.RecallOverall = float64(sc.TP) / float64(m)
	}
	return sc, nil
}

// FormatScaleCensus renders the sharded-census summary, leading with the
// coverage caveat so the overall-recall figure cannot be misread as a
// whole-network census quality claim.
func FormatScaleCensus(sc *ScaleCensus) string {
	var b strings.Builder
	cfg := sc.Config
	fmt.Fprintf(&b, "sharded census — %s (n=%d, m=%d, %d regions, %d lanes/engine)\n",
		cfg.Name, sc.Truth.NumNodes(), sc.Truth.NumEdges(), cfg.Regions, cfg.Lanes)
	fmt.Fprintf(&b, "  coverage: %d/%d links intra-region (%.1f%%); %d cross-region links out of scope for this pass\n",
		sc.CoveredEdges, sc.Truth.NumEdges(),
		100*float64(sc.CoveredEdges)/float64(max(1, sc.Truth.NumEdges())), sc.CrossEdges)
	fmt.Fprintf(&b, "  detected: %d links  TP=%d FP=%d  precision=%.3f  recall(covered)=%.3f  recall(overall)=%.3f\n",
		sc.TP+sc.FP, sc.TP, sc.FP, sc.Precision, sc.RecallCovered, sc.RecallOverall)
	fmt.Fprintf(&b, "  virtual time: %.2f h total across regions, %.2f h critical path; cost=%.4f ETH\n",
		sc.SumDurationHours, sc.MaxDurationHours, sc.CostEther)
	return b.String()
}

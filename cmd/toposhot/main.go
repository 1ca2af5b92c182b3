// Command toposhot measures the active topology of a simulated Ethereum
// network and emits the detected edge list.
//
// Usage:
//
//	toposhot -n 150 -k 20 -seed 7            # grow+measure a testnet-like net
//	toposhot -preset ropsten -out edges.txt  # full Ropsten-sized campaign
//
// The output format is one "u v" pair per line (vertex ids), suitable for
// cmd/graphstats.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"toposhot/internal/core"
	"toposhot/internal/ethsim"
	"toposhot/internal/experiments"
	"toposhot/internal/metrics"
	"toposhot/internal/netgen"
	"toposhot/internal/obs"
	"toposhot/internal/runner"
	"toposhot/internal/strategy"
	"toposhot/internal/types"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("toposhot", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 120, "nodes in the generated network")
	k := fs.Int("k", 20, "parallel schedule group size K")
	seed := fs.Int64("seed", 42, "simulation seed")
	preset := fs.String("preset", "", "network preset: ropsten|rinkeby|goerli|mainnet (overrides -n)")
	lanes := fs.Int("lanes", 0, "engine event-lane count: a tag recorded on events and in checkpoints; never changes results")
	regions := fs.Int("regions", 0, "shard the census into this many regions, each censused in its own engine (mainnet-scale mode; only intra-region links are measurable, reported honestly)")
	checkpoint := fs.String("checkpoint", "", "write a resumable campaign checkpoint to this file at batch boundaries")
	checkpointEvery := fs.Int("checkpoint-every", 25, "batches between checkpoint writes under -checkpoint")
	resumeFrom := fs.String("resume", "", "resume a campaign from a checkpoint file written by -checkpoint (skips network build and pre-processing)")
	strat := fs.String("strategy", "toposhot", "measurement method: toposhot|dethna|txprobe|ethna (non-toposhot methods probe all eligible pairs)")
	track := fs.Bool("track", false, "after the seeding census, follow the churning network with budgeted delta campaigns instead of re-censusing")
	trackTicks := fs.Int("track-ticks", 12, "delta campaigns to run under -track")
	trackBudget := fs.Int("track-budget", 72, "pairs re-probed per delta campaign under -track")
	trackChurn := fs.Float64("track-churn", 20, "mean virtual seconds between peer-churn events under -track")
	out := fs.String("out", "", "output file (default stdout)")
	uniform := fs.Bool("uniform", false, "all-default nodes (no heterogeneity)")
	parallel := fs.Int("parallel", 0, "worker-pool width for independent simulations (0 = GOMAXPROCS, 1 = serial); results are identical at any width")
	telemetry := obs.RegisterCLIFlags(fs)
	events := fs.String("events", "", "serve the live campaign dashboard (/, /events, /log, /ledger, /metrics, /trace/snapshot, /progress) on this address while the run is active")
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
	lg, tracer := cli.Logger, cli.Tracer

	// One campaign is one serial engine, so this knob matters only for the
	// pool-backed helpers underneath (and keeps the flag uniform with
	// cmd/experiments).
	defer runner.SetParallelism(runner.Parallelism())
	runner.SetParallelism(*parallel)

	// The dashboard's /metrics needs a registry even without -metrics.
	reg := cli.Metrics
	if reg == nil && *events != "" {
		reg = metrics.NewRegistry()
		metrics.Enable(reg) // the network, pools, and measurer self-wire; cli.Close puts the old default back
	}

	// The live dashboard serves the campaign's observability surfaces for the
	// duration of the run; led is the probe cost-attribution ledger every mode
	// below feeds.
	led := obs.NewLedger()
	if *events != "" {
		dash := &obs.Dash{Logger: lg, Ledger: led, Metrics: reg, Tracer: tracer}
		srv := &http.Server{Addr: *events, Handler: dash.Handler()}
		go func() {
			if err := srv.ListenAndServe(); err != http.ErrServerClosed {
				lg.Error("dashboard-failed", obs.Err(err))
			}
		}()
		defer srv.Close()
		lg.Info("dashboard-listening", obs.String("addr", *events))
	}

	grow := netgen.RopstenConfig.WithSeed(*seed).WithN(*n)
	switch *preset {
	case "ropsten":
		grow = netgen.RopstenConfig.WithSeed(*seed)
	case "rinkeby":
		grow = netgen.RinkebyConfig.WithSeed(*seed)
	case "goerli":
		grow = netgen.GoerliConfig.WithSeed(*seed)
	case "mainnet":
		grow = netgen.MainnetConfig.WithSeed(*seed)
	case "":
	default:
		return cli.Fatal(2, "unknown-preset", obs.String("preset", *preset))
	}
	// An explicit -n rescales a preset (downsized smoke runs keep the
	// preset's degree/leaf/monitor shape).
	if *preset != "" {
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "n" {
				grow = grow.WithN(*n)
			}
		})
	}
	het := netgen.DefaultHeterogeneity()
	if *uniform {
		het = netgen.Uniform()
	}
	// Every mode measures the same census world: 1/10-scale pools, the
	// scaled ≤2000-slot edge budget, 300 prefilled background transactions.
	census := experiments.CensusConfig{
		Name: *preset, Grow: grow, Het: het, Seed: *seed,
		PoolScale: 0.1, GroupK: *k, EdgeBudget: 144, Prefill: 300,
	}
	if census.Name == "" {
		census.Name = "custom"
	}

	// Region-sharded mode: one independent engine per region, runner-wide
	// parallel, honest intra-region coverage accounting. Per-region results
	// live in separate worlds, so monolithic campaign checkpointing does not
	// apply here.
	if *regions > 0 {
		if *strat != string(strategy.MethodTopoShot) || *checkpoint != "" || *resumeFrom != "" {
			return cli.Fatal(2, "bad-flags",
				obs.String("why", "-regions supports only the toposhot strategy and no -checkpoint/-resume"))
		}
		sc, err := experiments.RunScaleCensus(experiments.ScaleCensusConfig{
			Name: census.Name, Grow: grow, Het: het, Seed: *seed,
			Regions: *regions, Lanes: *lanes,
			PoolScale: census.PoolScale, GroupK: census.GroupK, EdgeBudget: census.EdgeBudget, Prefill: census.Prefill,
		})
		if err != nil {
			return cli.Fatal(1, "census-failed", obs.Err(err))
		}
		fmt.Fprint(stderr, experiments.FormatScaleCensus(sc))
		return writeResult(cli, *out, stdout, sc.Measured.Edges())
	}

	// Tracking mode: one seeding census, then per-tick delta campaigns over
	// the churning network. Checkpoints carry the engine blob (churn registry
	// included) plus the tracker snapshot, so -resume continues mid-campaign.
	if *track {
		if *strat != string(strategy.MethodTopoShot) {
			return cli.Fatal(2, "bad-flags", obs.String("why", "-track supports only the toposhot strategy"))
		}
		return runTracking(trackingFlags{
			census: census, lanes: *lanes,
			ticks: *trackTicks, budget: *trackBudget, churn: *trackChurn,
			checkpoint: *checkpoint, checkpointEvery: *checkpointEvery, resumeFrom: *resumeFrom,
			out: *out, stdout: stdout, stderr: stderr, cli: cli, ledger: led,
		})
	}

	// Monolithic mode: one engine hosts the whole network. Either build it
	// fresh or restore world + campaign position from a checkpoint file.
	var (
		net     *ethsim.Network
		super   *ethsim.Supernode
		m       *core.Measurer
		targets []types.NodeID
		back    map[types.NodeID]int
		resume  *core.CampaignState
	)
	params := census.MeasureParams()
	if *resumeFrom != "" {
		blob, meta, err := readCheckpoint(*resumeFrom)
		if err != nil {
			return cli.Fatal(1, "checkpoint-read-failed", obs.Err(err))
		}
		if meta.Campaign == nil {
			return cli.Fatal(2, "bad-flags", obs.String("file", *resumeFrom),
				obs.String("why", "a tracking checkpoint; resume it with -track"))
		}
		net, err = ethsim.RestoreNetworkLanes(blob, *lanes)
		if err != nil {
			return cli.Fatal(1, "restore-failed", obs.String("file", *resumeFrom), obs.Err(err))
		}
		supers := net.Supernodes()
		if meta.Super < 0 || meta.Super >= len(supers) {
			return cli.Fatal(1, "restore-failed", obs.String("file", *resumeFrom),
				obs.Int("super", int64(meta.Super)), obs.Int("have", int64(len(supers))),
				obs.String("why", "supernode index out of range"))
		}
		if tracer != nil {
			net.SetTracer(tracer)
			tracer.SetClock(net.Now)
		}
		super = supers[meta.Super]
		m = core.NewMeasurer(net, super, params)
		*seed, *k = meta.Seed, meta.K
		targets, resume = meta.Targets, meta.Campaign
		back = meta.backMap()
		lg.Info("campaign-resumed", obs.String("file", *resumeFrom),
			obs.Int("nodes", int64(len(net.Nodes()))), obs.Float("virtual_s", net.Now()),
			obs.Int("batches_done", int64(resume.BatchesDone)),
			obs.Int("edges", int64(len(resume.Detected))))
	} else {
		g := netgen.Grow(grow)
		world := experiments.BuildCensusWorld(census, g, *seed, *lanes, nil)
		world.StartTraffic()
		net, super = world.Net, world.Super
		m = core.NewMeasurer(net, super, params)

		lg.Info("network-built", obs.Int("nodes", int64(g.NumNodes())),
			obs.Int("edges", int64(g.NumEdges())))
		pre := m.Preprocess(world.Inst.IDs)
		targets = pre.EligibleNodes(world.Inst.IDs)
		back = world.Inst.Back
	}
	truth := core.EdgeSetOf(net.Edges())

	// Every probe the campaign sends lands in the dashboard's attribution
	// ledger under one census phase.
	m.SetObs(m.Obs(), led)
	m.SetPhase("census")

	var detected *core.EdgeSet
	if *strat == string(strategy.MethodTopoShot) {
		var onBatch func(*core.CampaignState) error
		if *checkpoint != "" {
			every := *checkpointEvery
			if every < 1 {
				every = 1
			}
			meta := &campaignMeta{Seed: *seed, K: *k, EdgeBudget: census.EdgeBudget, Targets: targets, Back: sortedBack(back)}
			onBatch = func(st *core.CampaignState) error {
				if st.BatchesDone%every != 0 {
					return nil
				}
				blob, err := net.Checkpoint()
				if err != nil {
					return err
				}
				meta.Campaign = st
				return writeCheckpoint(*checkpoint, blob, meta)
			}
		}
		lg.Info("census-started", obs.Int("eligible", int64(len(targets))), obs.Int("k", int64(*k)))
		res, err := m.MeasureNetworkResume(targets, *k, census.EdgeBudget, resume, onBatch)
		if err != nil {
			return cli.Fatal(1, "measurement-failed", obs.Err(err))
		}
		detected = res.Detected
		eligible := map[types.NodeID]bool{}
		for _, id := range targets {
			eligible[id] = true
		}
		sc := core.ScoreAgainst(detected, truth, func(id types.NodeID) bool { return eligible[id] })
		lg.Info("census-scored", obs.Float("virtual_h", res.Duration/3600),
			obs.Int("calls", int64(res.Calls)), obs.String("score", sc.String()),
			obs.Float("fee_eth", core.Ether(m.Ledger.WorstCaseWei())))
	} else if *resumeFrom != "" || *checkpoint != "" {
		return cli.Fatal(2, "bad-flags", obs.String("why", "-checkpoint/-resume support only the toposhot strategy"))
	} else {
		s, err := strategy.NewMethod(strategy.Method(*strat), net, super, strategy.Config{TopoShot: params})
		if err != nil {
			return cli.Fatal(2, "bad-flags", obs.Err(err))
		}
		var pairs [][2]types.NodeID
		for i := range targets {
			for j := i + 1; j < len(targets); j++ {
				pairs = append(pairs, [2]types.NodeID{targets[i], targets[j]})
			}
		}
		lg.Info("pairs-planned", obs.Int("pairs", int64(len(pairs))),
			obs.Int("eligible", int64(len(targets))), obs.String("method", s.Name()))
		out, err := strategy.RunPairs(tracer, lg, net, s, pairs)
		if err != nil {
			return cli.Fatal(1, "measurement-failed", obs.Err(err))
		}
		detected = out.Claimed
		lg.Info("campaign-scored", obs.Float("virtual_h", out.VirtualSeconds/3600),
			obs.String("score", out.Score(truth).String()),
			obs.Int("probe_txs", int64(out.Cost.Total())))
	}
	return writeResult(cli, *out, stdout, vertexEdges(detected, back))
}

// vertexEdges maps measured NodeID pairs back to the generated graph's vertex
// ids, the space the edge-list output is written in.
func vertexEdges(set *core.EdgeSet, back map[types.NodeID]int) [][2]int {
	var edges [][2]int
	for _, e := range set.Edges() {
		va, okA := back[e[0]]
		vb, okB := back[e[1]]
		if okA && okB {
			edges = append(edges, [2]int{va, vb})
		}
	}
	return edges
}

// writeResult ends a successful campaign: it writes the -trace file, then the
// edge list, one "u v" pair per line, to the -out file (or stdout).
func writeResult(cli *obs.CLI, path string, stdout io.Writer, edges [][2]int) int {
	if err := cli.FlushTrace(); err != nil {
		return cli.Fatal(1, "trace-write-failed", obs.Err(err))
	}
	var f *os.File
	dst := stdout
	if path != "" {
		var err error
		if f, err = os.Create(path); err != nil {
			return cli.Fatal(1, "output-create-failed", obs.String("file", path), obs.Err(err))
		}
		dst = f
	}
	bw := bufio.NewWriter(dst)
	for _, e := range edges {
		fmt.Fprintf(bw, "%d %d\n", e[0], e[1])
	}
	err := bw.Flush()
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return cli.Fatal(1, "output-write-failed", obs.Err(err))
	}
	return 0
}

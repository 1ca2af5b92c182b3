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
	"flag"
	"fmt"
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
	n := flag.Int("n", 120, "nodes in the generated network")
	k := flag.Int("k", 20, "parallel schedule group size K")
	seed := flag.Int64("seed", 42, "simulation seed")
	preset := flag.String("preset", "", "network preset: ropsten|rinkeby|goerli|mainnet (overrides -n)")
	lanes := flag.Int("lanes", 0, "engine event-lane count: a tag recorded on events and in checkpoints; never changes results")
	regions := flag.Int("regions", 0, "shard the census into this many regions, each censused in its own engine (mainnet-scale mode; only intra-region links are measurable, reported honestly)")
	checkpoint := flag.String("checkpoint", "", "write a resumable campaign checkpoint to this file at batch boundaries")
	checkpointEvery := flag.Int("checkpoint-every", 25, "batches between checkpoint writes under -checkpoint")
	resumeFrom := flag.String("resume", "", "resume a campaign from a checkpoint file written by -checkpoint (skips network build and pre-processing)")
	strat := flag.String("strategy", "toposhot", "measurement method: toposhot|dethna|txprobe|ethna (non-toposhot methods probe all eligible pairs)")
	track := flag.Bool("track", false, "after the seeding census, follow the churning network with budgeted delta campaigns instead of re-censusing")
	trackTicks := flag.Int("track-ticks", 12, "delta campaigns to run under -track")
	trackBudget := flag.Int("track-budget", 72, "pairs re-probed per delta campaign under -track")
	trackChurn := flag.Float64("track-churn", 20, "mean virtual seconds between peer-churn events under -track")
	out := flag.String("out", "", "output file (default stdout)")
	uniform := flag.Bool("uniform", false, "all-default nodes (no heterogeneity)")
	parallel := flag.Int("parallel", 0, "worker-pool width for independent simulations (0 = GOMAXPROCS, 1 = serial); results are identical at any width")
	telemetry := obs.RegisterCLIFlags(flag.CommandLine)
	events := flag.String("events", "", "serve the live campaign dashboard (/, /events, /log, /ledger, /metrics, /trace/snapshot, /progress) on this address while the run is active")
	flag.Parse()

	cli := telemetry.Open()
	lg, tracer := cli.Logger, cli.Tracer
	defer func() {
		if err := cli.Close(); err != nil {
			fmt.Fprintln(os.Stderr, obs.FormatLine("log-write-failed", obs.Err(err)))
		}
	}()

	// One campaign is one serial engine, so this knob matters only for the
	// pool-backed helpers underneath (and keeps the flag uniform with
	// cmd/experiments and the benchmark harness).
	runner.SetParallelism(*parallel)

	// The dashboard's /metrics needs a registry even without -metrics.
	reg := cli.Metrics
	if reg == nil && *events != "" {
		reg = metrics.NewRegistry()
		metrics.Enable(reg) // the network, pools, and measurer self-wire
	}

	// The live dashboard serves the campaign's observability surfaces for the
	// duration of the run; led is the probe cost-attribution ledger every mode
	// below feeds.
	led := obs.NewLedger()
	if *events != "" {
		dash := &obs.Dash{Logger: lg, Ledger: led, Metrics: reg, Tracer: tracer}
		go func() {
			if err := http.ListenAndServe(*events, dash.Handler()); err != nil {
				lg.Error("dashboard-failed", obs.Err(err))
			}
		}()
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
		cli.Fatal(2, "unknown-preset", obs.String("preset", *preset))
	}
	// An explicit -n rescales a preset (downsized smoke runs keep the
	// preset's degree/leaf/monitor shape, like the bench harness).
	if *preset != "" {
		flag.Visit(func(f *flag.Flag) {
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
			cli.Fatal(2, "bad-flags",
				obs.String("why", "-regions supports only the toposhot strategy and no -checkpoint/-resume"))
		}
		sc, err := experiments.RunScaleCensus(experiments.ScaleCensusConfig{
			Name: census.Name, Grow: grow, Het: het, Seed: *seed,
			Regions: *regions, Lanes: *lanes,
			PoolScale: census.PoolScale, GroupK: census.GroupK, EdgeBudget: census.EdgeBudget, Prefill: census.Prefill,
		})
		if err != nil {
			cli.Fatal(1, "census-failed", obs.Err(err))
		}
		fmt.Fprint(os.Stderr, experiments.FormatScaleCensus(sc))
		cli.FlushTrace()
		bw, closeOut := openOutput(cli, *out)
		defer closeOut()
		for _, e := range sc.Measured.Edges() {
			fmt.Fprintf(bw, "%d %d\n", e[0], e[1])
		}
		return
	}

	// Tracking mode: one seeding census, then per-tick delta campaigns over
	// the churning network. Checkpoints carry the engine blob (churn registry
	// included) plus the tracker snapshot, so -resume continues mid-campaign.
	if *track {
		if *strat != string(strategy.MethodTopoShot) {
			cli.Fatal(2, "bad-flags", obs.String("why", "-track supports only the toposhot strategy"))
		}
		runTracking(trackingFlags{
			census: census, lanes: *lanes,
			ticks: *trackTicks, budget: *trackBudget, churn: *trackChurn,
			checkpoint: *checkpoint, checkpointEvery: *checkpointEvery, resumeFrom: *resumeFrom,
			out: *out, cli: cli, ledger: led,
		})
		return
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
			cli.Fatal(1, "checkpoint-read-failed", obs.Err(err))
		}
		if meta.Campaign == nil {
			cli.Fatal(2, "bad-flags", obs.String("file", *resumeFrom),
				obs.String("why", "a tracking checkpoint; resume it with -track"))
		}
		net, err = ethsim.RestoreNetworkLanes(blob, *lanes)
		if err != nil {
			cli.Fatal(1, "restore-failed", obs.String("file", *resumeFrom), obs.Err(err))
		}
		supers := net.Supernodes()
		if meta.Super < 0 || meta.Super >= len(supers) {
			cli.Fatal(1, "restore-failed", obs.String("file", *resumeFrom),
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
			cli.Fatal(1, "measurement-failed", obs.Err(err))
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
		cli.Fatal(2, "bad-flags", obs.String("why", "-checkpoint/-resume support only the toposhot strategy"))
	} else {
		s, err := strategy.NewMethod(strategy.Method(*strat), net, super, strategy.Config{TopoShot: params})
		if err != nil {
			cli.Fatal(2, "bad-flags", obs.Err(err))
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
			cli.Fatal(1, "measurement-failed", obs.Err(err))
		}
		detected = out.Claimed
		lg.Info("campaign-scored", obs.Float("virtual_h", out.VirtualSeconds/3600),
			obs.String("score", out.Score(truth).String()),
			obs.Int("probe_txs", int64(out.Cost.Total())))
	}
	cli.FlushTrace()

	bw, closeOut := openOutput(cli, *out)
	defer closeOut()
	for _, e := range detected.Edges() {
		va, okA := back[e[0]]
		vb, okB := back[e[1]]
		if okA && okB {
			fmt.Fprintf(bw, "%d %d\n", va, vb)
		}
	}
}

// openOutput returns a buffered writer on the -out file (or stdout) and the
// function that flushes and closes it.
func openOutput(cli *obs.CLI, path string) (*bufio.Writer, func()) {
	dst := os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			cli.Fatal(1, "output-create-failed", obs.String("file", path), obs.Err(err))
		}
		dst = f
	}
	bw := bufio.NewWriter(dst)
	return bw, func() {
		bw.Flush()
		if dst != os.Stdout {
			dst.Close()
		}
	}
}

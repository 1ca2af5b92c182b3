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
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"

	"toposhot/internal/core"
	"toposhot/internal/experiments"
	"toposhot/internal/metrics"
	"toposhot/internal/netgen"
	"toposhot/internal/obs"
	"toposhot/internal/runner"
	"toposhot/internal/strategy"
	"toposhot/internal/tracker"
	"toposhot/internal/types"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, validates them, and runs the mode they select.
func run(args []string, stdout, stderr io.Writer) int {
	o, code := parse(args, stderr)
	if o == nil {
		return code
	}
	cli, code := o.telemetry.Open(stderr)
	if cli == nil {
		return code
	}
	defer cli.Close()
	c, code := validate(o, cli, stdout, stderr)
	if c == nil {
		return code
	}
	// One campaign is one serial engine, so this knob matters only for the
	// pool-backed helpers underneath (and keeps the flag uniform with
	// cmd/experiments).
	defer runner.SetParallelism(runner.Parallelism())
	runner.SetParallelism(o.parallel)

	// The live dashboard serves the campaign's observability surfaces for the
	// duration of the run; its /metrics needs a registry even without -metrics.
	if o.events != "" {
		reg := cli.Metrics
		if reg == nil {
			reg = metrics.NewRegistry()
			metrics.Enable(reg) // the network, pools, and measurer self-wire; cli.Close puts the old default back
		}
		dash := &obs.Dash{Logger: cli.Logger, Ledger: c.ledger, Metrics: reg, Tracer: cli.Tracer}
		srv := &http.Server{Addr: o.events, Handler: dash.Handler()}
		go func() {
			if err := srv.ListenAndServe(); err != http.ErrServerClosed {
				cli.Logger.Error("dashboard-failed", obs.Err(err))
			}
		}()
		defer srv.Close()
		cli.Logger.Info("dashboard-listening", obs.String("addr", o.events))
	}

	switch {
	case o.regions > 0:
		return c.sharded()
	case o.track:
		return c.tracking()
	}
	return c.measure()
}

// options is the parsed command line.
type options struct {
	n, k, lanes, regions, parallel           int
	checkpointEvery, ticks, budget           int
	seed                                     int64
	churn                                    float64
	track, nSet                              bool
	preset, strategy, checkpoint, resumeFrom string
	out, events                              string
	telemetry                                *obs.CLIFlags
}

// parse reads the command line into options. A nil result ends the run with
// the returned code: -h, or a flag that does not parse (reported in one line).
func parse(args []string, stderr io.Writer) (*options, int) {
	fs := flag.NewFlagSet("toposhot", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.IntVar(&o.n, "n", 120, "nodes in the generated network")
	fs.IntVar(&o.k, "k", 20, "parallel schedule group size K")
	fs.Int64Var(&o.seed, "seed", 42, "simulation seed")
	fs.StringVar(&o.preset, "preset", "", "network preset: ropsten|rinkeby|goerli|mainnet (overrides -n)")
	fs.IntVar(&o.lanes, "lanes", 0, "engine event-lane count: a tag recorded on events and in checkpoints; never changes results")
	fs.IntVar(&o.regions, "regions", 0, "shard the census into this many regions, each censused in its own engine (mainnet-scale mode; only intra-region links are measurable, reported honestly)")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "write a resumable campaign checkpoint to this file at batch boundaries")
	fs.IntVar(&o.checkpointEvery, "checkpoint-every", 25, "batches between checkpoint writes under -checkpoint")
	fs.StringVar(&o.resumeFrom, "resume", "", "resume a campaign from a checkpoint file written by -checkpoint (skips network build and pre-processing; the checkpoint fixes the network, seed and K)")
	fs.StringVar(&o.strategy, "strategy", "toposhot", "measurement method: toposhot|dethna|txprobe|ethna (non-toposhot methods probe all eligible pairs)")
	fs.BoolVar(&o.track, "track", false, "after the seeding census, follow the churning network with budgeted delta campaigns instead of re-censusing")
	fs.IntVar(&o.ticks, "track-ticks", 12, "delta campaigns to run under -track")
	fs.IntVar(&o.budget, "track-budget", 72, "pairs re-probed per delta campaign under -track")
	fs.Float64Var(&o.churn, "track-churn", 20, "mean virtual seconds between peer-churn events under -track")
	fs.StringVar(&o.out, "out", "", "output file (default stdout)")
	fs.IntVar(&o.parallel, "parallel", 0, "worker-pool width for independent simulations (0 = GOMAXPROCS, 1 = serial); results are identical at any width")
	o.telemetry = obs.RegisterCLIFlags(fs)
	fs.StringVar(&o.events, "events", "", "serve the live campaign dashboard (/, /events, /log, /ledger, /metrics, /trace/snapshot, /progress) on this address while the run is active")
	fs.Usage = func() {} // a bad flag is its one error line; -h prints the defaults below
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "Usage of toposhot:")
			fs.PrintDefaults()
			return nil, 0
		}
		return nil, 2
	}
	fs.Visit(func(f *flag.Flag) { o.nSet = o.nSet || f.Name == "n" })
	return o, 0
}

// presets are the -preset worlds; "" is a Ropsten-shaped net of -n nodes.
var presets = map[string]netgen.GrowConfig{
	"": netgen.RopstenConfig, "ropsten": netgen.RopstenConfig, "rinkeby": netgen.RinkebyConfig,
	"goerli": netgen.GoerliConfig, "mainnet": netgen.MainnetConfig,
}

// campaign is a validated run: the census world every mode measures, the
// checkpoint it resumes (nil for a fresh run), and where its output goes.
type campaign struct {
	*options
	cli            *obs.CLI
	census         experiments.CensusConfig
	resume         *experiments.Checkpoint
	ledger         *obs.Ledger // probe cost attribution, fed by every mode and served by the dashboard
	stdout, stderr io.Writer
}

// validate refuses every flag combination the run cannot honour before any
// world exists — exit 2 for a combination, 1 for a file it cannot read or
// create — and settles the campaign. A resumed campaign is the checkpoint's:
// its kind is checked here, before the blob is restored, and its seed, K,
// edge budget and network size replace the flags'.
func validate(o *options, cli *obs.CLI, stdout, stderr io.Writer) (*campaign, int) {
	grow, ok := presets[o.preset]
	if !ok {
		return nil, cli.Fatal(2, "unknown-preset", obs.String("preset", o.preset))
	}
	if !slices.Contains(strategy.Methods(), strategy.Method(o.strategy)) {
		return nil, cli.Fatal(2, "bad-flags", obs.String("strategy", o.strategy), obs.String("why", "unknown measurement method"))
	}
	rival := o.strategy != string(strategy.MethodTopoShot)
	resumable := o.checkpoint != "" || o.resumeFrom != ""
	var why string
	switch {
	case o.regions > 0 && (rival || resumable):
		// Per-region results live in separate worlds, so monolithic campaign
		// checkpointing does not apply.
		why = "-regions supports only the toposhot strategy and no -checkpoint/-resume"
	case o.track && rival:
		why = "-track supports only the toposhot strategy"
	case rival && resumable:
		why = "-checkpoint/-resume support only the toposhot strategy"
	}
	if why != "" {
		return nil, cli.Fatal(2, "bad-flags", obs.String("why", why))
	}

	// An explicit -n rescales a preset (downsized smoke runs keep the
	// preset's degree/leaf/monitor shape).
	if o.preset == "" || o.nSet {
		grow = grow.WithN(o.n)
	}
	// Every mode measures the same census world, Ropsten's campaign on the
	// chosen network with the flags' K.
	census := experiments.RopstenCensus(o.seed)
	census.Name, census.Grow, census.GroupK = cmp.Or(o.preset, "custom"), grow.WithSeed(o.seed), o.k
	c := &campaign{options: o, cli: cli, census: census, ledger: obs.NewLedger(), stdout: stdout, stderr: stderr}
	if o.resumeFrom != "" {
		ck, err := experiments.ReadCheckpoint(o.resumeFrom)
		if err != nil {
			return nil, cli.Fatal(1, "checkpoint-read-failed", obs.Err(err))
		}
		switch {
		case o.track && ck.Tracking == nil:
			why = "a census-campaign checkpoint; resume it without -track"
		case !o.track && ck.Campaign == nil:
			why = "a tracking checkpoint; resume it with -track"
		}
		if why != "" {
			return nil, cli.Fatal(2, "bad-flags", obs.String("file", o.resumeFrom), obs.String("why", why))
		}
		c.resume = ck
		c.census.Seed, c.census.GroupK, c.census.EdgeBudget = ck.Seed, ck.K, ck.EdgeBudget
		c.census.Grow = c.census.Grow.WithSeed(ck.Seed).WithN(len(ck.Back))
	}
	if o.out != "" {
		if err := probeWritable(o.out); err != nil {
			return nil, cli.Fatal(1, "output-create-failed", obs.String("file", o.out), obs.Err(err))
		}
	}
	return c, 0
}

// probeWritable refuses a path the edge list could not be written to. It
// opens the file without truncating it and removes it again if the probe
// created it, so a run that fails later leaves -out as it found it; finish
// creates the file for real.
func probeWritable(path string) error {
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o666)
	if err != nil {
		return err
	}
	f.Close()
	if errors.Is(statErr, os.ErrNotExist) {
		return os.Remove(path)
	}
	return nil
}

// sharded runs the region-sharded census: one independent engine per region,
// runner-wide parallel, honest intra-region coverage accounting.
func (c *campaign) sharded() int {
	sc, err := experiments.RunScaleCensus(experiments.ScaleCensusConfig{CensusConfig: c.census, Regions: c.regions, Lanes: c.lanes})
	if err != nil {
		return c.cli.Fatal(1, "census-failed", obs.Err(err))
	}
	fmt.Fprint(c.stderr, experiments.FormatScaleCensus(sc))
	return c.finish(sc.Measured.Edges())
}

// tracking runs one seeding census, then per-tick delta campaigns over the
// churning network. Checkpoints carry the engine blob (churn registry
// included) plus the tracker snapshot, so -resume continues mid-campaign.
func (c *campaign) tracking() int {
	cfg := experiments.TrackingConfig{
		Census:        c.census,
		Ticks:         c.ticks,
		Tracker:       tracker.Config{Budget: c.budget, HalfLife: 6, MinConfidence: 0.25},
		ChurnInterval: c.churn,
		Lanes:         c.lanes,
		Ledger:        c.ledger,
		Resume:        c.resume,
	}
	if r := c.resume; r != nil {
		c.cli.Logger.Info("tracking-resumed", obs.String("file", c.resumeFrom),
			obs.Int("ticks_done", int64(r.Tracking.TicksDone)), obs.Int("ticks", int64(c.ticks)),
			obs.Int("tracked_pairs", int64(len(r.Tracking.Tracker.Pairs))),
			obs.Int("probe_txs", int64(r.Tracking.TrackerTxs)))
	}
	if c.checkpoint != "" {
		every := max(c.checkpointEvery, 1)
		cfg.OnTick = func(tt *experiments.TrackingTick) error {
			if tt.Tick%every != 0 && tt.Tick != c.ticks {
				return nil
			}
			ck, err := tt.Checkpoint()
			if err != nil {
				return err
			}
			return ck.Write(c.checkpoint)
		}
	}
	tr, err := experiments.RunTracking(cfg)
	if err != nil {
		return c.cli.Fatal(1, "tracking-failed", obs.Err(err))
	}
	fmt.Fprint(c.stderr, experiments.FormatTracking(tr))
	fmt.Fprint(c.stderr, experiments.FormatTrackingCost(tr))
	return c.finish(vertexEdges(tr.Belief, tr.Back))
}

// measure runs the monolithic census: one engine hosts the whole network,
// built fresh or restored with the campaign position from the checkpoint,
// measured by TopoShot or probed pair by pair by a rival method.
func (c *campaign) measure() int {
	cli, lg := c.cli, c.cli.Logger
	params := c.census.World(nil).Params()
	var (
		world   *experiments.Built
		m       *core.Measurer
		targets []types.NodeID
		resume  *core.CampaignState
	)
	if c.resume != nil {
		var err error
		if world, err = experiments.RestoreCensusWorld(c.resume, c.lanes); err != nil {
			return cli.Fatal(1, "restore-failed", obs.String("file", c.resumeFrom), obs.Err(err))
		}
		m = world.Measurer(params)
		targets, resume = c.resume.Targets, c.resume.Campaign
		lg.Info("campaign-resumed", obs.String("file", c.resumeFrom),
			obs.Int("nodes", int64(len(world.Net.Nodes()))), obs.Float("virtual_s", world.Net.Now()),
			obs.Int("batches_done", int64(resume.BatchesDone)),
			obs.Int("edges", int64(len(resume.Detected))))
	} else {
		g := netgen.Grow(c.census.Grow)
		w := c.census.World(g)
		w.Lanes = c.lanes
		world = w.Build()
		world.StartTraffic()
		m = world.Measurer(params)
		lg.Info("network-built", obs.Int("nodes", int64(g.NumNodes())),
			obs.Int("edges", int64(g.NumEdges())))
		targets = world.Eligible(m)
	}

	// Every probe the campaign sends lands in the dashboard's attribution
	// ledger under one census phase.
	m.SetObs(m.Obs(), c.ledger)
	m.SetPhase("census")

	var detected *core.EdgeSet
	if c.strategy == string(strategy.MethodTopoShot) {
		var onBatch func(*core.CampaignState) error
		if c.checkpoint != "" {
			every := max(c.checkpointEvery, 1)
			onBatch = func(st *core.CampaignState) error {
				if st.BatchesDone%every != 0 {
					return nil
				}
				ck, err := world.Checkpoint(c.census, targets)
				if err != nil {
					return err
				}
				ck.Campaign = st
				return ck.Write(c.checkpoint)
			}
		}
		lg.Info("census-started", obs.Int("eligible", int64(len(targets))), obs.Int("k", int64(c.census.GroupK)))
		res, sc, err := world.Census(m, c.census, targets, resume, onBatch)
		if err != nil {
			return cli.Fatal(1, "measurement-failed", obs.Err(err))
		}
		detected = res.Detected
		lg.Info("census-scored", obs.Float("virtual_h", res.Duration/3600),
			obs.Int("calls", int64(res.Calls)), obs.String("score", sc.String()),
			obs.Float("fee_eth", core.Ether(m.Ledger.WorstCaseWei())))
	} else {
		net := world.Net
		truth := core.EdgeSetOf(net.Edges())
		s, err := strategy.NewMethod(strategy.Method(c.strategy), net, world.Super, strategy.Config{Params: params})
		if err != nil {
			return cli.Fatal(1, "measurement-failed", obs.Err(err))
		}
		var pairs [][2]types.NodeID
		for i := range targets {
			for j := i + 1; j < len(targets); j++ {
				pairs = append(pairs, [2]types.NodeID{targets[i], targets[j]})
			}
		}
		lg.Info("pairs-planned", obs.Int("pairs", int64(len(pairs))),
			obs.Int("eligible", int64(len(targets))), obs.String("method", s.Name()))
		out, err := strategy.RunPairs(cli.Tracer, lg, net, s, pairs)
		if err != nil {
			return cli.Fatal(1, "measurement-failed", obs.Err(err))
		}
		detected = out.Claimed
		lg.Info("campaign-scored", obs.Float("virtual_h", out.VirtualSeconds/3600),
			obs.String("score", out.Score(truth).String()),
			obs.Int("probe_txs", int64(out.Cost.Total())))
	}
	return c.finish(vertexEdges(detected, world.Inst.Back))
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

// finish ends a successful campaign: it writes the -trace file, then the edge
// list, one "u v" pair per line, to the -out file (or stdout).
func (c *campaign) finish(edges [][2]int) int {
	if err := c.cli.FlushTrace(); err != nil {
		return c.cli.Fatal(1, "trace-write-failed", obs.Err(err))
	}
	out := c.stdout
	var f *os.File
	if c.out != "" {
		var err error
		if f, err = os.Create(c.out); err != nil {
			return c.cli.Fatal(1, "output-create-failed", obs.String("file", c.out), obs.Err(err))
		}
		out = f
	}
	bw := bufio.NewWriter(out)
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
		return c.cli.Fatal(1, "output-write-failed", obs.Err(err))
	}
	return 0
}

package main

import (
	"fmt"
	"runtime"
	"time"

	"toposhot/internal/core"
	"toposhot/internal/ethsim"
	"toposhot/internal/experiments"
	"toposhot/internal/graph"
	"toposhot/internal/metrics"
	"toposhot/internal/netgen"
	"toposhot/internal/obs"
	"toposhot/internal/rlp"
	"toposhot/internal/sim"
	"toposhot/internal/strategy"
	"toposhot/internal/trace"
	"toposhot/internal/tracker"
	"toposhot/internal/txpool"
	"toposhot/internal/types"
)

// The layers pass times public calls of single layers on small fixed worlds.
// Its numbers are the group-D per-layer metrics: where a campaign workload
// says which layer a wall-second went to, these say what one operation of
// that layer costs. Worlds are fixed (seed layerSeed), not drawn from the
// run's seed, so the numbers compare across runs.
const layerSeed = 7

// sample is one timing of a driver: host nanoseconds and heap allocations
// per operation.
type sample struct {
	ns, allocs float64
}

// measure times f, which performs ops operations.
func measure(ops int, f func()) sample {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return sample{
		ns:     float64(d.Nanoseconds()) / float64(ops),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
	}
}

// layersPass runs every micro-driver. samples is how many times each is
// timed (the median is reported); scale multiplies every driver's operation
// count, so the smoke test can run each once at one iteration.
type layersPass struct {
	samples int
	scale   float64
	out     map[string]float64
	err     error
}

// ops scales a driver's operation count, never below one.
func (p *layersPass) ops(n int) int {
	if s := int(float64(n) * p.scale); s > 1 {
		return s
	}
	return 1
}

// median runs a driver p.samples times and returns the median sample. A
// driver builds its own world on every call, outside measure.
func (p *layersPass) median(driver func() (sample, error)) sample {
	var ns, allocs []float64
	for i := 0; i < p.samples && p.err == nil; i++ {
		s, err := driver()
		if err != nil {
			p.err = err
			return sample{}
		}
		ns, allocs = append(ns, s.ns), append(allocs, s.allocs)
	}
	return sample{ns: median(ns), allocs: median(allocs)}
}

func runLayers(samples int, scale float64) (map[string]float64, error) {
	p := &layersPass{samples: samples, scale: scale, out: make(map[string]float64)}
	for _, layer := range []func(){
		p.txpool, p.sim, p.ethsim, p.types, p.core, p.strategy,
		p.tracker, p.graph, p.netgen, p.telemetry, p.rlp,
	} {
		layer()
		if p.err != nil {
			return nil, p.err
		}
	}
	return p.out, nil
}

// --- txpool ---------------------------------------------------------------

func addr(n uint64) types.Address { return types.AddressFromUint64(n) }

// pendingTxs mints n executable transactions from distinct senders, hashes
// already memoized so drivers time the pool and not SHA-256.
func pendingTxs(base uint64, n int, price uint64) []*types.Transaction {
	txs := make([]*types.Transaction, n)
	for i := range txs {
		txs[i] = types.NewTransaction(addr(base+uint64(i)), addr(1), 0, price, 0)
		txs[i].Hash()
	}
	return txs
}

// futureTxs mints n nonce-gapped transactions spread over accounts of at
// most perAccount each, the shape core.Measurer fills a mempool with.
func futureTxs(base uint64, n, perAccount int, price uint64) []*types.Transaction {
	txs := make([]*types.Transaction, 0, n)
	for acct := base; len(txs) < n; acct++ {
		for i := 0; i < perAccount && len(txs) < n; i++ {
			tx := types.NewTransaction(addr(acct), addr(1), uint64(i+1), price, 0)
			tx.Hash()
			txs = append(txs, tx)
		}
	}
	return txs
}

// fullPool returns a Geth-policy pool filled to capacity with pending
// transactions at the given price.
func fullPool(price uint64) *txpool.Pool {
	pool := txpool.New(txpool.Geth)
	for _, tx := range pendingTxs(1<<32, txpool.Geth.Capacity, price) {
		pool.Offer(tx)
	}
	return pool
}

func (p *layersPass) txpool() {
	n := p.ops(4000)
	roomy := txpool.Geth.WithCapacity(4 * n)

	admit := p.median(func() (sample, error) {
		pool, txs := txpool.New(roomy), pendingTxs(1<<20, n, types.Gwei)
		return measure(n, func() {
			for _, tx := range txs {
				pool.Offer(tx)
			}
		}), nil
	})
	p.out["txpool.admit_ns"], p.out["txpool.allocs_per_offer"] = admit.ns, admit.allocs

	// held builds a pool already holding n pending transactions.
	held := func() (*txpool.Pool, []*types.Transaction) {
		pool, txs := txpool.New(roomy), pendingTxs(1<<20, n, types.Gwei)
		for _, tx := range txs {
			pool.Offer(tx)
		}
		return pool, txs
	}
	// bumped re-mints every held transaction at a new price.
	bumped := func(txs []*types.Transaction, price uint64) []*types.Transaction {
		out := make([]*types.Transaction, len(txs))
		for i, tx := range txs {
			out[i] = types.NewTransaction(tx.From, tx.To, tx.Nonce, price, 0)
			out[i].Hash()
		}
		return out
	}
	p.out["txpool.known_ns"] = p.median(func() (sample, error) {
		pool, txs := held()
		return measure(n, func() {
			for _, tx := range txs {
				pool.Offer(tx)
			}
		}), nil
	}).ns
	p.out["txpool.replace_ns"] = p.median(func() (sample, error) {
		pool, txs := held()
		repl := bumped(txs, types.Gwei*12/10)
		return measure(n, func() {
			for _, tx := range repl {
				pool.Offer(tx)
			}
		}), nil
	}).ns
	p.out["txpool.reject_ns"] = p.median(func() (sample, error) {
		pool, txs := held()
		under := bumped(txs, types.Gwei*101/100)
		return measure(n, func() {
			for _, tx := range under {
				pool.Offer(tx)
			}
		}), nil
	}).ns

	p.out["txpool.evict_ns"] = p.median(func() (sample, error) {
		pool := fullPool(types.Gwei)
		fut := futureTxs(1<<40, n, txpool.Geth.MaxFuturePerAccount, 2*types.Gwei)
		var evicted int
		s := measure(n, func() {
			for _, tx := range fut {
				evicted += len(pool.Offer(tx).Evicted)
			}
		})
		if evicted != n {
			return s, fmt.Errorf("txpool.evict_ns: %d futures evicted %d transactions", n, evicted)
		}
		return s, nil
	}).ns

	// Step 2 of the primitive: Z futures into a full pool, evicting all of it.
	z := p.ops(txpool.Geth.Capacity)
	p.out["txpool.fill_z_ms"] = p.median(func() (sample, error) {
		pool := fullPool(types.Gwei)
		fut := futureTxs(1<<40, z, txpool.Geth.MaxFuturePerAccount, 2*types.Gwei)
		return measure(1, func() {
			for _, tx := range fut {
				pool.Offer(tx)
			}
		}), nil
	}).ns / 1e6

	p.out["txpool.snapshot_ms"] = p.median(func() (sample, error) {
		pool := fullPool(types.Gwei)
		return measure(1, func() { pool.Snapshot() }), nil
	}).ns / 1e6
	p.out["txpool.restore_ms"] = p.median(func() (sample, error) {
		snap := fullPool(types.Gwei).Snapshot()
		var err error
		s := measure(1, func() { _, err = txpool.RestorePool(txpool.Geth, snap) })
		return s, err
	}).ns / 1e6
}

// --- sim --------------------------------------------------------------------

// nopHandler is a simulated event that does nothing, so the engine's queue
// is all that is timed.
type nopHandler struct{}

func (nopHandler) HandleEvent(uint64) {}

func (p *layersPass) sim() {
	n := p.ops(200_000)
	depth := p.ops(64 << 10)
	event := func(lanes int) sample {
		return p.median(func() (sample, error) {
			eng := sim.New(layerSeed)
			if lanes > 0 {
				eng.SetLanes(lanes)
			}
			var h nopHandler
			rng := eng.Rand()
			for i := 0; i < depth; i++ {
				eng.AtHandlerLane(rng.Float64(), h, 0, i)
			}
			// Steady depth: each step schedules one event a random distance
			// past the one it pops.
			return measure(n, func() {
				for i := 0; i < n; i++ {
					eng.AtHandlerLane(eng.Now()+rng.Float64(), h, 0, i)
					eng.Step()
				}
			}), nil
		})
	}
	serial := event(0)
	p.out["sim.event_ns"], p.out["sim.allocs_per_event"] = serial.ns, serial.allocs
	p.out["sim.event_lanes4_ns"] = event(4).ns
}

// --- ethsim -----------------------------------------------------------------

// floodNet is the 100-node ring-with-chords of ethsim's BenchmarkGossipFlood,
// arenas warmed by a few floods.
func floodNet() (*ethsim.Network, []types.NodeID) {
	cfg := ethsim.DefaultConfig(layerSeed)
	cfg.LatencyTail, cfg.LatencyMax = 0.02, 0.5
	net := ethsim.NewNetwork(cfg)
	ids := make([]types.NodeID, 100)
	for i := range ids {
		ids[i] = net.AddNode(ethsim.NodeConfig{Policy: txpool.Geth.WithCapacity(1 << 14), MaxPeers: 50}).ID()
	}
	for i := range ids {
		for _, chord := range []int{1, 7, 29} {
			_ = net.Connect(ids[i], ids[(i+chord)%len(ids)]) // a duplicate chord is refused, as in the original
		}
	}
	net.StartJanitor(5)
	flood(net, ids, 0, 16)
	return net, ids
}

// flood submits n transactions one at a time, each gossiped to quiescence.
func flood(net *ethsim.Network, ids []types.NodeID, base, n int) {
	for i := base; i < base+n; i++ {
		tx := types.NewTransaction(addr(uint64(1000+i)), addr(2), 0, types.Gwei, 0)
		net.Node(ids[i%len(ids)]).SubmitLocal(tx)
		net.RunFor(2)
	}
}

func msgTotal(net *ethsim.Network) int {
	c := net.MsgCounts()
	return c["txs"] + c["announce"] + c["request"]
}

// timeFlood times n floods on a fresh flood network and also reports the
// messages delivered per flood.
func (p *layersPass) timeFlood(n int) (s sample, msgsPerFlood float64) {
	s = p.median(func() (sample, error) {
		net, ids := floodNet()
		before := msgTotal(net)
		s := measure(n, func() { flood(net, ids, 16, n) })
		msgsPerFlood = float64(msgTotal(net)-before) / float64(n)
		return s, nil
	})
	return s, msgsPerFlood
}

// smallCensus builds a small census world (goerli preset, all-default Geth
// nodes, 1/10-scale pools, prefilled) for the drivers that need a measurer.
func smallCensus(n int) *censusWorld {
	cfg := experiments.GoerliCensus(layerSeed)
	cfg.Grow = cfg.Grow.WithN(n)
	cfg.Het = netgen.Uniform()
	return buildCensus(cfg, &meter{})
}

// someEdge returns a linked pair of ordinary nodes.
func someEdge(c *censusWorld) (a, b types.NodeID, err error) {
	for _, e := range c.net.Edges() {
		if e[0] != c.super.ID() && e[1] != c.super.ID() {
			return e[0], e[1], nil
		}
	}
	return 0, 0, fmt.Errorf("layers: world has no edge between ordinary nodes")
}

func (p *layersPass) ethsim() {
	n := p.ops(60)
	fl, msgs := p.timeFlood(n)
	p.out["ethsim.flood_us"] = fl.ns / 1e3
	if msgs > 0 {
		p.out["ethsim.msg_ns"] = fl.ns / msgs
		p.out["ethsim.allocs_per_msg"] = fl.allocs / msgs
	}

	z := p.ops(txpool.Geth.Capacity)
	p.out["ethsim.inject_z_ms"] = p.median(func() (sample, error) {
		net, ids := floodNet()
		super := ethsim.NewSupernode(net)
		if err := super.Connect(ids[0]); err != nil {
			return sample{}, err
		}
		fut := futureTxs(1<<40, z, txpool.Geth.MaxFuturePerAccount, 2*types.Gwei)
		return measure(1, func() {
			super.Inject(ids[0], fut...)
			net.Engine().RunUntil(super.DrainTime())
			net.RunFor(1)
		}), nil
	}).ns / 1e6

	ops := p.ops(2000)
	p.out["ethsim.churn_op_us"] = p.median(func() (sample, error) {
		net := ethsim.NewNetwork(ethsim.DefaultConfig(layerSeed))
		netgen.InstantiateScaled(net, netgen.Grow(netgen.GoerliConfig.WithSeed(layerSeed)), netgen.Uniform(), layerSeed, 0.1)
		edges := net.Edges()
		if len(edges) == 0 {
			return sample{}, fmt.Errorf("ethsim.churn_op_us: goerli graph has no edges")
		}
		return measure(ops, func() {
			for i := 0; i < ops/2; i++ {
				e := edges[i%len(edges)]
				net.Disconnect(e[0], e[1])
				_ = net.Connect(e[0], e[1]) // the link was just removed, so there is room for it
			}
		}), nil
	}).ns / 1e3

	var blob []byte
	p.out["ethsim.checkpoint_ms"] = p.median(func() (sample, error) {
		c := smallCensus(p.ops(64) + 8)
		var err error
		s := measure(1, func() { blob, err = c.net.Checkpoint() })
		return s, err
	}).ns / 1e6
	p.out["ethsim.checkpoint_kb"] = float64(len(blob)) / 1024
	p.out["ethsim.restore_ms"] = p.median(func() (sample, error) {
		var err error
		s := measure(1, func() { _, err = ethsim.RestoreNetwork(blob) })
		return s, err
	}).ns / 1e6
}

// --- types, rlp ---------------------------------------------------------------

func (p *layersPass) types() {
	n := p.ops(100_000)
	p.out["types.hash_ns"] = p.median(func() (sample, error) {
		txs := make([]*types.Transaction, n)
		for i := range txs {
			txs[i] = types.NewTransaction(addr(uint64(i)), addr(1), 0, types.Gwei, 0)
		}
		return measure(n, func() {
			for _, tx := range txs {
				tx.Hash()
			}
		}), nil
	}).ns
}

// txItem is a transaction as the checkpoint codec lays it out.
func txItem(tx *types.Transaction) rlp.Item {
	dyn := uint64(0)
	if tx.DynamicFee {
		dyn = 1
	}
	return rlp.List(rlp.Bytes(tx.From[:]), rlp.Bytes(tx.To[:]),
		rlp.Uint(tx.Nonce), rlp.Uint(tx.GasPrice), rlp.Uint(tx.Gas), rlp.Uint(tx.Value),
		rlp.Bytes(tx.Data), rlp.Uint(tx.Tip), rlp.Uint(dyn))
}

func (p *layersPass) rlp() {
	n := p.ops(100_000)
	item := txItem(types.NewTransaction(addr(1), addr(2), 3, types.Gwei, 5))
	p.out["rlp.encode_ns"] = p.median(func() (sample, error) {
		return measure(n, func() {
			for i := 0; i < n; i++ {
				rlp.Encode(item)
			}
		}), nil
	}).ns
	enc := rlp.Encode(item)
	p.out["rlp.decode_ns"] = p.median(func() (sample, error) {
		var err error
		s := measure(n, func() {
			for i := 0; i < n && err == nil; i++ {
				_, err = rlp.Decode(enc)
			}
		})
		return s, err
	}).ns
}

// --- core, strategy -----------------------------------------------------------

func (p *layersPass) core() {
	links := p.ops(3)
	var events float64
	p.out["core.onelink_ms"] = p.median(func() (sample, error) {
		c := smallCensus(32)
		a, b, err := someEdge(c)
		if err != nil {
			return sample{}, err
		}
		before := c.net.Engine().SeqCount()
		s := measure(links, func() {
			for i := 0; i < links && err == nil; i++ {
				_, err = c.measurer.MeasureOneLink(a, b)
			}
		})
		events = float64(c.net.Engine().SeqCount()-before) / float64(links)
		return s, err
	}).ns / 1e6
	p.out["core.onelink_events"] = events

	p.out["core.par_edge_ms"] = p.median(func() (sample, error) {
		c := smallCensus(32)
		// A 4×4 block, the shape planNetworkBatches cuts a census into.
		var edges []core.Edge
		for _, a := range c.inst.IDs[:4] {
			for _, b := range c.inst.IDs[4:8] {
				edges = append(edges, core.Edge{Source: a, Sink: b})
			}
		}
		var err error
		s := measure(len(edges), func() { _, err = c.measurer.MeasurePar(edges) })
		return s, err
	}).ns / 1e6

	p.out["core.preprocess_node_ms"] = p.median(func() (sample, error) {
		c := smallCensus(32)
		return measure(len(c.inst.IDs), func() { c.measurer.Preprocess(c.inst.IDs) }), nil
	}).ns / 1e6
}

func (p *layersPass) strategy() {
	cfg := experiments.DefaultCompareConfig()
	pairs := p.ops(4)
	for _, method := range strategy.Methods() {
		method := method
		p.out["strategy."+string(method)+"_pair_ms"] = p.median(func() (sample, error) {
			c := smallCensus(cfg.Nodes)
			super := c.super
			s, err := strategy.NewMethod(method, c.net, super, cfg.Strategy)
			if err != nil {
				return sample{}, err
			}
			// Half links, half non-links, as experiments.Compare probes.
			var probe [][2]types.NodeID
			for _, e := range c.net.Edges() {
				if len(probe) < (pairs+1)/2 && e[0] != super.ID() && e[1] != super.ID() {
					probe = append(probe, e)
				}
			}
			ids := c.inst.IDs
			for i := 0; len(probe) < pairs && i+1 < len(ids); i++ {
				if !c.net.Connected(ids[i], ids[len(ids)-1-i]) && ids[i] != ids[len(ids)-1-i] {
					probe = append(probe, [2]types.NodeID{ids[i], ids[len(ids)-1-i]})
				}
			}
			sm := measure(len(probe), func() { _, err = strategy.RunPairs(nil, nil, c.net, s, probe) })
			return sm, err
		}).ns / 1e6
	}
}

// --- tracker, graph, netgen -----------------------------------------------------

// stubProber answers every probe at once with "absent", leaving the
// tracker's planner as the only cost of a tick.
type stubProber struct{ out []tracker.ProbeResult }

func (s *stubProber) ProbePairs(pairs [][2]types.NodeID) ([]tracker.ProbeResult, error) {
	s.out = s.out[:0]
	for _, pr := range pairs {
		s.out = append(s.out, tracker.ProbeResult{A: pr[0], B: pr[1]})
	}
	return s.out, nil
}

func (p *layersPass) tracker() {
	targets := make([]types.NodeID, p.ops(600)+1)
	for i := range targets {
		targets[i] = types.NodeID(i)
	}
	cfg := tracker.Config{Budget: 72, HalfLife: 6, MinConfidence: 0.25}
	ticks := p.ops(2000)
	var state *tracker.State
	p.out["tracker.tick_plan_us"] = p.median(func() (sample, error) {
		trk, err := tracker.New(cfg, targets, nil, &stubProber{})
		if err != nil {
			return sample{}, err
		}
		s := measure(ticks, func() {
			for i := 0; i < ticks && err == nil; i++ {
				_, err = trk.Tick()
			}
		})
		state = trk.State()
		return s, err
	}).ns / 1e3
	p.out["tracker.restore_ms"] = p.median(func() (sample, error) {
		var err error
		s := measure(1, func() { _, err = tracker.Restore(state, cfg, &stubProber{}) })
		return s, err
	}).ns / 1e6
}

func (p *layersPass) graph() {
	goerli := netgen.Grow(netgen.GoerliConfig.WithSeed(layerSeed))
	edges := goerli.Edges()
	n := p.ops(20_000)
	p.out["graph.dynamic_edge_ns"] = p.median(func() (sample, error) {
		d := graph.FromGraph(goerli)
		return measure(n, func() {
			for i := 0; i < n/2; i++ {
				e := edges[i%len(edges)]
				d.RemoveEdge(e[0], e[1])
				d.AddEdge(e[0], e[1])
			}
		}), nil
	}).ns

	small := netgen.Grow(netgen.GoerliConfig.WithSeed(layerSeed).WithN(p.ops(256) + 8))
	p.out["graph.properties_ms"] = p.median(func() (sample, error) {
		return measure(1, func() { graph.ComputeProperties(small, 10_000) }), nil
	}).ns / 1e6
	p.out["graph.louvain_ms"] = p.median(func() (sample, error) {
		return measure(1, func() { graph.Louvain(small, layerSeed) }), nil
	}).ns / 1e6
}

func (p *layersPass) netgen() {
	cfg := netgen.GoerliConfig.WithSeed(layerSeed).WithN(p.ops(netgen.GoerliConfig.N) + 8)
	p.out["netgen.grow_ms"] = p.median(func() (sample, error) {
		return measure(1, func() { netgen.Grow(cfg) }), nil
	}).ns / 1e6
	g := netgen.Grow(cfg)
	p.out["netgen.instantiate_ms"] = p.median(func() (sample, error) {
		net := ethsim.NewNetwork(ethsim.DefaultConfig(layerSeed))
		return measure(1, func() { netgen.InstantiateScaled(net, g, netgen.DefaultHeterogeneity(), layerSeed, 0.1) }), nil
	}).ns / 1e6
}

// --- telemetry ------------------------------------------------------------------

func (p *layersPass) telemetry() {
	n := p.ops(60)
	off, _ := p.timeFlood(n)

	// Everything on: counters, engine-level trace events, the event log.
	metrics.Enable(metrics.NewRegistry())
	trace.Enable(trace.New(trace.Options{Level: trace.LevelEngine}))
	obs.Enable(obs.New(obs.Options{Level: obs.LevelDebug}))
	on, _ := p.timeFlood(n)
	metrics.Enable(nil)
	trace.Enable(nil)
	obs.Enable(nil)

	p.out["telemetry.flood_off_us"] = off.ns / 1e3
	p.out["telemetry.flood_on_us"] = on.ns / 1e3
	if off.ns > 0 {
		p.out["telemetry.overhead_pct"] = 100 * (on.ns - off.ns) / off.ns
	}
}

// Command toposhotd runs a live Ethereum-lite node over TCP — a peering
// target for live-mode TopoShot (see examples/live-tcp and the prober in
// internal/node).
//
// Usage:
//
//	toposhotd -listen 127.0.0.1:30311 -network 1337
//	toposhotd -listen 127.0.0.1:30312 -peers 127.0.0.1:30311
//	toposhotd -listen 127.0.0.1:30311 -metrics-http 127.0.0.1:9311
//
// With -metrics-http the daemon serves the campaign observatory: the HTML
// dashboard at GET / (phase progress, cost burn, live event pane), the live
// event stream at GET /events (SSE; ?format=jsonl for a snapshot dump), the
// buffered event log at GET /log, a JSON snapshot of every node, txpool, and
// per-peer instrument at GET /metrics (Prometheus text exposition with
// ?format=prom or an Accept: text/plain header), the in-memory timeline
// trace at GET /trace/snapshot (Chrome/Perfetto JSON; ?format=jsonl for
// JSONL), span-derived progress/ETA at GET /progress, per-peer stats at
// GET /peers, and live profiles under /debug/pprof.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"toposhot/internal/metrics"
	"toposhot/internal/node"
	"toposhot/internal/obs"
	"toposhot/internal/trace"
	"toposhot/internal/txpool"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run serves until SIGINT/SIGTERM and returns the exit code; every flag is
// checked before the node starts.
func run(args []string, _, stderr io.Writer) int {
	fs := flag.NewFlagSet("toposhotd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:0", "listen address")
	networkID := fs.Uint64("network", 1337, "network id")
	peers := fs.String("peers", "", "comma-separated peer addresses to dial")
	client := fs.String("client", "geth", "mempool policy: geth|parity|nethermind|besu|aleth")
	capacity := fs.Int("capacity", 0, "override mempool capacity (0 = client default)")
	version := fs.String("version", "", "client version override")
	metricsHTTP := fs.String("metrics-http", "", "serve the observability endpoints (dashboard, /events, /metrics, /trace/snapshot, /peers, pprof) on this address (empty = off)")
	readIdle := fs.Duration("read-idle", 0, "idle read deadline per peer (0 = default, negative = disabled)")
	writeTimeout := fs.Duration("write-timeout", 0, "per-frame write deadline per peer (0 = default, negative = disabled)")
	traceLevel := fs.String("trace-level", "measure", "in-memory trace verbosity: off|measure|engine (served at /trace/snapshot)")
	logging := obs.RegisterLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cli, code := logging.Open(stderr)
	if cli == nil {
		return code
	}
	defer cli.Close() // last: the snapshot holds every shutdown event
	lg := cli.Logger

	lv, err := trace.ParseLevel(*traceLevel)
	if err != nil {
		return cli.Fatal(2, "trace-setup-failed", obs.Err(err))
	}
	pol, ok := txpool.ClientByName(*client)
	if !ok {
		return cli.Fatal(2, "unknown-client", obs.String("client", *client))
	}

	// The daemon is a live process, so its trace lane and event log run on
	// wall seconds since startup rather than a simulation clock.
	start := time.Now()
	wall := func() float64 { return time.Since(start).Seconds() }
	tracer := trace.New(trace.Options{Level: lv})
	tracer.SetClock(wall)
	trace.Enable(tracer) // the node self-wires, like metrics; cli.Close puts the old default back
	lg.SetClock(wall)

	if *capacity > 0 {
		pol = pol.WithCapacity(*capacity)
	}
	cv := pol.ClientVersion
	if *version != "" {
		cv = *version
	}
	reg := metrics.NewRegistry()
	n, err := node.Start(node.Config{
		ClientVersion:   cv,
		NetworkID:       *networkID,
		Policy:          pol,
		Seed:            time.Now().UnixNano(),
		ReadIdleTimeout: *readIdle,
		WriteTimeout:    *writeTimeout,
		Metrics:         reg,
	}, *listen)
	if err != nil {
		return cli.Fatal(1, "start-failed", obs.Err(err))
	}
	lg.Info("listening", obs.String("addr", n.Addr()),
		obs.Int("network", int64(*networkID)), obs.String("client", *client),
		obs.Int("pool", int64(pol.Capacity)))

	// The daemon's event stream feeds a watchdog: a peer link going quiet or
	// the frame budget blowing up surfaces as first-class warn events on the
	// same stream the dashboard tails.
	wd := obs.NewWatchdog(obs.WatchdogConfig{StallAfter: 120}, lg)
	defer wd.Watch(lg)()

	if *metricsHTTP != "" {
		// The obs dashboard serves /, /dashboard, /events, /log, /ledger,
		// /metrics, /trace/snapshot, and /progress; the daemon adds its own
		// /peers and the pprof handlers on top.
		dash := &obs.Dash{Logger: lg, Metrics: reg, Tracer: tracer}
		mux := http.NewServeMux()
		mux.Handle("/", dash.Handler())
		mux.HandleFunc("/peers", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(n.PeerStats())
		})
		// Live profiling of a running daemon: `go tool pprof
		// http://ADDR/debug/pprof/profile` while a census drives it.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		srv := &http.Server{Addr: *metricsHTTP, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				lg.Error("http-failed", obs.Err(err))
			}
		}()
		defer srv.Close()
		lg.Info("dashboard-listening", obs.String("addr", *metricsHTTP))
	}

	for _, p := range strings.Split(*peers, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if err := n.Dial(p); err != nil {
			lg.Error("dial-failed", obs.String("peer", p), obs.Err(err))
		} else {
			lg.Info("peered", obs.String("peer", p))
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	ticker := time.NewTicker(10 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-sig:
			lg.Info("shutting-down")
			_ = n.Close()
			return 0
		case <-ticker.C:
			total, pending, future := n.PoolStats()
			s := reg.Snapshot()
			lg.Info("status",
				obs.Int("peers", int64(n.PeerCount())), obs.Int("pool", int64(total)),
				obs.Int("pending", int64(pending)), obs.Int("future", int64(future)),
				obs.Int("frames_in", s.Counters["node.frames.in"]),
				obs.Int("frames_out", s.Counters["node.frames.out"]),
				obs.Int("stall_drops", s.Counters["node.write_stall_drops"]),
				obs.Int("idle_disconnects", s.Counters["node.idle_disconnects"]))
		}
	}
}

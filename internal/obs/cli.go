package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"toposhot/internal/metrics"
	"toposhot/internal/trace"
)

// CLI bundles the telemetry state a binary wires behind its flags. Every
// binary has the logging part (-log-level, -log-format, -log): a live logger
// on stderr plus an optional deterministic JSONL snapshot written when the
// run ends; the daemon opens just that through LogFlags. The simulation
// binaries open theirs through CLIFlags, which adds the tracer, the metrics
// registry and the runtime profiler.
//
// A CLI never exits the process: fatal paths hand their exit code back to the
// binary's run function, and Close puts back the process defaults Open
// replaced, so several runs can share one process (the in-process CLI tests).
type CLI struct {
	// Logger is the process logger (nil when -log-level off).
	Logger *Logger
	// Path is the -log destination for the deterministic snapshot ("" = none).
	Path string
	// Tracer is the process-default tracer (nil without -trace) and Metrics
	// the process-default registry (nil without -metrics).
	Tracer  *trace.Tracer
	Metrics *metrics.Registry

	stderr    io.Writer
	tracePath string
	prof      *Runtime
	progress  *metrics.ProgressLogger

	// The process defaults in force before this CLI installed its own.
	prevLogger  *Logger
	prevTracer  *trace.Tracer
	prevMetrics *metrics.Registry
}

// LogFlags holds the three logging flags every long-running binary shares
// (-log-level, -log-format, -log), declared once so names, defaults and help
// text cannot drift.
type LogFlags struct {
	level, format, path *string
}

// RegisterLogFlags declares the shared logging flags on fs.
func RegisterLogFlags(fs *flag.FlagSet) *LogFlags {
	return &LogFlags{
		level:  fs.String("log-level", "info", "structured event-log verbosity: debug|info|warn|error|off"),
		format: fs.String("log-format", "text", "live log line format on stderr: text|jsonl"),
		path:   fs.String("log", "", "write the deterministic event-log snapshot (JSONL) to this file on exit"),
	}
}

// Open builds the logging bundle from the parsed flags, with live lines on
// stderr, and installs the logger as the process default (constructors
// self-wire, like metrics and trace). An unparseable level or format is
// reported on stderr and returns a nil CLI with exit code 2 — flag
// validation, not a runtime failure.
func (f *LogFlags) Open(stderr io.Writer) (*CLI, int) {
	lg, err := NewCLI(*f.level, *f.format, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return nil, 2
	}
	c := &CLI{Logger: lg, Path: *f.path, stderr: stderr,
		prevLogger: Enabled(), prevTracer: trace.Enabled(), prevMetrics: metrics.Enabled()}
	Enable(lg)
	return c, 0
}

// CLIFlags holds the ten telemetry flags cmd/toposhot and cmd/experiments
// share: the logging trio plus tracing, metrics and profiling.
type CLIFlags struct {
	log                    *LogFlags
	metrics, traceDet      *bool
	metricsEvery           *time.Duration
	cpuProfile, memProfile *string
	traceOut, traceLevel   *string
}

// RegisterCLIFlags declares the shared telemetry flags on fs.
func RegisterCLIFlags(fs *flag.FlagSet) *CLIFlags {
	return &CLIFlags{
		log:          RegisterLogFlags(fs),
		metrics:      fs.Bool("metrics", false, "print periodic progress lines and a final metrics snapshot to stderr"),
		metricsEvery: fs.Duration("metrics-interval", 10*time.Second, "progress line interval under -metrics"),
		cpuProfile:   fs.String("cpuprofile", "", "write a CPU profile to this file"),
		memProfile:   fs.String("memprofile", "", "write a heap profile to this file on exit"),
		traceOut:     fs.String("trace", "", "write a timeline trace to this file (.jsonl = JSONL, else Chrome/Perfetto JSON)"),
		traceLevel:   fs.String("trace-level", "measure", "trace verbosity with -trace: off|measure|engine"),
		traceDet:     fs.Bool("trace-deterministic", false, "suppress wall-clock fields so same-seed runs produce byte-identical traces"),
	}
}

// Open wires the parsed flags in a fixed order — logger, tracer, runtime
// profiler, metrics — installing each as the process default, so networks,
// pools, measurers and sweeps self-wire. On failure it reports on stderr and
// returns a nil CLI with the exit code: 2 for a bad flag value, 1 for a
// profile that cannot start.
func (f *CLIFlags) Open(stderr io.Writer) (*CLI, int) {
	c, code := f.log.Open(stderr)
	if c == nil {
		return nil, code
	}
	abort := func(code int, msg string, err error) (*CLI, int) {
		c.Fatal(code, msg, Err(err))
		c.Close()
		return nil, code
	}
	if *f.traceOut != "" {
		lv, err := trace.ParseLevel(*f.traceLevel)
		if err != nil {
			return abort(2, "trace-setup-failed", err)
		}
		if tr := trace.New(trace.Options{Level: lv, Deterministic: *f.traceDet}); tr != nil {
			trace.Enable(tr)
			c.Tracer, c.tracePath = tr, *f.traceOut
		}
	}
	prof, err := StartRuntime(*f.cpuProfile, *f.memProfile)
	if err != nil {
		return abort(1, "profile-setup-failed", err)
	}
	c.prof = prof
	if *f.metrics {
		c.Metrics = metrics.NewRegistry()
		metrics.Enable(c.Metrics)
		c.progress = metrics.StartProgress(c.Metrics, stderr, *f.metricsEvery)
	}
	return c, 0
}

// FlushTrace writes the -trace file (a no-op without -trace).
func (c *CLI) FlushTrace() error {
	if c == nil || c.Tracer == nil {
		return nil
	}
	return c.Tracer.Snapshot().WriteFile(c.tracePath)
}

// Close ends the run's telemetry: under -metrics it announces and prints the
// final snapshot and stops the progress lines, then it stops the runtime
// profiler, writes the event-log snapshot (a failed write is reported on
// stderr), and restores the process-default logger, tracer and registry that
// were in force before Open.
func (c *CLI) Close() {
	if c == nil {
		return
	}
	if c.progress != nil {
		c.Logger.Info("final-metrics-snapshot")
		_ = c.Metrics.WriteJSON(c.stderr)
		c.progress.Stop()
		c.progress = nil
	}
	if err := c.prof.Stop(); err != nil {
		c.Logger.Error("profile-write-failed", Err(err))
	}
	if err := c.writeLog(); err != nil {
		fmt.Fprintln(c.stderr, FormatLine("log-write-failed", Err(err)))
	}
	Enable(c.prevLogger)
	trace.Enable(c.prevTracer)
	metrics.Enable(c.prevMetrics)
}

// writeLog writes the deterministic event-log snapshot to Path, when one was
// requested.
func (c *CLI) writeLog() error {
	if c.Path == "" {
		return nil
	}
	f, err := os.Create(c.Path)
	if err != nil {
		return err
	}
	if err := c.Logger.Snapshot().WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Fatal records msg at error level — rendered plainly on stderr when logging
// is off, so fatal errors are never silent — and returns code for the
// binary's run function to return; the deferred Close writes the event-log
// snapshot.
func (c *CLI) Fatal(code int, msg string, fields ...Field) int {
	if c.Logger != nil {
		c.Logger.Error(msg, fields...)
	} else {
		fmt.Fprintln(c.stderr, FormatLine(msg, fields...))
	}
	return code
}

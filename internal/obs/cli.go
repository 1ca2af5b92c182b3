package obs

import (
	"flag"
	"fmt"
	"os"
	"time"

	"toposhot/internal/metrics"
	"toposhot/internal/trace"
)

// CLI bundles the telemetry state a binary wires behind its flags. Every
// binary has the logging part (-log-level, -log-format, -log): a live logger
// on stderr plus an optional deterministic JSONL snapshot written when the
// run ends. The simulation binaries open theirs through CLIFlags, which adds
// the tracer, the metrics registry and the runtime profiler.
type CLI struct {
	// Logger is the process logger (nil when -log-level off).
	Logger *Logger
	// Path is the -log destination for the deterministic snapshot ("" = none).
	Path string
	// Tracer is the process-default tracer (nil without -trace) and Metrics
	// the process-default registry (nil without -metrics).
	Tracer  *trace.Tracer
	Metrics *metrics.Registry

	tracePath string
	prof      *Runtime
	progress  *metrics.ProgressLogger
}

// CLIFlags holds the ten telemetry flags cmd/toposhot and cmd/experiments
// share, declared once so names, defaults and help text cannot drift.
type CLIFlags struct {
	metrics, traceDet            *bool
	metricsEvery                 *time.Duration
	cpuProfile, memProfile       *string
	traceOut, traceLevel         *string
	logLevel, logFormat, logPath *string
}

// RegisterCLIFlags declares the shared telemetry flags on fs.
func RegisterCLIFlags(fs *flag.FlagSet) *CLIFlags {
	return &CLIFlags{
		metrics:      fs.Bool("metrics", false, "print periodic progress lines and a final metrics snapshot to stderr"),
		metricsEvery: fs.Duration("metrics-interval", 10*time.Second, "progress line interval under -metrics"),
		cpuProfile:   fs.String("cpuprofile", "", "write a CPU profile to this file"),
		memProfile:   fs.String("memprofile", "", "write a heap profile to this file on exit"),
		traceOut:     fs.String("trace", "", "write a timeline trace to this file (.jsonl = JSONL, else Chrome/Perfetto JSON)"),
		traceLevel:   fs.String("trace-level", "measure", "trace verbosity with -trace: off|measure|engine"),
		traceDet:     fs.Bool("trace-deterministic", false, "suppress wall-clock fields so same-seed runs produce byte-identical traces"),
		logLevel:     fs.String("log-level", "info", "structured event-log verbosity: debug|info|warn|error|off"),
		logFormat:    fs.String("log-format", "text", "live log line format on stderr: text|jsonl"),
		logPath:      fs.String("log", "", "write the deterministic event-log snapshot (JSONL) to this file on exit"),
	}
}

// Open wires the parsed flags in a fixed order — logger, tracer, runtime
// profiler, metrics — installing each as the process default, so networks,
// pools, measurers and sweeps self-wire. A bad flag value exits 2 and a
// profile that cannot start exits 1, like OpenCLI.
func (f *CLIFlags) Open() *CLI {
	c := OpenCLI(*f.logLevel, *f.logFormat, *f.logPath)
	if *f.traceOut != "" {
		lv, err := trace.ParseLevel(*f.traceLevel)
		if err != nil {
			c.Fatal(2, "trace-setup-failed", Err(err))
		}
		if tr := trace.New(trace.Options{Level: lv, Deterministic: *f.traceDet}); tr != nil {
			trace.Enable(tr)
			c.Tracer, c.tracePath = tr, *f.traceOut
		}
	}
	prof, err := StartRuntime(*f.cpuProfile, *f.memProfile)
	if err != nil {
		c.Fatal(1, "profile-setup-failed", Err(err))
	}
	c.prof = prof
	if *f.metrics {
		c.Metrics = metrics.NewRegistry()
		metrics.Enable(c.Metrics)
		c.progress = metrics.StartProgress(c.Metrics, os.Stderr, *f.metricsEvery)
	}
	return c
}

// OpenCLI builds the shared logging bundle from the flag values, installs the
// logger as the process default (constructors self-wire, like metrics and
// trace), and returns it. An unparseable level or format is reported on
// stderr and exits 2 — flag validation, not a runtime failure.
func OpenCLI(level, format, path string) *CLI {
	lg, err := NewCLI(level, format, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	Enable(lg)
	return &CLI{Logger: lg, Path: path}
}

// FlushTrace writes the -trace file (a no-op without -trace); a failed write
// is fatal, exit 1.
func (c *CLI) FlushTrace() {
	if c == nil || c.Tracer == nil {
		return
	}
	if err := c.Tracer.Snapshot().WriteFile(c.tracePath); err != nil {
		c.Fatal(1, "trace-write-failed", Err(err))
	}
}

// Close ends the run's telemetry: under -metrics it announces and prints the
// final snapshot and stops the progress lines, then it stops the runtime
// profiler and writes the event-log snapshot, whose error it returns.
func (c *CLI) Close() error {
	if c == nil {
		return nil
	}
	if c.progress != nil {
		c.Logger.Info("final-metrics-snapshot")
		_ = c.Metrics.WriteJSON(os.Stderr)
		c.progress.Stop()
		c.progress = nil
	}
	if err := c.prof.Stop(); err != nil {
		c.Logger.Error("profile-write-failed", Err(err))
	}
	return c.writeLog()
}

// writeLog writes the deterministic event-log snapshot to Path, when one was
// requested.
func (c *CLI) writeLog() error {
	if c == nil || c.Path == "" {
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
// is off, so fatal errors are never silent — then writes the event-log
// snapshot and exits with code.
func (c *CLI) Fatal(code int, msg string, fields ...Field) {
	if c != nil && c.Logger != nil {
		c.Logger.Error(msg, fields...)
	} else {
		fmt.Fprintln(os.Stderr, FormatLine(msg, fields...))
	}
	if err := c.writeLog(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	os.Exit(code)
}

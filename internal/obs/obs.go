// Package obs is the operator surface over the repository's telemetry:
// internal/metrics counts, internal/trace owns the one virtual-clock record
// (attribute, record, lane ring, sink, snapshot, wire codec), and obs adds
// what an operator watching a campaign needs on top — a leveled event log
// with a live sink and taps, a probe cost-attribution ledger, the HTTP
// dashboard that serves all of them, and the shared CLI flags. The event log is not a second recorder: it is a private trace sink
// whose records carry a severity, a scope is a lane of it, and a Field is a
// trace.Attr.
//
// Design constraints, in order (the same contract as internal/trace):
//
//   - Determinism. Recorded timestamps come from the engine's virtual clock —
//     never time.Now() — and every event carries a per-scope monotonic
//     sequence number. The deterministic artifact is the buffered Snapshot
//     (ordered by scope id, then seq); same-seed runs serialize it to
//     byte-identical JSONL at any -parallel/-lanes width, provided scopes are
//     created before any parallel fan-out (the sweepLanes convention). The
//     optional live sink is arrival-ordered and operator-facing only.
//   - Nil safety. A nil *Logger and a nil *Ledger no-op every method behind a
//     single branch, so call sites never guard — the trace-nilsafe lint rule
//     holds both to that, next to trace's own recorders.
//   - Zero dependencies. Standard library only, plus the repository's own
//     metrics/trace/types leaves, so every layer can import it.
//
// Typical wiring:
//
//	lg, _ := obs.NewCLI("info", "text", os.Stderr)
//	obs.Enable(lg)                      // measurers self-wire, like metrics
//	lg.Info("campaign-started", obs.Int("nodes", 30))
//	...
//	_ = lg.Snapshot().WriteJSONL(f)     // the deterministic artifact
package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"toposhot/internal/trace"
)

// Level orders event severities; events below a logger's level are dropped.
type Level uint8

const (
	// LevelDebug records everything, including per-batch progress events.
	LevelDebug Level = iota
	// LevelInfo is the CLI default: campaign lifecycle and phase summaries.
	LevelInfo
	// LevelWarn records anomalies (degraded phases).
	LevelWarn
	// LevelError records failures.
	LevelError
	// LevelOff records nothing; New returns a nil logger for it.
	LevelOff
)

// ParseLevel parses the -log-level flag values debug|info|warn|error|off.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return LevelDebug, nil
	case "info":
		return LevelInfo, nil
	case "warn":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	case "off":
		return LevelOff, nil
	}
	return LevelOff, fmt.Errorf("obs: unknown level %q (want debug|info|warn|error|off)", s)
}

// String renders the level as its flag spelling.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	}
	return "off"
}

// Format selects the live-sink rendering.
type Format uint8

const (
	// FormatText is the human logfmt-style line format (-log-format text).
	FormatText Format = iota
	// FormatJSONL renders each live event as one JSON line.
	FormatJSONL
)

// ParseFormat parses the -log-format flag values text|jsonl.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "text":
		return FormatText, nil
	case "jsonl":
		return FormatJSONL, nil
	}
	return FormatText, fmt.Errorf("obs: unknown format %q (want text|jsonl)", s)
}

// Field is one typed event attribute: the trace attribute, under the name
// the logging call sites use. Construct with String, Int, Float, Bool, or
// Err; the zero value is an empty string field.
type Field = trace.Attr

// String returns a string-valued field.
func String(key, v string) Field { return trace.String(key, v) }

// Int returns an integer-valued field.
func Int(key string, v int64) Field { return trace.Int(key, v) }

// Float returns a float-valued field.
func Float(key string, v float64) Field { return trace.Float(key, v) }

// Err returns the conventional "err" field for an error value.
func Err(err error) Field {
	if err == nil {
		return String("err", "")
	}
	return String("err", err.Error())
}

// Event is one log record as taps and the live sink see it: the trace record
// the scope's lane stored — Name is the message, Start the virtual-clock
// time, Level the severity, Seq the scope-local sequence number that gives
// events a strict, replayable order — plus the id of the scope it was
// recorded on.
type Event struct {
	Scope int
	trace.Record
}

// Options configures a logger.
type Options struct {
	// Level is the minimum severity recorded; LevelOff yields a nil logger.
	Level Level
	// Capacity is the per-scope ring size in events; 0 means
	// trace.DefaultCapacity. Long campaigns wrap and keep the most recent
	// window, counted in Dropped — deterministically, since each scope wraps
	// on its own stream.
	Capacity int
	// Live, when non-nil, receives every event as it happens, in arrival
	// order (non-deterministic under parallelism; operator-facing only).
	Live io.Writer
	// LiveFormat selects the live sink's rendering.
	LiveFormat Format
}

// live is the operator side every scope view of one logger shares: the level
// filter, the arrival-ordered live writer and the taps.
type live struct {
	level Level

	mu     sync.Mutex
	w      io.Writer
	format Format
	// taps is replaced, never written in place, by Tap and its cancel, so
	// emit can range over the slice it read after dropping the lock.
	taps []*func(Event)
}

// Logger is a scope view over the event log. The log itself is a private,
// deterministic trace sink — a scope is a lane of it, an event a trace record
// with a severity — and the Logger adds what only logging has: the level
// filter and the live side. The zero of its pointer type is the disabled
// logger: every method on a nil *Logger is a no-op behind one branch.
type Logger struct {
	lane *trace.Tracer
	name string
	live *live
}

// New returns a logger recording at the given level, viewing a fresh sink's
// root scope (id 0, "main"). A LevelOff logger is returned as nil, keeping
// the whole instrumentation tree on the zero-cost path.
func New(o Options) *Logger {
	if o.Level >= LevelOff {
		return nil
	}
	return &Logger{
		lane: trace.New(trace.Options{Level: trace.LevelMeasure, Deterministic: true, Capacity: o.Capacity}),
		name: "main",
		live: &live{level: o.Level, w: o.Live, format: o.LiveFormat},
	}
}

// NewCLI builds a logger from the shared -log-level/-log-format CLI flag
// values, with live lines on w (typically os.Stderr). Level "off" yields a
// nil logger, which no-ops everything.
func NewCLI(level, format string, w io.Writer) (*Logger, error) {
	lv, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	fm, err := ParseFormat(format)
	if err != nil {
		return nil, err
	}
	return New(Options{Level: lv, Live: w, LiveFormat: fm}), nil
}

// Scope creates a new recording track on the logger's sink and returns a
// view of it. Scope ids are assigned in creation order; create scopes before
// a parallel fan-out to keep ids (and therefore snapshot order)
// deterministic. The scope records time 0 until SetClock binds it. On a nil
// logger, Scope returns nil.
func (l *Logger) Scope(name string) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{lane: l.lane.Lane(name), name: name, live: l.live}
}

// SetClock binds the scope to a virtual clock (typically Network.Now). It
// should be set before recording; events recorded without a clock carry
// time 0.
func (l *Logger) SetClock(clock func() float64) {
	if l == nil {
		return
	}
	l.lane.SetClock(clock)
}

// ScopeName returns the name of the scope with the given id, or "".
func (l *Logger) ScopeName(id int) string {
	if l == nil {
		return ""
	}
	return l.lane.LaneName(id)
}

// Tap registers a live-event callback (SSE hubs) and returns its
// cancel function. Callbacks run synchronously on the emitting goroutine, in
// arrival order; they must not block. On a nil logger Tap returns a no-op
// cancel.
func (l *Logger) Tap(fn func(Event)) (cancel func()) {
	if l == nil || fn == nil {
		return func() {}
	}
	lv := l.live
	lv.mu.Lock()
	lv.taps = append(lv.taps[:len(lv.taps):len(lv.taps)], &fn) // capped: always a copy
	lv.mu.Unlock()
	return func() {
		lv.mu.Lock()
		defer lv.mu.Unlock()
		for i, t := range lv.taps {
			if t == &fn {
				lv.taps = append(lv.taps[:i:i], lv.taps[i+1:]...)
				return
			}
		}
	}
}

// Debug records an event at LevelDebug.
func (l *Logger) Debug(msg string, fields ...Field) { l.log(LevelDebug, msg, fields) }

// Info records an event at LevelInfo.
func (l *Logger) Info(msg string, fields ...Field) { l.log(LevelInfo, msg, fields) }

// Error records an event at LevelError.
func (l *Logger) Error(msg string, fields ...Field) { l.log(LevelError, msg, fields) }

func (l *Logger) log(lv Level, msg string, fields []Field) {
	if l == nil || lv < l.live.level {
		return
	}
	l.live.emit(l.name, Event{Scope: l.lane.ID(), Record: l.lane.Log(uint8(lv), msg, fields)})
}

// emit fans one event out to the live sink and the registered taps, in
// arrival order under one lock (operator path; never part of the
// deterministic artifact).
func (lv *live) emit(scopeName string, ev Event) {
	lv.mu.Lock()
	if lv.w != nil {
		if lv.format == FormatJSONL {
			writeEventJSON(lv.w, scopeName, &ev)
		} else {
			writeEventText(lv.w, scopeName, &ev.Record)
		}
	}
	taps := lv.taps
	lv.mu.Unlock()
	for _, fn := range taps {
		(*fn)(ev)
	}
}

// Log is a copied, exportable snapshot of the event log: scopes (lanes) in
// id order, events (records) in sequence order. Two same-seed runs produce
// identical Logs at any parallelism width when scopes were created before
// the fan-out.
type Log trace.Trace

// Snapshot copies the sink's current state. Safe to call while scopes are
// recording. Scopes with no events are omitted, so pre-created-but-unused
// scopes never perturb exports. A nil logger snapshots to an empty log.
func (l *Logger) Snapshot() *Log {
	if l == nil {
		return &Log{}
	}
	return (*Log)(l.lane.Live())
}

// enabled is the process-wide default logger consulted by subsystem
// constructors (core.NewMeasurer) when none was wired explicitly — the same
// auto-wiring convention as metrics.Enabled and trace.Enabled.
var enabled atomic.Pointer[Logger]

// Enable installs l as the process default logger. Constructors that run
// after this call wire themselves to it. Passing nil turns the default off.
func Enable(l *Logger) {
	if l == nil {
		enabled.Store(nil)
		return
	}
	enabled.Store(l)
}

// Enabled returns the process default logger, or nil when logging is off.
func Enabled() *Logger {
	return enabled.Load()
}

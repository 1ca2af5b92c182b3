package obs

import "sync"

// Watchdog consumes the live event stream and promotes one operational
// anomaly to a first-class warn event on its own scope: a phase that stops
// emitting while the rest of the stream moves on (stall).
//
// The judgement uses the timestamps the events themselves carry (virtual
// seconds under the engine, wall seconds under toposhotd's clock) — the
// watchdog itself never reads a clock, keeping it legal inside the
// nodeterminism lint scope.

// WatchdogConfig tunes the stall detector; the zero value disables it.
type WatchdogConfig struct {
	// StallAfter flags a scope once another scope's events show its clock
	// advanced this many seconds past the quiet scope's last event.
	StallAfter float64
}

// Watchdog state. One watchdog per campaign; attach with Watch.
type Watchdog struct {
	mu  sync.Mutex
	cfg WatchdogConfig
	lg  *Logger // the watchdog's own scope; nil-safe
	own int     // own scope id, excluded from stall accounting

	lastSeen     []float64 // last event time per scope id
	seen         []bool
	stallFlagged []bool
}

// MsgPhaseStalled is the message the watchdog emits.
const MsgPhaseStalled = "phase-stalled"

// NewWatchdog builds a watchdog reporting on a fresh "watchdog" scope of
// lg's sink. lg may be nil (stalls are then detected but unreported — useful
// only in tests).
func NewWatchdog(cfg WatchdogConfig, lg *Logger) *Watchdog {
	w := &Watchdog{cfg: cfg, own: -1}
	if lg != nil {
		// The watchdog's scope clock follows the stream it judges: stamp its
		// events with the latest time seen on any watched scope.
		w.lg = lg.Scope("watchdog", w.lastTime)
		w.own = w.lg.lane.ID()
	}
	return w
}

// Watch taps the logger's live stream; returns the tap's cancel.
func (w *Watchdog) Watch(lg *Logger) (cancel func()) {
	return lg.Tap(w.onEvent)
}

// lastTime returns the max event time seen across watched scopes.
func (w *Watchdog) lastTime() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var max float64
	for i, t := range w.lastSeen {
		if w.seen[i] && t > max {
			max = t
		}
	}
	return max
}

func (w *Watchdog) grow(id int) {
	for len(w.lastSeen) <= id {
		w.lastSeen = append(w.lastSeen, 0)
		w.seen = append(w.seen, false)
		w.stallFlagged = append(w.stallFlagged, false)
	}
}

// onEvent advances per-scope liveness and checks the stall detector: any
// scope whose last event is StallAfter behind the arriving event's clock is
// flagged once (and re-armed when it speaks again).
func (w *Watchdog) onEvent(e Event) {
	if e.Scope == w.own {
		return
	}
	type stall struct {
		id   int
		idle float64
	}
	var stalls []stall
	w.mu.Lock()
	w.grow(e.Scope)
	w.lastSeen[e.Scope] = e.Start
	w.seen[e.Scope] = true
	w.stallFlagged[e.Scope] = false
	if w.cfg.StallAfter > 0 {
		for id := range w.lastSeen {
			if id == e.Scope || id == w.own || !w.seen[id] || w.stallFlagged[id] {
				continue
			}
			if idle := e.Start - w.lastSeen[id]; idle > w.cfg.StallAfter {
				w.stallFlagged[id] = true
				stalls = append(stalls, stall{id: id, idle: idle})
			}
		}
	}
	w.mu.Unlock()
	for _, s := range stalls {
		w.lg.Warn(MsgPhaseStalled,
			String("stalled_scope", w.lg.ScopeName(s.id)),
			Int("scope_id", int64(s.id)),
			Float("idle_s", s.idle))
	}
}

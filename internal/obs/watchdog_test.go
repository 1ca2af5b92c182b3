package obs

import (
	"testing"

	"toposhot/internal/trace"
)

// watchdogEvents returns the messages recorded on the watchdog's own scope.
func watchdogEvents(t *testing.T, lg *Logger) []trace.Record {
	t.Helper()
	for _, sc := range lg.Snapshot().Lanes {
		if sc.Name == "watchdog" {
			return sc.Records
		}
	}
	return nil
}

func TestWatchdogStall(t *testing.T) {
	lg := New(Options{Level: LevelDebug})
	w := NewWatchdog(WatchdogConfig{StallAfter: 100}, lg)
	cancel := w.Watch(lg)
	defer cancel()
	slow := lg.Scope("slow-phase", nil)
	fast := lg.Scope("fast-phase", nil)
	tick := 0.0
	for _, sc := range []*Logger{slow, fast} {
		sc.SetClock(func() float64 { return tick })
	}
	tick = 1
	slow.Info("working")
	fast.Info("working")
	// fast keeps emitting; slow goes quiet for > StallAfter.
	tick = 50
	fast.Info("working")
	tick = 102
	fast.Info("working")
	evs := watchdogEvents(t, lg)
	if len(evs) != 1 || evs[0].Name != MsgPhaseStalled {
		t.Fatalf("watchdog events = %+v, want one %s", evs, MsgPhaseStalled)
	}
	if f, _ := evs[0].Attr("stalled_scope"); f.Value() != "slow-phase" {
		t.Fatalf("stalled scope = %v", f.Value())
	}
	// The stalled scope speaking re-arms; going quiet again re-fires.
	tick = 103
	slow.Info("back")
	tick = 205
	fast.Info("working")
	if evs := watchdogEvents(t, lg); len(evs) != 2 {
		t.Fatalf("re-armed stall should fire again, got %+v", evs)
	}
	// Watchdog events carry the latest stream time, not a wall clock.
	if evs := watchdogEvents(t, lg); evs[1].Start < 200 {
		t.Fatalf("watchdog clock = %g, want stream time", evs[1].Start)
	}
}

func TestWatchdogNilLogger(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{StallAfter: 1}, nil)
	w.onEvent(Event{Scope: 2, Record: trace.Record{Start: 100}})
	w.onEvent(Event{Scope: 3, Record: trace.Record{Start: 300}})
}

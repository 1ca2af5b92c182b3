package sim

import "testing"

// funcHandler adapts a func() to Handler for tests that only need ordering.
type funcHandler func()

func (f funcHandler) HandleEvent(uint64) { f() }

func TestEventOrdering(t *testing.T) {
	e := New(1)
	var order []int
	e.AtHandler(2.0, funcHandler(func() { order = append(order, 2) }), 0)
	e.AtHandler(1.0, funcHandler(func() { order = append(order, 1) }), 0)
	e.AtHandler(3.0, funcHandler(func() { order = append(order, 3) }), 0)
	drain(e)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 3.0 {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestFIFOAtSameTime(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.AtHandler(1.0, funcHandler(func() { order = append(order, i) }), 0)
	}
	drain(e)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestAfterRelative(t *testing.T) {
	e := New(1)
	var at float64
	e.AfterHandler(5, funcHandler(func() { at = e.Now() }), 0)
	drain(e)
	if at != 5 {
		t.Fatalf("fired at %v", at)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	e := New(1)
	e.AtHandler(10, funcHandler(func() {
		e.AtHandler(5, funcHandler(func() {
			if e.Now() < 10 {
				t.Error("clock went backwards")
			}
		}), 0)
	}), 0)
	drain(e)
}

func TestRunUntilLeavesFutureEvents(t *testing.T) {
	e := New(1)
	fired := 0
	e.AtHandler(1, funcHandler(func() { fired++ }), 0)
	e.AtHandler(5, funcHandler(func() { fired++ }), 0)
	e.RunUntil(2)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 2 {
		t.Fatalf("clock = %v, want 2", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.RunUntil(10)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// drain steps e until its queue is empty.
func drain(e *Engine) {
	for e.Step() {
	}
}

// TestRunBudgetStopsRunaway: a handler that reschedules itself forever is
// stopped by the run's horizon, after exactly the events due by then.
func TestRunBudgetStopsRunaway(t *testing.T) {
	e := New(1)
	var count int
	var loop funcHandler
	loop = func() {
		count++
		e.AfterHandler(1, loop, 0)
	}
	e.AfterHandler(1, loop, 0)
	e.RunUntil(100)
	if count != 100 {
		t.Fatalf("budget ignored: ran %d events", count)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := New(1)
	if e.Step() {
		t.Fatal("step on empty queue returned true")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		e := New(42)
		var out []float64
		for i := 0; i < 100; i++ {
			out = append(out, e.Jitter(0.05, 0.1, 3.0))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded runs diverged at %d", i)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	e := New(7)
	for i := 0; i < 10000; i++ {
		d := e.Jitter(0.05, 0.5, 1.0)
		if d < 0.05 || d > 1.0 {
			t.Fatalf("jitter %v out of [0.05, 1.0]", d)
		}
	}
}

func TestUniform(t *testing.T) {
	e := New(7)
	for i := 0; i < 1000; i++ {
		v := e.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("uniform %v out of range", v)
		}
	}
	if e.Uniform(3, 3) != 3 {
		t.Fatal("degenerate range should return lo")
	}
}

package sim

import (
	"math"
	"testing"
)

// recHandler records the (time, arg) sequence of every event it handles and
// can reschedule follow-up events to exercise the steady-state path.
type recHandler struct {
	eng   *Engine
	seen  []pair
	chain int // remaining self-rescheduled events
}

type pair struct {
	at  float64
	arg uint64
}

func (h *recHandler) HandleEvent(arg uint64) {
	h.seen = append(h.seen, pair{h.eng.Now(), arg})
	if h.chain > 0 {
		h.chain--
		d := h.eng.Jitter(0.01, 0.05, 1.0)
		h.eng.AtHandler(h.eng.Now()+d, h, arg+1000)
	}
}

// TestSnapshotRestore checkpoints an engine mid-run and verifies that a
// fresh same-seed engine restored from the snapshot replays the remainder
// byte-identically, including subsequent RNG draws.
func TestSnapshotRestore(t *testing.T) {
	build := func() (*Engine, *recHandler) {
		e := New(99)
		h := &recHandler{eng: e, chain: 120}
		for i := 0; i < 32; i++ {
			e.AtHandler(e.Uniform(0, 1), h, uint64(i))
		}
		return e, h
	}

	// Uninterrupted reference run.
	ref, refH := build()
	drain(ref)
	refTail := make([]float64, 8)
	for i := range refTail {
		refTail[i] = ref.Uniform(0, 1)
	}

	// Interrupted run: stop partway, snapshot, restore into a fresh engine.
	a, aH := build()
	for i := 0; i < 50; i++ {
		if !a.Step() {
			t.Fatal("ran dry before checkpoint point")
		}
	}
	events, err := a.SnapshotEvents(aH)
	if err != nil {
		t.Fatalf("SnapshotEvents: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no pending events at checkpoint; test needs a mid-run snapshot")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("events not sorted by seq: %d after %d", events[i].Seq, events[i-1].Seq)
		}
	}

	b := New(99)
	bH := &recHandler{eng: b, chain: aH.chain}
	if err := b.RestoreState(a.Now(), a.seq, a.RandDraws(), bH, events); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if b.Now() != a.Now() {
		t.Fatalf("restored Now = %v, want %v", b.Now(), a.Now())
	}
	if b.Pending() != a.Pending() {
		t.Fatalf("restored Pending = %d, want %d", b.Pending(), a.Pending())
	}
	drain(b)

	combined := append(append([]pair{}, aH.seen...), bH.seen...)
	if len(combined) != len(refH.seen) {
		t.Fatalf("interrupted run executed %d events, want %d", len(combined), len(refH.seen))
	}
	for i := range refH.seen {
		if combined[i] != refH.seen[i] {
			t.Fatalf("event %d = %+v, want %+v", i, combined[i], refH.seen[i])
		}
	}
	for i := range refTail {
		got := b.Uniform(0, 1)
		if math.Abs(got-refTail[i]) != 0 {
			t.Fatalf("post-run draw %d = %v, want %v", i, got, refTail[i])
		}
	}
}

// TestSnapshotErrors pins the unserializable cases: events for a foreign
// handler, and restoring onto a used engine.
func TestSnapshotErrors(t *testing.T) {
	h := &recHandler{}

	e2 := New(1)
	other := &recHandler{}
	e2.AtHandler(1, other, 0)
	if _, err := e2.SnapshotEvents(h); err != ErrForeignHandler {
		t.Fatalf("foreign snapshot err = %v, want ErrForeignHandler", err)
	}

	e3 := New(1)
	e3.AtHandler(1, h, 0)
	if err := e3.RestoreState(0, 0, 0, h, nil); err != ErrNotFresh {
		t.Fatalf("used-engine restore err = %v, want ErrNotFresh", err)
	}

	// States no engine produces: a negative or NaN clock, an event left
	// behind the clock or at NaN, a sequence number not yet issued.
	for name, c := range map[string]struct {
		now float64
		rec EventRecord
	}{
		"negative clock":     {now: -1, rec: EventRecord{At: 1, Seq: 1}},
		"NaN clock":          {now: math.NaN(), rec: EventRecord{At: 1, Seq: 1}},
		"event before clock": {now: 5, rec: EventRecord{At: 4.999, Seq: 1}},
		"event at NaN":       {now: 5, rec: EventRecord{At: math.NaN(), Seq: 1}},
		"seq out of range":   {now: 5, rec: EventRecord{At: 6, Seq: 3}},
	} {
		if err := New(1).RestoreState(c.now, 2, 0, h, []EventRecord{c.rec}); err == nil {
			t.Errorf("%s: RestoreState accepted it", name)
		}
	}
}

// TestRandDraws verifies the draw counter tracks every consuming method.
func TestRandDraws(t *testing.T) {
	e := New(5)
	if e.RandDraws() != 0 {
		t.Fatalf("fresh RandDraws = %d, want 0", e.RandDraws())
	}
	e.Uniform(0, 1)
	e.Jitter(0.1, 0.2, 1)
	e.PermInto(nil, 10)
	n := e.RandDraws()
	if n == 0 {
		t.Fatal("RandDraws did not advance")
	}

	// A same-seed engine fast-forwarded by n draws produces identical output.
	e2 := New(5)
	if err := e2.RestoreState(0, 0, n, nil, nil); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	for i := 0; i < 16; i++ {
		a, b := e.Uniform(0, 1), e2.Uniform(0, 1)
		if a != b {
			t.Fatalf("draw %d: %v != %v after fast-forward", i, a, b)
		}
	}
}

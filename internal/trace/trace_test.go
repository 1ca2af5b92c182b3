package trace

import (
	"bytes"
	"strings"
	"testing"
)

// Span-name constants: the trace-spanname lint rule applies to tests too.
const (
	tsOuter  = "outer"
	tsInner  = "inner"
	tsLeaf   = "leaf"
	tsTick   = "tick"
	tsSolo   = "solo"
	tsFiller = "filler"
)

// fakeClock is a settable virtual clock for tests.
type fakeClock struct{ t float64 }

func (c *fakeClock) now() float64 { return c.t }

func newTestTracer(t *testing.T, o Options) (*Tracer, *fakeClock) {
	t.Helper()
	c := &fakeClock{}
	tr := New(o)
	if tr == nil {
		t.Fatalf("New(%+v) = nil", o)
	}
	tr.SetClock(c.now)
	return tr, c
}

func TestNilTracerNoops(t *testing.T) {
	var tr *Tracer
	if tr.Enabled(LevelMeasure) {
		t.Error("nil tracer reports enabled")
	}
	if tr.Deterministic() {
		t.Error("nil tracer reports deterministic")
	}
	if tr.Lane(tsSolo) != nil {
		t.Error("nil tracer Lane != nil")
	}
	tr.SetClock(func() float64 { return 1 })
	sp := tr.StartSpan(tsOuter, Int("a", 1))
	sp.SetAttr(Bool("ok", true))
	sp.End()
	tr.Event(tsTick)
	snap := tr.Snapshot()
	if len(snap.Lanes) != 0 {
		t.Errorf("nil tracer snapshot has %d lanes, want 0", len(snap.Lanes))
	}
}

func TestNewOffIsNil(t *testing.T) {
	if tr := New(Options{Level: LevelOff}); tr != nil {
		t.Fatalf("New(off) = %v, want nil", tr)
	}
}

func TestParseLevelRoundTrip(t *testing.T) {
	for _, l := range []Level{LevelOff, LevelMeasure, LevelEngine} {
		got, err := ParseLevel(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", l.String(), got, err, l)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Error("ParseLevel(verbose) succeeded, want error")
	}
}

func TestSpanNestingAndAttrs(t *testing.T) {
	tr, c := newTestTracer(t, Options{Level: LevelMeasure, Deterministic: true})
	c.t = 1.0
	outer := tr.StartSpan(tsOuter, Int("pair", 7))
	c.t = 2.0
	inner := tr.StartSpan(tsInner)
	tr.Event(tsTick, Float("x", 0.5))
	c.t = 3.0
	inner.End()
	outer.SetAttr(Bool("detected", true))
	outer.SetAttr(Int("pair", 8)) // overwrite
	c.t = 4.0
	outer.End()
	outer.End() // double End is a no-op
	inner.SetAttr(Int("late", 1))

	snap := tr.Snapshot()
	if len(snap.Lanes) != 1 {
		t.Fatalf("got %d lanes, want 1", len(snap.Lanes))
	}
	recs := snap.Lanes[0].Records
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3: %+v", len(recs), recs)
	}
	// Records sort by Seq: outer(1), inner(2), tick(3).
	if recs[0].Name != tsOuter || recs[1].Name != tsInner || recs[2].Name != tsTick {
		t.Fatalf("record order %q %q %q", recs[0].Name, recs[1].Name, recs[2].Name)
	}
	o, i, e := recs[0], recs[1], recs[2]
	if o.Start != 1.0 || o.End != 4.0 || o.Parent != 0 {
		t.Errorf("outer = %+v", o)
	}
	if i.Start != 2.0 || i.End != 3.0 || i.Parent != o.ID {
		t.Errorf("inner = %+v (outer id %d)", i, o.ID)
	}
	if e.Kind != KindEvent || e.Start != 2.0 || e.Parent != i.ID {
		t.Errorf("event = %+v (inner id %d)", e, i.ID)
	}
	if a, ok := o.Attr("pair"); !ok || a.Value() != int64(8) {
		t.Errorf("outer pair attr = %v, %v; want 8", a.Value(), ok)
	}
	if a, ok := o.Attr("detected"); !ok || a.Value() != true {
		t.Errorf("outer detected attr = %v, %v; want true", a.Value(), ok)
	}
	if _, ok := i.Attr("late"); ok {
		t.Error("SetAttr after End mutated the record")
	}
	if o.WallNs != 0 || i.WallNs != 0 {
		t.Errorf("deterministic mode recorded wall time: %d %d", o.WallNs, i.WallNs)
	}
}

func TestEndForceClosesChildren(t *testing.T) {
	tr, c := newTestTracer(t, Options{Level: LevelMeasure, Deterministic: true})
	outer := tr.StartSpan(tsOuter)
	tr.StartSpan(tsInner) // never explicitly ended
	c.t = 5.0
	outer.End()
	recs := tr.Snapshot().Lanes[0].Records
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	for _, r := range recs {
		if r.Open {
			t.Errorf("%s still open after outer End", r.Name)
		}
		if r.End != 5.0 {
			t.Errorf("%s End = %v, want 5", r.Name, r.End)
		}
	}
}

func TestRingWrapCountsDropped(t *testing.T) {
	tr, _ := newTestTracer(t, Options{Level: LevelMeasure, Deterministic: true, Capacity: 4})
	for i := 0; i < 10; i++ {
		tr.Event(tsTick, Int("i", int64(i)))
	}
	l := tr.Snapshot().Lanes[0]
	if l.Dropped != 6 {
		t.Errorf("dropped = %d, want 6", l.Dropped)
	}
	if len(l.Records) != 4 {
		t.Fatalf("got %d records, want 4", len(l.Records))
	}
	if a, _ := l.Records[0].Attr("i"); a.Value() != int64(6) {
		t.Errorf("oldest surviving record i = %v, want 6", a.Value())
	}
	if a, _ := l.Records[3].Attr("i"); a.Value() != int64(9) {
		t.Errorf("newest record i = %v, want 9", a.Value())
	}
}

// TestRingGrowsToCapacity: a lane pays for the records it holds, not for its
// capacity — lanes are pre-created one per region or sweep row and most stay
// short or empty — and the window is right at every length on the way up to
// the capacity, at it, and past it.
func TestRingGrowsToCapacity(t *testing.T) {
	tr, _ := newTestTracer(t, Options{Level: LevelMeasure, Deterministic: true, Capacity: 5})
	idle := tr.Lane(tsSolo)
	for i := 1; i <= 12; i++ {
		tr.Event(tsTick, Int("i", int64(i)))
		l := tr.Snapshot().Lanes[0]
		want, dropped := i, 0
		if i > 5 {
			want, dropped = 5, i-5
		}
		if len(l.Records) != want || l.Dropped != uint64(dropped) || len(tr.l.ring) != want {
			t.Fatalf("after %d events: %d records, %d dropped, ring of %d; want %d, %d, %d",
				i, len(l.Records), l.Dropped, len(tr.l.ring), want, dropped, want)
		}
		for j, r := range l.Records {
			if a, _ := r.Attr("i"); a.Value() != int64(i-want+1+j) {
				t.Fatalf("after %d events: record %d holds i=%v, want %d", i, j, a.Value(), i-want+1+j)
			}
		}
	}
	if idle.l.ring != nil {
		t.Errorf("an unused lane holds a ring of %d", cap(idle.l.ring))
	}
}

// TestLogCarriesLevelAndReturnsTheRecord: Log is Event with a severity, and
// hands back exactly what it stored (the obs live sink renders that copy).
func TestLogCarriesLevelAndReturnsTheRecord(t *testing.T) {
	tr, c := newTestTracer(t, Options{Level: LevelMeasure, Deterministic: true})
	lane := tr.Lane(tsSolo)
	lane.SetClock(c.now)
	c.t = 2.5
	sp := lane.StartSpan(tsOuter)
	got := lane.Log(3, "built at run time", []Attr{Int("n", 7), Int("n", 8)})
	lane.Event(tsTick)
	sp.End()
	recs := tr.Snapshot().Lanes[0].Records
	if len(recs) != 3 || recs[1] != got {
		t.Fatalf("stored %+v, returned %+v", recs, got)
	}
	if got.Kind != KindEvent || got.Level != 3 || got.Seq != 2 || got.Parent != recs[0].ID ||
		got.Start != 2.5 || got.End != 2.5 || got.NAttrs != 1 {
		t.Errorf("log record = %+v", got)
	}
	if recs[2].Level != 0 || recs[0].Level != 0 {
		t.Errorf("spans and plain events must carry level 0: %+v", recs)
	}
	if lane.ID() != 1 || tr.ID() != 0 || tr.LaneName(1) != tsSolo || tr.LaneName(2) != "" || tr.LaneName(-1) != "" {
		t.Errorf("lane ids/names: %d %d %q", lane.ID(), tr.ID(), tr.LaneName(1))
	}
	var off *Tracer
	if off.Log(1, "x", nil) != (Record{}) || off.ID() != -1 || off.LaneName(0) != "" {
		t.Error("nil tracer Log/ID/LaneName must no-op")
	}
}

func TestMaxAttrsDropsExtras(t *testing.T) {
	tr, _ := newTestTracer(t, Options{Level: LevelMeasure, Deterministic: true})
	attrs := make([]Attr, MaxAttrs+3)
	for i := range attrs {
		attrs[i] = Int(strings.Repeat("k", i+1), int64(i))
	}
	tr.Event(tsTick, attrs...)
	r := tr.Snapshot().Lanes[0].Records[0]
	if r.NAttrs != MaxAttrs {
		t.Errorf("NAttrs = %d, want %d", r.NAttrs, MaxAttrs)
	}
}

func TestLanesAndOpenSnapshots(t *testing.T) {
	tr, c := newTestTracer(t, Options{Level: LevelMeasure, Deterministic: true})
	c2 := &fakeClock{t: 10}
	l2 := tr.Lane(tsSolo)
	l2.SetClock(c2.now)
	unused := tr.Lane(tsFiller)
	_ = unused // empty lanes are omitted from snapshots

	c.t = 1
	sp := tr.StartSpan(tsOuter)
	l2.Event(tsTick)
	c.t = 3

	snap := tr.Snapshot()
	if len(snap.Lanes) != 2 {
		t.Fatalf("got %d lanes, want 2 (empty lane omitted)", len(snap.Lanes))
	}
	if snap.Lanes[0].ID != 0 || snap.Lanes[1].ID != 1 {
		t.Errorf("lane ids %d,%d; want 0,1", snap.Lanes[0].ID, snap.Lanes[1].ID)
	}
	main := snap.Lanes[0]
	if len(main.Records) != 1 || !main.Records[0].Open {
		t.Fatalf("main lane records = %+v, want one open span", main.Records)
	}
	if main.Records[0].End != 3 {
		t.Errorf("open span End = %v, want lane now 3", main.Records[0].End)
	}
	if snap.Lanes[1].Name != tsSolo || snap.Lanes[1].Now != 10 {
		t.Errorf("lane 1 = %q now %v", snap.Lanes[1].Name, snap.Lanes[1].Now)
	}
	sp.End()
	recs := tr.Snapshot().Lanes[0].Records
	if len(recs) != 1 || recs[0].Open {
		t.Errorf("after End: %+v", recs)
	}
}

func TestWallClockCapturedWhenNotDeterministic(t *testing.T) {
	tr, _ := newTestTracer(t, Options{Level: LevelMeasure})
	sp := tr.StartSpan(tsOuter)
	sp.End()
	r := tr.Snapshot().Lanes[0].Records[0]
	if r.WallNs <= 0 {
		t.Errorf("WallNs = %d, want > 0 outside deterministic mode", r.WallNs)
	}
}

func TestEnableDefault(t *testing.T) {
	defer Enable(nil)
	if Enabled() != nil {
		t.Fatal("default tracer set before Enable")
	}
	tr, _ := newTestTracer(t, Options{Level: LevelEngine})
	Enable(tr)
	if Enabled() != tr {
		t.Error("Enabled() did not return the installed tracer")
	}
	Enable(nil)
	if Enabled() != nil {
		t.Error("Enable(nil) did not clear the default")
	}
}

func TestSnapshotDeterministicAcrossIdenticalRuns(t *testing.T) {
	run := func() []byte {
		tr, c := newTestTracer(t, Options{Level: LevelMeasure, Deterministic: true})
		for i := 0; i < 5; i++ {
			c.t = float64(i)
			sp := tr.StartSpan(tsOuter, Int("i", int64(i)))
			inner := tr.StartSpan(tsInner)
			c.t += 0.5
			inner.End()
			sp.End()
		}
		var buf bytes.Buffer
		if err := tr.Snapshot().WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("same-seed JSONL differs:\n%s\n---\n%s", a, b)
	}
}

func TestProgressReport(t *testing.T) {
	tr, c := newTestTracer(t, Options{Level: LevelMeasure, Deterministic: true})
	// Two completed "leaf" spans of 2s each.
	for i := 0; i < 2; i++ {
		sp := tr.StartSpan(tsLeaf)
		c.t += 2
		sp.End()
	}
	// An open span that is 3 of 9 done, 6s elapsed -> ETA 12s.
	sp := tr.StartSpan(tsOuter, Int(AttrDone, 3), Int(AttrTotal, 9))
	c.t += 6
	// An open span with total only -> ETA from leaf mean: 2s * 4 = 8s.
	sp2 := tr.StartSpan(tsLeaf, Int(AttrTotal, 4))

	rep := tr.Snapshot().Progress()
	if len(rep.Phases) != 1 || rep.Phases[0].Name != tsLeaf {
		t.Fatalf("phases = %+v", rep.Phases)
	}
	if ph := rep.Phases[0]; ph.Count != 2 || ph.MeanVirtual != 2 {
		t.Errorf("leaf phase = %+v", ph)
	}
	if len(rep.Open) != 2 {
		t.Fatalf("open = %+v", rep.Open)
	}
	if got := rep.Open[0]; got.Name != tsOuter || got.ETA != 12 {
		t.Errorf("rate ETA = %+v, want 12", got)
	}
	if got := rep.Open[1]; got.Name != tsLeaf || got.ETA != 8 {
		t.Errorf("mean ETA = %+v, want 8", got)
	}
	sp2.End()
	sp.End()
}

// Package trace is the repository's timeline observability subsystem: a
// dependency-free, deterministic tracer of virtual-clock spans and point
// events, exportable as Chrome/Perfetto JSON or stream-friendly JSONL.
//
// Where internal/metrics answers "how many / how much", trace answers "where
// did the time inside one measurement go, and why was this pair decided the
// way it was" — the phase attribution the paper uses to tune X and Z
// (Table 3, Appendix B).
//
// Design constraints, in order:
//
//   - Determinism. Recorded timestamps are the simulation engine's virtual
//     clock plus a per-lane monotonic sequence number — never time.Now().
//     Wall-clock span durations are captured separately, inside this package
//     (the only place the nodeterminism lint permits), for perf attribution;
//     deterministic mode excludes them from exports, so same-seed runs
//     produce byte-identical trace files.
//   - Hot-path safety. A nil *Tracer no-ops every method behind a single
//     branch — the disabled path allocates nothing. The enabled path writes
//     into a per-lane ring buffer with attrs copied into fixed-size arrays.
//     The ring grows by append up to Options.Capacity and wraps from there
//     (lanes are pre-created one per region or sweep row and most stay short
//     or empty, so none is paid for up front); once full, recording does not
//     grow the heap. The ring is a flight recorder: when a campaign outgrows
//     it, the oldest records drop (counted in Dropped) — deterministically,
//     because each lane wraps on its own stream.
//   - Concurrent lanes. A Tracer is a lane view over a shared sink. Each lane
//     is confined to one goroutine (the engine-per-goroutine model of
//     DESIGN.md §7) but guarded by a mutex so live HTTP snapshots can read a
//     lane mid-run (through Live, which calls no clock: the clock is the
//     engine's and unsynchronized). Lanes created before a parallel fan-out
//     get deterministic ids regardless of scheduling.
//
// The record defined here is the repository's one virtual-clock record. The
// obs event log is a second, private sink of this package: its scopes are
// lanes, its events records written by Log with a severity in Record.Level,
// and its JSONL codec is built from the pieces jsonl.go exports.
//
// Typical wiring:
//
//	tr := trace.New(trace.Options{Level: trace.LevelMeasure})
//	trace.Enable(tr)            // constructors self-wire, like metrics
//	...
//	span := tr.StartSpan("measure-one-link", trace.Int("a", 1))
//	...
//	span.SetAttr(trace.Bool("detected", ok))
//	span.End()
//	_ = tr.Snapshot().WriteChromeJSON(f) // load in ui.perfetto.dev
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Level selects how much the tracer records.
type Level uint8

const (
	// LevelOff records nothing.
	LevelOff Level = iota
	// LevelMeasure records measurement-layer spans: MeasureOneLink phases,
	// MeasurePar rounds, census and sweep timelines.
	LevelMeasure
	// LevelEngine additionally records simulator events: message
	// enqueue/deliver, evictions, replacement accept/reject. Orders of
	// magnitude more records than LevelMeasure.
	LevelEngine
)

// ParseLevel parses the -trace-level flag values off|measure|engine.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "off":
		return LevelOff, nil
	case "measure":
		return LevelMeasure, nil
	case "engine":
		return LevelEngine, nil
	}
	return LevelOff, fmt.Errorf("trace: unknown level %q (want off|measure|engine)", s)
}

// String renders the level as its flag spelling.
func (l Level) String() string {
	switch l {
	case LevelMeasure:
		return "measure"
	case LevelEngine:
		return "engine"
	}
	return "off"
}

// attrKind discriminates Attr payloads.
type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrFloat
	attrBool
)

// Attr is one typed span/event attribute. Construct with String, Int, Float,
// or Bool; the zero value is an empty string attribute.
type Attr struct {
	Key  string
	kind attrKind
	str  string
	num  int64
	f    float64
}

// String returns a string-valued attribute.
func String(key, v string) Attr { return Attr{Key: key, kind: attrString, str: v} }

// Int returns an integer-valued attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, kind: attrInt, num: v} }

// Float returns a float-valued attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, kind: attrFloat, f: v} }

// Bool returns a boolean attribute.
func Bool(key string, v bool) Attr {
	var n int64
	if v {
		n = 1
	}
	return Attr{Key: key, kind: attrBool, num: n}
}

// Value returns the attribute's payload as an interface value (for export).
func (a Attr) Value() interface{} {
	switch a.kind {
	case attrInt:
		return a.num
	case attrFloat:
		return a.f
	case attrBool:
		return a.num != 0
	}
	return a.str
}

// MaxAttrs bounds the attributes carried per record; extras are dropped
// silently. Eight covers every call site in the repository (the tracking
// tick-done log event carries seven).
const MaxAttrs = 8

// RecordKind discriminates ring records.
type RecordKind uint8

const (
	// KindSpan is a completed (or still-open, in snapshots) span.
	KindSpan RecordKind = iota
	// KindEvent is a point event.
	KindEvent
)

// Record is one trace record as it sits in a lane's ring and in snapshots.
// Start/End are virtual-clock seconds; Seq is the lane-local monotonic
// sequence number assigned when the span/event started — together they give
// recorded timestamps a strict, replayable total order. WallNs is the span's
// wall-clock duration (perf attribution only; zero in deterministic mode and
// excluded from exports there). Level is the severity of a record made by
// Log (internal/obs owns the scale); spans and plain events carry 0.
type Record struct {
	Kind   RecordKind
	Level  uint8
	Name   string
	ID     uint64 // span id, lane-local, 1-based; events share the space
	Parent uint64 // enclosing span id, 0 = lane root
	Seq    uint64
	Start  float64
	End    float64
	WallNs int64
	Open   bool // true in snapshots for spans not yet ended
	NAttrs int
	Attrs  [MaxAttrs]Attr
}

// AttrList returns the record's attributes as a slice view.
func (r *Record) AttrList() []Attr { return r.Attrs[:r.NAttrs] }

// Attr returns the attribute with the given key, or false.
func (r *Record) Attr(key string) (Attr, bool) {
	for i := 0; i < r.NAttrs; i++ {
		if r.Attrs[i].Key == key {
			return r.Attrs[i], true
		}
	}
	return Attr{}, false
}

// Set inserts the attribute, overwriting one with the same key; past
// MaxAttrs distinct keys it is dropped.
func (r *Record) Set(a Attr) {
	for i := 0; i < r.NAttrs; i++ {
		if r.Attrs[i].Key == a.Key {
			r.Attrs[i] = a
			return
		}
	}
	if r.NAttrs < MaxAttrs {
		r.Attrs[r.NAttrs] = a
		r.NAttrs++
	}
}

// Options configures a tracer.
type Options struct {
	// Level selects what is recorded; LevelOff records nothing.
	Level Level
	// Deterministic excludes wall-clock fields from recording and export, so
	// same-seed runs produce byte-identical trace files.
	Deterministic bool
	// Capacity is the per-lane ring size in records; 0 means DefaultCapacity.
	Capacity int
}

// DefaultCapacity is the per-lane ring size (records) when Options.Capacity
// is zero: enough for a small census at LevelMeasure; longer campaigns wrap
// and keep the most recent window.
const DefaultCapacity = 8192

// sink is the shared state behind a tracer's lane views.
type sink struct {
	level Level
	det   bool
	cap   int

	mu    sync.Mutex
	lanes []*lane // a lane's id is its index
}

// lane is one recording track. All mutation happens under mu so live
// snapshots can read a lane another goroutine is writing.
type lane struct {
	mu    sync.Mutex
	id    int
	name  string
	clock func() float64
	last  float64 // the clock's latest reading, for Live

	ring    []Record // grows by append to cap records, then wraps
	cap     int
	dropped uint64 // records overwritten since the ring filled

	seq   uint64 // records ever started; a record's Seq and its ID
	open  []openSpan
	free  []int32
	stack []int32 // open-span slots, innermost last
}

// openSpan is a started, not-yet-ended span in a lane's slab: the record as
// far as it is known, with End and WallNs filled in when the span closes.
type openSpan struct {
	rec       Record
	wallStart int64
	gen       uint32
}

// Tracer is a lane view over a shared trace sink. The zero of its pointer
// type is the disabled tracer: every method on a nil *Tracer is a no-op
// behind one branch, so call sites never guard — the trace-nilsafe lint rule
// enforces exactly that.
type Tracer struct {
	s *sink
	l *lane
}

// New returns a tracer recording at the given level, viewing a fresh sink's
// root lane (id 0, "main"). A LevelOff tracer is returned as nil, so the
// whole instrumentation tree stays on the zero-cost path.
func New(o Options) *Tracer {
	if o.Level == LevelOff {
		return nil
	}
	if o.Capacity <= 0 {
		o.Capacity = DefaultCapacity
	}
	s := &sink{level: o.Level, det: o.Deterministic, cap: o.Capacity}
	return s.newLane("main", nil)
}

func (s *sink) newLane(name string, clock func() float64) *Tracer {
	s.mu.Lock()
	l := &lane{id: len(s.lanes), name: name, clock: clock, cap: s.cap}
	s.lanes = append(s.lanes, l)
	s.mu.Unlock()
	return &Tracer{s: s, l: l}
}

// Lane creates a new recording track on the tracer's sink and returns a view
// of it. Lane ids are assigned in creation order; create lanes before a
// parallel fan-out to keep ids (and therefore exports) deterministic. clock
// supplies the lane's virtual time; nil records zeros until SetClock. On a
// nil tracer, Lane returns nil.
func (t *Tracer) Lane(name string, clock func() float64) *Tracer {
	if t == nil {
		return nil
	}
	return t.s.newLane(name, clock)
}

// SetClock binds the lane to a virtual clock (typically Network.Now). It
// must be set before recording; records made without a clock carry time 0.
func (t *Tracer) SetClock(clock func() float64) {
	if t == nil {
		return
	}
	t.l.mu.Lock()
	t.l.clock = clock
	t.l.mu.Unlock()
}

// Level returns the recording level; LevelOff on a nil tracer.
func (t *Tracer) Level() Level {
	if t == nil {
		return LevelOff
	}
	return t.s.level
}

// Enabled reports whether records at the given level are kept.
func (t *Tracer) Enabled(l Level) bool {
	return t != nil && l != LevelOff && t.s.level >= l
}

// Deterministic reports whether wall-clock capture is suppressed.
func (t *Tracer) Deterministic() bool {
	return t != nil && t.s.det
}

// now reads the lane's clock. The clock belongs to the recording goroutine —
// an engine's virtual time is not synchronized — so only that goroutine, or
// one that knows recording has stopped, may get here.
func (l *lane) now() float64 {
	l.last = 0
	if l.clock != nil {
		l.last = l.clock()
	}
	return l.last
}

// push returns the ring slot for the next record: a fresh one while the ring
// is below capacity, the oldest record's once it is full.
func (l *lane) push() *Record {
	if len(l.ring) < l.cap {
		l.ring = append(l.ring, Record{})
		return &l.ring[len(l.ring)-1]
	}
	l.dropped++
	return &l.ring[(l.dropped-1)%uint64(l.cap)]
}

// Span is a handle to a started span. The zero value (returned by a nil or
// off tracer) no-ops every method. A span must be ended on the goroutine of
// the lane that started it.
type Span struct {
	l    *lane
	det  bool
	slot int32
	gen  uint32
}

// StartSpan opens a span named name with the given attributes and returns
// its handle. Spans nest by call order within a lane: the innermost open
// span is the parent of the next. name must be a package-level constant —
// the trace-spanname lint rule keeps the name table stable and exports
// diffable.
func (t *Tracer) StartSpan(name string, attrs ...Attr) Span {
	if t == nil {
		return Span{}
	}
	l := t.l
	l.mu.Lock()
	var slot int32
	if k := len(l.free); k > 0 {
		slot = l.free[k-1]
		l.free = l.free[:k-1]
	} else {
		l.open = append(l.open, openSpan{})
		slot = int32(len(l.open) - 1)
	}
	o := &l.open[slot]
	gen := o.gen + 1
	*o = openSpan{gen: gen}
	l.begin(&o.rec, KindSpan, name, attrs)
	if !t.s.det {
		o.wallStart = time.Now().UnixNano()
	}
	l.stack = append(l.stack, slot)
	l.mu.Unlock()
	return Span{l: l, det: t.s.det, slot: slot, gen: gen}
}

// begin fills a zeroed record's identity: the next sequence number and id,
// the innermost open span as parent, the lane clock's now, the attributes.
func (l *lane) begin(r *Record, kind RecordKind, name string, attrs []Attr) {
	l.seq++
	r.Kind, r.Name, r.ID, r.Seq, r.Start = kind, name, l.seq, l.seq, l.now()
	if k := len(l.stack); k > 0 {
		r.Parent = l.open[l.stack[k-1]].rec.ID
	}
	for _, a := range attrs {
		r.Set(a)
	}
}

// live returns the span's slab entry while the span is open, else nil. The
// caller holds the lane lock.
func (s Span) live() *openSpan {
	if o := &s.l.open[s.slot]; o.gen == s.gen && o.rec.Name != "" {
		return o
	}
	return nil
}

// ID returns the span's lane-scoped record id — the cross-link key other
// streams (the obs event log) carry to tie their records to this span. It
// returns 0 on the zero Span and after the span has ended; capture it while
// the span is open.
func (s Span) ID() uint64 {
	if s.l == nil {
		return 0
	}
	var id uint64
	s.l.mu.Lock()
	if o := s.live(); o != nil {
		id = o.rec.ID
	}
	s.l.mu.Unlock()
	return id
}

// SetAttr adds or overwrites an attribute on the open span. Calling it after
// End is a no-op.
func (s Span) SetAttr(a Attr) {
	if s.l == nil {
		return
	}
	s.l.mu.Lock()
	if o := s.live(); o != nil {
		o.rec.Set(a)
	}
	s.l.mu.Unlock()
}

// End closes the span, writing its record to the lane's ring. Ending twice
// is a no-op. Spans should end innermost-first; ending an outer span first
// force-closes the inner ones still open (they keep their own records).
func (s Span) End() {
	if s.l == nil {
		return
	}
	l := s.l
	l.mu.Lock()
	if s.live() == nil {
		l.mu.Unlock()
		return
	}
	// Pop the stack down to (and including) this span, closing any children
	// left open — a leniency that keeps early-return call sites correct.
	for k := len(l.stack) - 1; k >= 0; k-- {
		top := l.stack[k]
		l.stack = l.stack[:k]
		l.closeSlot(top, s.det)
		if top == s.slot {
			break
		}
	}
	l.mu.Unlock()
}

// closeSlot finalizes one open slot into a ring record and recycles it.
func (l *lane) closeSlot(slot int32, det bool) {
	o := &l.open[slot]
	r := l.push()
	*r = o.rec
	r.End = l.now()
	if !det && o.wallStart != 0 {
		r.WallNs = time.Now().UnixNano() - o.wallStart
	}
	o.rec.Name = ""
	l.free = append(l.free, slot)
}

// Event records a point event under the innermost open span. name must be a
// package-level constant (trace-spanname lint rule).
func (t *Tracer) Event(name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.l.mu.Lock()
	t.l.event(0, name, attrs)
	t.l.mu.Unlock()
}

// Log records a point event that carries a severity and returns a copy of it
// — the one write path of the obs event log, whose scopes are lanes of a
// private sink. Unlike Event names, log messages may be built at run time.
func (t *Tracer) Log(level uint8, name string, attrs []Attr) Record {
	if t == nil {
		return Record{}
	}
	t.l.mu.Lock()
	r := *t.l.event(level, name, attrs)
	t.l.mu.Unlock()
	return r
}

// event writes one point event straight into its ring slot.
func (l *lane) event(level uint8, name string, attrs []Attr) *Record {
	r := l.push()
	*r = Record{Level: level}
	l.begin(r, KindEvent, name, attrs)
	r.End = r.Start
	return r
}

// ID returns the lane's id on its sink; -1 on a nil tracer.
func (t *Tracer) ID() int {
	if t == nil {
		return -1
	}
	return t.l.id
}

// LaneName returns the name of the sink's lane with the given id, or "".
func (t *Tracer) LaneName(id int) string {
	if t == nil {
		return ""
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if id < 0 || id >= len(t.s.lanes) {
		return ""
	}
	return t.s.lanes[id].name
}

// Snapshot copies the sink's current state — completed records plus every
// still-open span (marked Open, End = the lane clock's now) — into an
// exportable Trace. It reads every lane's clock, so it is for the goroutine
// that drives those clocks or for after they have stopped (the end-of-run
// export); anyone else takes Live. Lanes with no records are omitted, so
// pre-created-but-unused lanes never perturb exports. A nil tracer snapshots
// to an empty trace.
func (t *Tracer) Snapshot() *Trace { return t.snapshot(true) }

// Live is Snapshot for a goroutine other than the recording ones (an HTTP
// handler mid-run): it calls no clock and takes each lane's now to be the
// reading its latest record made. Safe to call while lanes are recording.
func (t *Tracer) Live() *Trace { return t.snapshot(false) }

func (t *Tracer) snapshot(readClocks bool) *Trace {
	out := &Trace{}
	if t == nil {
		return out
	}
	out.Deterministic = t.s.det
	t.s.mu.Lock()
	lanes := append([]*lane(nil), t.s.lanes...)
	t.s.mu.Unlock()
	for _, l := range lanes {
		l.mu.Lock()
		ls := LaneSnapshot{ID: l.id, Name: l.name, Dropped: l.dropped, Now: l.last}
		if readClocks {
			ls.Now = l.now()
		}
		if k := len(l.ring) + len(l.stack); k > 0 {
			// Ring order is irrelevant: sortRecords puts the copy in Seq order.
			ls.Records = append(make([]Record, 0, k), l.ring...)
		}
		for _, slot := range l.stack {
			r := l.open[slot].rec
			r.End, r.Open = ls.Now, true
			ls.Records = append(ls.Records, r)
		}
		l.mu.Unlock()
		if len(ls.Records) == 0 {
			continue
		}
		sortRecords(ls.Records)
		out.Lanes = append(out.Lanes, ls)
	}
	sortLanes(out.Lanes)
	return out
}

// enabled is the process-wide default tracer consulted by subsystem
// constructors (core.NewMeasurer, ethsim network wiring) when no tracer was
// set explicitly — the same auto-wiring convention as metrics.Enabled.
var enabled atomic.Pointer[Tracer]

// Enable installs t as the process default tracer. Constructors that run
// after this call wire themselves to new lanes on its sink. Passing nil
// turns the default off.
func Enable(t *Tracer) {
	if t == nil {
		enabled.Store(nil)
		return
	}
	enabled.Store(t)
}

// Enabled returns the process default tracer, or nil when tracing is off.
func Enabled() *Tracer {
	return enabled.Load()
}

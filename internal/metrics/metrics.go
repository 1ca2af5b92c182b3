// Package metrics is the repository's observability subsystem: a small,
// dependency-free registry of named atomic counters, gauges, and fixed-bucket
// histograms, with diffable snapshots and JSON export.
//
// Design constraints, in order:
//
//   - Hot-path safety. Every instrument update is a single atomic operation
//     (histograms: one atomic per bucket plus a CAS for the running sum) and
//     every instrument method is nil-safe, so un-instrumented code pays one
//     predictable branch and no allocation. Subsystems hold pre-resolved
//     instrument pointers — name lookup happens once, at wiring time, never
//     per event.
//   - Concurrency. Instruments are safe for concurrent use (the live TCP
//     node updates them from many goroutines); the registry itself takes a
//     mutex only on instrument creation and snapshotting.
//   - Zero dependencies. Standard library only, so every layer of the stack
//     can import it without cycles or baggage.
//
// Typical wiring:
//
//	reg := metrics.NewRegistry()
//	admitted := reg.Counter("txpool.admitted.pending")
//	...
//	admitted.Inc()                      // hot path: one atomic add
//	snap := reg.Snapshot()              // cheap, consistent-enough view
//	delta := snap.Diff(prev)            // counters/histograms since prev
//	_ = json.NewEncoder(w).Encode(snap) // the /metrics endpoint
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil *Counter is a no-op on writes and reads as zero.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to use; a
// nil *Gauge is a no-op on writes and reads as zero.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution of float64 observations (latency
// seconds, message sizes, round durations). Buckets are cumulative upper
// bounds; observations above the last bound land in an implicit +Inf bucket.
// A nil *Histogram is a no-op on writes.
type Histogram struct {
	bounds []float64      // sorted upper bounds; len(counts) == len(bounds)+1
	counts []atomic.Int64 // last slot is the +Inf overflow bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, updated by CAS
	min    atomic.Uint64 // float64 bits; initialized to +Inf
	max    atomic.Uint64 // float64 bits; initialized to -Inf
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.min.Load()
		if v >= math.Float64frombits(old) || h.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// snapshot captures the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if s.Count > 0 {
		s.Min = math.Float64frombits(h.min.Load())
		s.Max = math.Float64frombits(h.max.Load())
	}
	return s
}

// DefaultLatencyBuckets suits sub-second delivery latencies through
// multi-minute campaign rounds, in seconds.
var DefaultLatencyBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300, 1800,
}

// Registry is a namespace of instruments. Lookups are get-or-create and
// idempotent: asking twice for the same name returns the same instrument, so
// independent subsystems can share a registry safely. A nil *Registry
// returns nil instruments, which are themselves no-ops — callers never need
// to guard wiring code.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use. Later calls with a different bucket layout get
// the original instrument: layouts are fixed at creation.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot captures the registry's current values. Individual instruments
// are read atomically; the snapshot as a whole is not a single consistent
// cut, which is fine for monitoring.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// WriteJSON writes an indented JSON snapshot of the registry to w — the
// payload the /metrics endpoint serves.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra trailing
	// element for the +Inf overflow bucket.
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min,omitempty"`
	Max    float64   `json:"max,omitempty"`
}

// Mean returns the average observation, or 0 when empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Snapshot is a point-in-time copy of a registry, suitable for JSON export
// and for computing deltas between two points of a run.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Diff returns the change from prev to s: counters and histogram
// counts/sums are subtracted (instruments absent from prev count from
// zero); gauges keep their current value, since deltas of instantaneous
// values are meaningless. Min/Max of diffed histograms are cleared — they
// cannot be recovered from two cumulative snapshots.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		p, ok := prev.Histograms[name]
		d := HistogramSnapshot{
			Bounds: h.Bounds,
			Counts: append([]int64(nil), h.Counts...),
			Count:  h.Count,
			Sum:    h.Sum,
		}
		if ok && len(p.Counts) == len(h.Counts) {
			for i := range d.Counts {
				d.Counts[i] -= p.Counts[i]
			}
			d.Count -= p.Count
			d.Sum -= p.Sum
		}
		out.Histograms[name] = d
	}
	return out
}

// CounterNames returns the snapshot's counter names, sorted.
func (s Snapshot) CounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Summary formats the snapshot as one compact line of nonzero counters (and
// histogram counts), sorted by name — the periodic progress format the CLIs
// print under -metrics.
func (s Snapshot) Summary() string {
	parts := make([]string, 0, len(s.Counters)+len(s.Histograms))
	for _, name := range s.CounterNames() {
		if v := s.Counters[name]; v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	hnames := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Histograms[name]
		if h.Count != 0 {
			parts = append(parts, fmt.Sprintf("%s:n=%d,mean=%.3g", name, h.Count, h.Mean()))
		}
	}
	if len(parts) == 0 {
		return "(no activity)"
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out += " " + p
	}
	return out
}

// enabled is the process-wide default registry consulted by subsystem
// constructors (ethsim.NewNetwork, core.NewMeasurer, node.Start) when no
// registry was wired explicitly. It is nil unless a CLI opted in with
// Enable, so library users pay nothing.
var enabled atomic.Pointer[Registry]

// Enable installs r as the process default registry. Constructors that run
// after this call auto-wire themselves to it. Passing nil turns the default
// off again.
func Enable(r *Registry) {
	enabled.Store(r)
}

// Enabled returns the process default registry, or nil when observability
// is off.
func Enabled() *Registry {
	return enabled.Load()
}

package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the harness made into a layer. Spans are recorded
// from outside, around public functions; nothing inside the program knows
// about them.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // -1 for a root span
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"`
	Start    float64 `json:"start_s"` // host seconds since the recorder started
	End      float64 `json:"end_s"`
	Self     float64 `json:"self_s"`
}

// spanRecorder keeps spans in memory until the run ends. The harness is one
// goroutine, so open spans form a stack and siblings never overlap.
type spanRecorder struct {
	t0       time.Time
	workload string
	rep      int
	spans    []span
	open     []int
}

func newSpanRecorder(workload string) *spanRecorder {
	return &spanRecorder{t0: time.Now(), workload: workload}
}

func (r *spanRecorder) parent() int {
	if len(r.open) == 0 {
		return -1
	}
	return r.open[len(r.open)-1]
}

// start opens a span under the innermost open one and returns its closer.
func (r *spanRecorder) start(name string) (end func()) {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: r.parent(), Name: name,
		Workload: r.workload, Rep: r.rep, Start: time.Since(r.t0).Seconds()})
	r.open = append(r.open, id)
	return func() {
		r.spans[id].End = time.Since(r.t0).Seconds()
		r.open = r.open[:len(r.open)-1]
	}
}

// record adds an already-finished child (a batch or a tick whose boundaries
// arrive as callbacks) under the innermost open span.
func (r *spanRecorder) record(name string, from, to time.Time) {
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: r.parent(), Name: name,
		Workload: r.workload, Rep: r.rep, Start: from.Sub(r.t0).Seconds(), End: to.Sub(r.t0).Seconds()})
}

// fillSelfTimes sets every span's Self to its duration minus the part its
// direct children cover (children are clipped to the parent's interval).
func fillSelfTimes(spans []span) {
	for i := range spans {
		spans[i].Self = spans[i].End - spans[i].Start
	}
	for _, c := range spans {
		if c.Parent < 0 {
			continue
		}
		p := &spans[c.Parent]
		lo, hi := c.Start, c.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			p.Self -= hi - lo
		}
	}
}

// selfByName sums self time over spans sharing a name.
func selfByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += s.Self
	}
	return out
}

func writeSpans(path string, spans []span) error {
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

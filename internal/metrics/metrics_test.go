package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.b") != c {
		t.Fatal("re-lookup returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Set(5)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5 (the last value set)", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
		r *Registry
	)
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHistogramBucketsAndStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	// 0.5 and 1 land in ≤1; 5 in ≤10; 50 in ≤100; 500 in +Inf.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-556.5) > 1e-9 {
		t.Fatalf("sum = %v, want 556.5", s.Sum)
	}
	if s.Min != 0.5 || s.Max != 500 {
		t.Fatalf("min/max = %v/%v, want 0.5/500", s.Min, s.Max)
	}
	if got := s.Mean(); math.Abs(got-556.5/5) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", []float64{10})
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if s := h.snapshot(); s.Count != workers*per || s.Sum != workers*per {
		t.Fatalf("histogram count/sum = %d/%v", s.Count, s.Sum)
	}
}

func TestSnapshotDiffAndSummary(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1})
	c.Add(3)
	g.Set(9)
	h.Observe(0.5)
	prev := r.Snapshot()
	c.Add(2)
	g.Set(4)
	h.Observe(2)
	d := r.Snapshot().Diff(prev)
	if d.Counters["c"] != 2 {
		t.Fatalf("diffed counter = %d, want 2", d.Counters["c"])
	}
	if d.Gauges["g"] != 4 {
		t.Fatalf("diffed gauge = %d, want current value 4", d.Gauges["g"])
	}
	hd := d.Histograms["h"]
	if hd.Count != 1 || hd.Sum != 2 || hd.Counts[0] != 0 || hd.Counts[1] != 1 {
		t.Fatalf("diffed histogram = %+v", hd)
	}
	sum := d.Summary()
	for _, want := range []string{"c=2", "h:n=1"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary %q missing %q", sum, want)
		}
	}
	if empty := (Snapshot{}).Summary(); empty != "(no activity)" {
		t.Fatalf("empty summary = %q", empty)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("n.frames").Add(12)
	r.Gauge("y").Set(100)
	r.Histogram("d", []float64{1, 2}).Observe(1.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, buf.String())
	}
	if s.Counters["n.frames"] != 12 || s.Gauges["y"] != 100 {
		t.Fatalf("round-trip mismatch: %+v", s)
	}
	if h := s.Histograms["d"]; h.Count != 1 || h.Counts[1] != 1 {
		t.Fatalf("histogram round-trip mismatch: %+v", s.Histograms["d"])
	}
}

func TestProgressLogger(t *testing.T) {
	r := NewRegistry()
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	p := StartProgress(r, w, 20*time.Millisecond)
	r.Counter("work").Add(2)
	time.Sleep(60 * time.Millisecond)
	p.Stop()
	p.Stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "work=2") {
		t.Fatalf("progress output missing counter delta: %q", out)
	}
	// Nil logger (nil registry/writer) is inert.
	StartProgress(nil, w, time.Millisecond).Stop()
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestEnableDefault(t *testing.T) {
	if Enabled() != nil {
		t.Fatal("default registry should start nil")
	}
	r := NewRegistry()
	Enable(r)
	defer Enable(nil)
	if Enabled() != r {
		t.Fatal("Enable did not install the registry")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// parseTraces reads the text `go tool pprof -traces` prints: blocks divided
// by dashed lines, the first line of a block carrying the sample's value.
func parseTraces(t *testing.T, text string) []stackSample {
	t.Helper()
	var samples []stackSample
	var cur *stackSample
	for _, line := range strings.Split(text, "\n") {
		switch fields := strings.Fields(line); {
		case strings.HasPrefix(line, "-----"):
			if cur != nil {
				samples = append(samples, *cur)
			}
			cur = &stackSample{}
		case cur == nil || len(fields) == 0:
			// header lines before the first divider
		case len(cur.values) == 0:
			ms, err := strconv.ParseInt(strings.TrimSuffix(fields[0], "ms"), 10, 64)
			if err != nil || len(fields) != 2 {
				t.Fatalf("bad sample line %q", line)
			}
			cur.values, cur.frames = []int64{ms}, []string{fields[1]}
		default:
			cur.frames = append(cur.frames, fields[0])
		}
	}
	return samples
}

func TestFoldCannedTraces(t *testing.T) {
	text, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	samples := parseTraces(t, string(text))
	if len(samples) != 9 {
		t.Fatalf("fixture has %d samples, want 9", len(samples))
	}
	got := fold(samples, 0)
	want := map[string]int64{
		"txpool":    300, // runtime.mapaccess2 is charged to the layer that called it
		"ethsim":    200,
		"sim":       150,
		"types":     100, // innermost in-module frame wins over txpool further out
		"telemetry": 50,  // metrics counts as telemetry, though txpool called it
		"graph":     40,  // stats is not a layer, so its caller takes the sample
		"gc":        90,  // background mark worker
		"core":      30,
		"other":     40, // no in-module frame at all
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fold = %v, want %v", got, want)
	}
	var total int64
	for layer, v := range got {
		if !slices.Contains(cpuLayers, layer) {
			t.Errorf("fold produced %q, which has no cpu_s metric", layer)
		}
		total += v
	}
	if total != 1000 {
		t.Errorf("shares sum to %d of 1000: the fold lost or invented samples", total)
	}
}

var sink [][]byte

//go:noinline
func allocateForProfile() {
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1<<20))
	}
}

func TestReadProfile(t *testing.T) {
	allocateForProfile()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	sink = nil
	types, samples, err := readProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	idx := -1
	for i, typ := range types {
		if typ == "alloc_space" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("sample types %v lack alloc_space", types)
	}
	var mine int64
	for _, s := range samples {
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".allocateForProfile") {
				mine += s.values[idx]
			}
		}
	}
	if mine < 32<<20 {
		t.Errorf("allocateForProfile is charged %d bytes, want most of its 64 MiB", mine)
	}
	if _, _, err := readProfile([]byte("not a profile")); err == nil {
		t.Error("garbage accepted as a profile")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "campaign", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "batch", Start: 1, End: 3},
		{ID: 2, Parent: 0, Name: "batch", Start: 3, End: 6}, // adjacent to span 1
		{ID: 3, Parent: 2, Name: "inner", Start: 4, End: 5}, // nested: not the campaign's child
		{ID: 4, Parent: 0, Name: "late", Start: 9, End: 12}, // clipped to its parent
	}
	fillSelfTimes(spans)
	for i, want := range []float64{10 - 2 - 3 - 1, 2, 3 - 1, 1, 3} {
		if got := spans[i].Self; math.Abs(got-want) > 1e-12 {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got, want)
		}
	}
	if got := selfByName(spans)["batch"]; got != 4 {
		t.Errorf("batch self time sums to %v, want 4", got)
	}
}

func TestSpanRecorderParents(t *testing.T) {
	r := newSpanRecorder("w")
	endOuter := r.start("outer")
	endInner := r.start("inner")
	endInner()
	r.record("step", time.Now(), time.Now())
	endOuter()
	r.start("second")()
	var parents []int
	for _, s := range r.spans {
		parents = append(parents, s.Parent)
	}
	if want := []int{-1, 0, 0, -1}; !reflect.DeepEqual(parents, want) {
		t.Errorf("parents %v, want %v", parents, want)
	}
	untraced := &meter{} // untraced repetitions record nothing and must not panic
	untraced.span("ignored")()
	untraced.step("ignored")
}

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, err := percentile(xs, 90); err != nil || p != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond", p, err)
	}
	if _, err := percentile(xs[:99], 90); err == nil {
		t.Error("p90 of 99 samples accepted with only 9 beyond it")
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Error("p99 of 100 samples accepted with 1 beyond it")
	}
	if p, err := percentile(xs[:20], 50); err != nil || p != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", p, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of nothing accepted")
	}
}

// TestQuartilesMatchPython pins the spread arithmetic to what Python's
// statistics.quantiles(xs, n=4) returns, since the driver computes spreads
// with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{16, 1, 8, 2, 4}, 1.5, 12},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", s)
	}
}

func TestJudge(t *testing.T) {
	wall, _ := endToEndDef("wall_s")
	rate, _ := endToEndDef("work_per_s")
	setup, _ := endToEndDef("setup_s")
	fails, _ := endToEndDef("fail_share")
	tight := func(v float64) metricValue { return metricValue{Value: v, Values: []float64{v * 0.995, v, v * 1.005}} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b metricValue
		want string
	}{
		{"slower within bound", wall, tight(10), tight(11), verdictOK},
		{"slower beyond bound", wall, tight(10), tight(13), verdictOutside},
		{"faster", wall, tight(10), tight(5), verdictOK},
		{"rate fell", rate, tight(100), tight(70), verdictOutside},
		{"rate rose", rate, tight(100), tight(150), verdictOK},
		{"noisy baseline", wall, metricValue{Value: 10, Values: []float64{8, 10, 12}}, tight(11.5), verdictUnresolved},
		{"noisy but every run better", wall, metricValue{Value: 10, Values: []float64{8, 10, 12}}, tight(5), verdictOK},
		{"tiny set-up within absolute floor", setup, tight(0.01), tight(0.04), verdictOK},
		{"failures appeared", fails, metricValue{Value: 0}, metricValue{Value: 0.01}, verdictOutside},
		{"no failures", fails, metricValue{Value: 0}, metricValue{Value: 0}, verdictOK},
	} {
		if _, _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json, which the driver reads, in
// step with the tables the harness prints from.
func TestBenchmarkJSONAgrees(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, harness default %d", file.RunSeconds, runSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q, harness has %q", i, file.Workloads[i].Name, w.name)
		}
		if len(file.Workloads[i].Why) == 0 || len(file.Workloads[i].Why) > 200 {
			t.Errorf("%s: why has %d characters, contract allows 1..200", w.name, len(file.Workloads[i].Why))
		}
	}
	if len(file.EndToEnd) != len(driverMetrics) {
		t.Fatalf("%d end_to_end metrics, harness hands the driver %d", len(file.EndToEnd), len(driverMetrics))
	}
	for i, name := range driverMetrics {
		d, _ := endToEndDef(name)
		got := file.EndToEnd[i]
		if got.Bound == nil || got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || *got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, harness has %+v", i, got, d)
		}
	}
	defs := perLayer()
	if len(defs) != 96 {
		t.Errorf("harness defines %d per-layer metrics, the issue lists 96", len(defs))
	}
	if len(file.PerLayer) != len(defs) {
		t.Fatalf("%d per_layer metrics, harness has %d", len(file.PerLayer), len(defs))
	}
	for i, d := range defs {
		got := file.PerLayer[i]
		if got.Bound != nil || got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, harness has %+v", i, got, d)
		}
	}
}

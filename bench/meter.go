package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"toposhot/internal/metrics"
	"toposhot/internal/obs"
	"toposhot/internal/trace"
)

// meter times one repetition of a workload from outside: set-up runs from
// begin to timed, the timed section from timed to end. With a tracer
// attached the same boundaries also bracket the CPU and allocation
// profiles, the counter snapshot and the process CPU clock.
type meter struct {
	tr *tracer // nil on untraced repetitions

	start, setupEnd, timedStart, timedEnd time.Time
	alloc0, alloc1                        uint64
	steps                                 []float64 // host ms per step
	lastStep                              time.Time
}

// begin starts a repetition on a collected heap, so that no repetition pays
// for the garbage of the one before it.
func (m *meter) begin() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc0 = ms.TotalAlloc
	m.start = time.Now()
}

// timed marks the end of set-up; the work the tracer does at the boundary
// belongs to neither side.
func (m *meter) timed() error {
	m.setupEnd = time.Now()
	if err := m.tr.enterTimed(); err != nil {
		return err
	}
	m.timedStart = time.Now()
	m.lastStep = m.timedStart
	return nil
}

func (m *meter) end() error {
	m.timedEnd = time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.alloc1 = ms.TotalAlloc
	return m.tr.leaveTimed()
}

// restartSteps starts the first step now, for a workload whose timed section
// opens with work that is not a step (the census's pre-processing).
func (m *meter) restartSteps() { m.lastStep = time.Now() }

// step closes one closed-loop step (a batch, a RunFor slice, a tick): the
// next one starts the moment this one returns.
func (m *meter) step(name string) {
	now := time.Now()
	m.steps = append(m.steps, float64(now.Sub(m.lastStep).Nanoseconds())/1e6)
	if m.tr != nil {
		m.tr.spans.record(name, m.lastStep, now)
	}
	m.lastStep = now
}

// span opens a harness span around a call into a layer (no-op untraced).
func (m *meter) span(name string) (end func()) {
	if m.tr == nil {
		return func() {}
	}
	return m.tr.spans.start(name)
}

// costs is the traced run's probe cost ledger, nil on untraced repetitions.
func (m *meter) costs() *obs.Ledger {
	if m.tr == nil {
		return nil
	}
	return m.tr.costs
}

func (m *meter) setupS() float64 { return m.setupEnd.Sub(m.start).Seconds() }
func (m *meter) wallS() float64  { return m.timedEnd.Sub(m.timedStart).Seconds() }
func (m *meter) allocMB() float64 {
	return float64(m.alloc1-m.alloc0) / (1 << 20)
}

// tracer is the traced run's equipment: harness spans, the program's own
// public telemetry, and profiles around the timed section. One tracer
// serves all traced repetitions of a run and sums what they show.
type tracer struct {
	spans *spanRecorder
	reg   *metrics.Registry
	costs *obs.Ledger

	// state of the timed section in progress
	cpu       bytes.Buffer
	allocs0   map[string]int64
	counters0 metrics.Snapshot
	cpuClock0 float64

	// sums over the traced repetitions so far
	reps           int
	cpuByLayer     map[string]int64 // ns
	allocByLayer   map[string]int64 // bytes
	counters       map[string]int64 // timed-section deltas
	processCPUSecs float64
}

func newTracer(workload string) *tracer {
	return &tracer{spans: newSpanRecorder(workload), reg: metrics.NewRegistry(),
		cpuByLayer: make(map[string]int64), allocByLayer: make(map[string]int64), counters: make(map[string]int64)}
}

// on switches the program's telemetry on for the repetition that follows:
// counters, measure-level trace spans, the event log and a cost ledger.
func (t *tracer) on() {
	t.costs = obs.NewLedger()
	t.spans.rep = t.reps
	metrics.Enable(t.reg)
	trace.Enable(trace.New(trace.Options{Level: trace.LevelMeasure}))
	obs.Enable(obs.New(obs.Options{Level: obs.LevelInfo}))
}

func (t *tracer) off() {
	metrics.Enable(nil)
	trace.Enable(nil)
	obs.Enable(nil)
	t.reps++
}

// profileHz is the CPU profiler's sampling rate. Repetitions last a second
// or two, so the default 100 Hz would leave a layer's share resting on a few
// dozen samples. The kernel checks CPU-time timers on its 250 Hz tick: at
// 500 Hz half the samples were lost, at 200 Hz the profile accounts for 98 %
// of the process's CPU time.
const profileHz = 200

func (t *tracer) enterTimed() error {
	if t == nil {
		return nil
	}
	var err error
	if t.allocs0, err = foldAllocs(); err != nil {
		return err
	}
	t.counters0 = t.reg.Snapshot()
	t.cpuClock0 = processCPU()
	t.cpu.Reset()
	// pprof.StartCPUProfile insists on 100 Hz; setting the rate first makes
	// its own attempt a no-op, at the price of a one-line notice from the
	// runtime on stderr ("cannot set cpu profile rate until ...").
	runtime.SetCPUProfileRate(profileHz)
	return pprof.StartCPUProfile(&t.cpu)
}

func (t *tracer) leaveTimed() error {
	if t == nil {
		return nil
	}
	pprof.StopCPUProfile()
	t.processCPUSecs += processCPU() - t.cpuClock0
	for name, v := range t.reg.Snapshot().Diff(t.counters0).Counters {
		t.counters[name] += v
	}
	cpu, err := foldProfile(t.cpu.Bytes(), "cpu")
	if err != nil {
		return err
	}
	for layer, v := range cpu {
		t.cpuByLayer[layer] += v
	}
	allocs1, err := foldAllocs()
	if err != nil {
		return err
	}
	for layer, v := range allocs1 {
		t.allocByLayer[layer] += v - t.allocs0[layer]
	}
	return nil
}

// foldAllocs folds the process's cumulative allocation profile by layer.
// The runtime publishes allocation samples at the end of a collection, so
// one is forced first.
func foldAllocs() (map[string]int64, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("allocs profile: %w", err)
	}
	return foldProfile(buf.Bytes(), "alloc_space")
}

// processCPU is user+system CPU seconds the process has used.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
)

// errShortWriter is the injected sink failure: it accepts limit bytes, then
// every further Write returns errSink.
var errSink = errors.New("sink failed")

type errShortWriter struct {
	limit   int
	written int
}

func (w *errShortWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.limit {
		n := w.limit - w.written
		if n < 0 {
			n = 0
		}
		w.written += n
		return n, errSink
	}
	w.written += len(p)
	return len(p), nil
}

// jsonlTestTrace records a two-lane trace with nested spans, an open span,
// events carrying every attribute kind, and enough filler events to overflow
// WriteJSONL's internal buffer — so short writers fail mid-stream, not just
// at the final flush.
func jsonlTestTrace() *Trace {
	clock := 0.0
	tick := func() float64 { clock++; return clock }
	tr := New(Options{Level: LevelMeasure, Deterministic: true})
	tr.SetClock(tick)
	outer := tr.StartSpan(tsOuter, String("who", "jsonl"), Int("n", 3))
	inner := tr.StartSpan(tsInner, Float("f", 2.5), Bool("ok", true))
	tr.Event(tsTick, Int("i", 1))
	inner.End()
	outer.End()
	lane := tr.Lane("lane-two")
	lane.SetClock(tick)
	lane.StartSpan(tsSolo) // left open on purpose
	for i := 0; i < 100; i++ {
		lane.Event(tsFiller, Int("i", int64(i)))
	}
	return tr.Snapshot()
}

func TestWriteJSONLRoundTrip(t *testing.T) {
	var b1 bytes.Buffer
	if err := jsonlTestTrace().WriteJSONL(&b1); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Deterministic {
		t.Fatal("header deterministic flag lost")
	}
	if len(got.Lanes) != 2 || got.Lanes[1].Name != "lane-two" {
		t.Fatalf("lanes did not round-trip: %+v", got.Lanes)
	}
	if n := len(got.Lanes[1].Records); n != 101 {
		t.Fatalf("lane-two has %d records, want 101", n)
	}
	// Canonical-form property: re-serializing the parse reproduces the
	// stream byte-for-byte (the fuzz target pins this for arbitrary inputs;
	// this pins it for real recorder output).
	var b2 bytes.Buffer
	if err := got.WriteJSONL(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("write-read-write is not a fixed point")
	}
}

// TestWriteJSONLWriteFailure checks every byte offset a sink can die at:
// WriteJSONL must report the failure, never swallow it into a silently
// truncated file.
func TestWriteJSONLWriteFailure(t *testing.T) {
	tr := jsonlTestTrace()
	var full bytes.Buffer
	if err := tr.WriteJSONL(&full); err != nil {
		t.Fatal(err)
	}
	// Sample offsets across the stream: the header write, mid-record
	// encodes that overflow the bufio buffer, and the final flush.
	for _, limit := range []int{0, 1, 100, 4096, 5000, full.Len() - 1} {
		if err := tr.WriteJSONL(&errShortWriter{limit: limit}); !errors.Is(err, errSink) {
			t.Fatalf("limit %d: got %v, want errSink", limit, err)
		}
	}
	if err := tr.WriteJSONL(&errShortWriter{limit: full.Len()}); err != nil {
		t.Fatalf("exact-size writer should succeed: %v", err)
	}
}

func TestReadJSONLErrors(t *testing.T) {
	cases := map[string]string{
		"malformed":     "{not json}\n",
		"unknown kind":  `{"kind":"mystery","lane":0}` + "\n",
		"attr overflow": `{"kind":"event","lane":0,"name":"e","attrs":[` + strings.Repeat(`{"k":"a","i":1},`, MaxAttrs) + `{"k":"z","i":1}]}` + "\n",
	}
	for name, in := range cases {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadJSONL accepted %q", name, in)
		}
	}
	// A records-before-lane-line stream is legal: the lane materializes
	// unnamed.
	got, err := ReadJSONL(strings.NewReader(`{"kind":"span","lane":3,"name":"s","id":1,"seq":1,"start":1,"end":2}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Lanes) != 1 || got.Lanes[0].ID != 3 || got.Lanes[0].Name != "" {
		t.Fatalf("implicit lane wrong: %+v", got.Lanes)
	}
}

// TestJSONLSnapshotDuringRecording snapshots and serializes while other
// goroutines are still recording — the exporter must only ever see the
// consistent copy Snapshot took (run under -race).
func TestJSONLSnapshotDuringRecording(t *testing.T) {
	clock := 0.0
	tr := New(Options{Level: LevelMeasure})
	tr.SetClock(func() float64 { clock++; return clock })
	lane := tr.Lane("lane-two")
	lane.SetClock(func() float64 { return 0 })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sp := lane.StartSpan(tsFiller, Int("i", int64(i)))
			lane.Event(tsTick)
			sp.End()
		}
	}()
	for i := 0; i < 50; i++ {
		if err := tr.Snapshot().WriteJSONL(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestLiveCallsNoClock: an engine's virtual clock is a plain field of the
// goroutine that runs it, so a reader on another goroutine (the dashboard's
// /trace/snapshot and /progress mid-census) must take Live, which never calls
// a lane clock. Under -race, Snapshot in Live's place fails here.
func TestLiveCallsNoClock(t *testing.T) {
	tr := New(Options{Level: LevelMeasure, Deterministic: true})
	now := 0.0 // owned by the recording goroutine, like sim.Engine's
	tr.SetClock(func() float64 { return now })
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			now++
			sp := tr.StartSpan(tsFiller)
			now++
			sp.End()
		}
		now++
		tr.StartSpan(tsOuter) // left open
		now++
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		l := tr.Live().Lanes
		if len(l) == 1 && l[0].Now < l[0].Records[len(l[0].Records)-1].Start {
			t.Fatalf("lane now %v is behind its newest record", l[0].Now)
		}
	}
	// Recording has stopped: Live still reports the open span's start, the
	// clock-reading Snapshot the time after it.
	if got := tr.Live().Lanes[0].Now; got != 4001 {
		t.Errorf("Live now = %v, want the latest record's reading 4001", got)
	}
	if got := tr.Snapshot().Lanes[0].Now; got != 4002 {
		t.Errorf("Snapshot now = %v, want the clock's 4002", got)
	}
}

package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"toposhot/internal/trace"
)

func TestNilLoggerNoops(t *testing.T) {
	var lg *Logger
	lg.Info("ignored", Int("x", 1))
	lg.Error("ignored")
	lg.SetClock(func() float64 { return 1 })
	if got := lg.Scope("child"); got != nil {
		t.Fatalf("nil.Scope = %v, want nil", got)
	}
	if lg.ScopeName(0) != "" {
		t.Fatal("nil.ScopeName should be empty")
	}
	cancel := lg.Tap(func(Event) {})
	cancel()
	snap := lg.Snapshot()
	if len(snap.Lanes) != 0 {
		t.Fatalf("nil snapshot has %d scopes", len(snap.Lanes))
	}
	var buf bytes.Buffer
	if err := snap.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestNewOffIsNil(t *testing.T) {
	if lg := New(Options{Level: LevelOff}); lg != nil {
		t.Fatal("New(off) should return nil")
	}
	if lg, err := NewCLI("off", "text", nil); err != nil || lg != nil {
		t.Fatalf("NewCLI(off) = %v, %v", lg, err)
	}
}

func TestParseLevelAndFormat(t *testing.T) {
	for _, s := range []string{"debug", "info", "warn", "error", "off"} {
		lv, err := ParseLevel(s)
		if err != nil {
			t.Fatalf("ParseLevel(%q): %v", s, err)
		}
		if lv.String() != s {
			t.Fatalf("ParseLevel(%q).String() = %q", s, lv.String())
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Fatal("ParseLevel(verbose) should fail")
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Fatal("ParseFormat(xml) should fail")
	}
}

func TestLevelFiltering(t *testing.T) {
	lg := New(Options{Level: LevelWarn})
	lg.Debug("d")
	lg.Info("i")
	lg.log(LevelWarn, "w", nil)
	lg.Error("e")
	snap := lg.Snapshot()
	if len(snap.Lanes) != 1 || len(snap.Lanes[0].Records) != 2 {
		t.Fatalf("snapshot = %+v, want 2 events in 1 scope", snap)
	}
	if snap.Lanes[0].Records[0].Name != "w" || snap.Lanes[0].Records[1].Name != "e" {
		t.Fatalf("events = %+v", snap.Lanes[0].Records)
	}
	if lg.live.level != LevelWarn {
		t.Fatalf("level = %v, want warn", lg.live.level)
	}
}

func TestClockSeqAndFields(t *testing.T) {
	now := 0.0
	lg := New(Options{Level: LevelDebug})
	lg.SetClock(func() float64 { return now })
	now = 1.5
	lg.Info("first", Int("n", 7), String("s", "x"), trace.Bool("ok", true), Float("f", 0.5))
	now = 2.5
	lg.Info("second", Int("n", 8), Int("n", 9)) // duplicate key overwrites
	ev := lg.Snapshot().Lanes[0].Records
	if ev[0].Seq != 1 || ev[1].Seq != 2 {
		t.Fatalf("seqs = %d, %d", ev[0].Seq, ev[1].Seq)
	}
	if ev[0].Start != 1.5 || ev[1].Start != 2.5 {
		t.Fatalf("times = %g, %g", ev[0].Start, ev[1].Start)
	}
	if f, ok := ev[0].Attr("n"); !ok || f.Value() != int64(7) {
		t.Fatalf("field n = %+v, %v", f, ok)
	}
	if len(ev[0].AttrList()) != 4 {
		t.Fatalf("got %d fields", len(ev[0].AttrList()))
	}
	if f, _ := ev[1].Attr("n"); f.Value() != int64(9) {
		t.Fatalf("duplicate key kept %v, want 9", f.Value())
	}
}

func TestFieldOverflowDropsExtras(t *testing.T) {
	lg := New(Options{Level: LevelInfo})
	fields := make([]Field, 0, trace.MaxAttrs+3)
	for i := 0; i < trace.MaxAttrs+3; i++ {
		fields = append(fields, Int(fmt.Sprintf("k%d", i), int64(i)))
	}
	lg.Info("full", fields...)
	ev := lg.Snapshot().Lanes[0].Records[0]
	if ev.NAttrs != trace.MaxAttrs {
		t.Fatalf("NFields = %d, want %d", ev.NAttrs, trace.MaxAttrs)
	}
}

func TestRingWrapCountsDropped(t *testing.T) {
	lg := New(Options{Level: LevelInfo, Capacity: 4})
	for i := 0; i < 10; i++ {
		lg.Info(fmt.Sprintf("e%d", i))
	}
	sc := lg.Snapshot().Lanes[0]
	if sc.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", sc.Dropped)
	}
	if len(sc.Records) != 4 || sc.Records[0].Name != "e6" || sc.Records[3].Name != "e9" {
		t.Fatalf("ring window = %+v", sc.Records)
	}
}

func TestScopesSnapshotInIDOrderEmptyOmitted(t *testing.T) {
	lg := New(Options{Level: LevelInfo})
	a := lg.Scope("a")
	_ = lg.Scope("unused")
	b := lg.Scope("b")
	b.Info("on-b")
	a.Info("on-a")
	lg.Info("on-main")
	snap := lg.Snapshot()
	if len(snap.Lanes) != 3 {
		t.Fatalf("got %d scopes, want 3 (empty omitted)", len(snap.Lanes))
	}
	names := []string{snap.Lanes[0].Name, snap.Lanes[1].Name, snap.Lanes[2].Name}
	if names[0] != "main" || names[1] != "a" || names[2] != "b" {
		t.Fatalf("scope order = %v", names)
	}
	if lg.ScopeName(a.lane.ID()) != "a" || lg.ScopeName(99) != "" {
		t.Fatal("ScopeName lookup broken")
	}
}

// TestSerialVsParallelByteIdentity is the tentpole invariant: scopes created
// before a fan-out record the same bytes whether their streams are emitted
// serially or from concurrent goroutines.
func TestSerialVsParallelByteIdentity(t *testing.T) {
	const scopes, events = 8, 200
	run := func(parallel bool) []byte {
		lg := New(Options{Level: LevelDebug})
		workers := make([]*Logger, scopes)
		for i := range workers {
			i := i
			workers[i] = lg.Scope(fmt.Sprintf("worker-%d", i))
			workers[i].SetClock(func() float64 { return float64(i) }) // per-scope fixed virtual clock
		}
		emit := func(w *Logger, i int) {
			for j := 0; j < events; j++ {
				w.Info("tick", Int("worker", int64(i)), Int("j", int64(j)))
			}
		}
		if parallel {
			var wg sync.WaitGroup
			for i, w := range workers {
				wg.Add(1)
				go func(w *Logger, i int) {
					defer wg.Done()
					emit(w, i)
				}(w, i)
			}
			wg.Wait()
		} else {
			for i, w := range workers {
				emit(w, i)
			}
		}
		var buf bytes.Buffer
		if err := lg.Snapshot().WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := run(false)
	for trial := 0; trial < 4; trial++ {
		if par := run(true); !bytes.Equal(serial, par) {
			t.Fatalf("trial %d: parallel snapshot differs from serial", trial)
		}
	}
}

func TestLiveSinkTextFormat(t *testing.T) {
	var buf bytes.Buffer
	lg := New(Options{Level: LevelInfo, Live: &buf, LiveFormat: FormatText})
	lg.SetClock(func() float64 { return 3.25 })
	lg.Info("campaign-started", Int("nodes", 30), String("preset", "goerli small"))
	want := `level=info t=3.250 scope=main msg=campaign-started nodes=30 preset="goerli small"` + "\n"
	if buf.String() != want {
		t.Fatalf("live text = %q, want %q", buf.String(), want)
	}
}

func TestLiveSinkJSONLFormat(t *testing.T) {
	var buf bytes.Buffer
	lg := New(Options{Level: LevelInfo, Live: &buf, LiveFormat: FormatJSONL})
	lg.Info("hello", trace.Bool("ok", true))
	line := strings.TrimSpace(buf.String())
	if !strings.Contains(line, `"msg":"hello"`) || !strings.Contains(line, `"name":"main"`) {
		t.Fatalf("live jsonl = %q", line)
	}
	if strings.Count(buf.String(), "\n") != 1 {
		t.Fatalf("want exactly one line, got %q", buf.String())
	}
}

func TestTapAndCancel(t *testing.T) {
	lg := New(Options{Level: LevelInfo})
	var got []string
	cancel := lg.Tap(func(e Event) { got = append(got, e.Name) })
	lg.Info("one")
	cancel()
	lg.Info("two")
	if len(got) != 1 || got[0] != "one" {
		t.Fatalf("tap saw %v, want [one]", got)
	}
}

// TestTapCancelRacesEmit is the /events client that disconnects mid-campaign:
// taps come and go while another goroutine logs. Under -race it fails on an
// in-place cancel (emitters read the slice after dropping the lock), and
// every cancelled tap must give its slot back.
func TestTapCancelRacesEmit(t *testing.T) {
	lg := New(Options{Level: LevelInfo, Capacity: 16})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				lg.Info("spin")
			}
		}
	}()
	for i := 0; i < 5000; i++ {
		lg.Tap(func(Event) {})()
	}
	close(stop)
	<-done
	if n := len(lg.live.taps); n != 0 {
		t.Fatalf("%d tap slots left after every tap was cancelled", n)
	}
	// Cancelling one of several removes that one only, and twice is harmless.
	var got []string
	cancelA := lg.Tap(func(Event) { got = append(got, "a") })
	cancelB := lg.Tap(func(Event) { got = append(got, "b") })
	cancelA()
	cancelA()
	lg.Info("one")
	cancelB()
	lg.Info("two")
	if len(got) != 1 || got[0] != "b" || len(lg.live.taps) != 0 {
		t.Fatalf("taps saw %v with %d slots left, want [b] and 0", got, len(lg.live.taps))
	}
}

func TestEnableEnabled(t *testing.T) {
	defer Enable(nil)
	if Enabled() != nil {
		t.Fatal("default should start nil")
	}
	lg := New(Options{Level: LevelInfo})
	Enable(lg)
	if Enabled() != lg {
		t.Fatal("Enabled() != lg")
	}
	Enable(nil)
	if Enabled() != nil {
		t.Fatal("Enable(nil) should clear")
	}
}

// TestSnapshotDuringConcurrentWrites snapshots from one goroutine while
// another logs against a clock only it may touch (an engine's virtual time):
// under -race, a Snapshot that called scope clocks would fail here.
func TestSnapshotDuringConcurrentWrites(t *testing.T) {
	lg := New(Options{Level: LevelInfo, Capacity: 64})
	now := 0.0
	lg.SetClock(func() float64 { return now })
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			now++
			lg.Info("spin", Int("i", int64(i)))
		}
	}()
	for i := 0; i < 50; i++ {
		snap := lg.Snapshot()
		var buf bytes.Buffer
		if err := snap.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

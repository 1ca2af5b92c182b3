package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"toposhot/internal/trace"
)

// failWriter fails after n successful writes.
type failWriter struct {
	n    int
	seen int
}

var errWrite = errors.New("sink failed")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.seen >= w.n {
		return 0, errWrite
	}
	w.seen++
	return len(p), nil
}

func sampleLog() *Log {
	lg := New(Options{Level: LevelDebug})
	lg.SetClock(func() float64 { return 1.0 })
	a := lg.Scope("census", func() float64 { return 2.0 })
	lg.Info("campaign-started", Int("nodes", 30), Float("rate", 0.5))
	a.Debug("batch-done", Int("batch", 1), Bool("ok", true))
	a.Warn("slow", String("why", "queue depth"))
	lg.Error("failed", Err(errors.New("boom")))
	return lg.Snapshot()
}

func TestJSONLRoundTrip(t *testing.T) {
	orig := sampleLog()
	var a bytes.Buffer
	if err := orig.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&a)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := back.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := orig.WriteJSONL(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), c.Bytes()) {
		t.Fatalf("round trip not lossless:\n%s\nvs\n%s", c.String(), b.String())
	}
}

func TestJSONLReadErrors(t *testing.T) {
	cases := map[string]string{
		"malformed": "{not json\n",
		"unknown":   `{"kind":"mystery"}` + "\n",
		"badlevel":  `{"kind":"event","scope":0,"t":1,"level":"loud","msg":"x"}` + "\n",
		"overflow": `{"kind":"event","scope":0,"t":1,"level":"info","msg":"x","fields":[` +
			strings.Repeat(`{"k":"a","i":1},`, trace.MaxAttrs) + `{"k":"z","i":1}]}` + "\n",
	}
	for name, in := range cases {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadJSONL should fail", name)
		}
	}
}

func TestJSONLReadImplicitScopeAndBlankLines(t *testing.T) {
	in := "\n" + `{"kind":"event","scope":3,"seq":1,"t":0.5,"level":"info","msg":"orphan"}` + "\n"
	lg, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.Lanes) != 1 || lg.Lanes[0].ID != 3 || len(lg.Lanes[0].Records) != 1 {
		t.Fatalf("log = %+v", lg)
	}
}

func TestWriteJSONLPropagatesWriteFailure(t *testing.T) {
	orig := sampleLog()
	// bufio coalesces, so force every flush stage: n=0 fails immediately.
	if err := orig.WriteJSONL(&failWriter{n: 0}); err == nil {
		t.Fatal("WriteJSONL on a dead sink should fail")
	}
	if err := orig.WriteText(&failWriter{n: 0}); err == nil {
		t.Fatal("WriteText on a dead sink should fail")
	}
}

func TestWriteTextRendersAllKinds(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleLog().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"level=info t=1.000 scope=main msg=campaign-started nodes=30 rate=0.5",
		"level=debug t=2.000 scope=census msg=batch-done batch=1 ok=true",
		`msg=slow why="queue depth"`,
		"level=error t=1.000 scope=main msg=failed err=boom",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestLiveSinkWriteFailureDoesNotPanic(t *testing.T) {
	lg := New(Options{Level: LevelInfo, Live: &failWriter{n: 0}, LiveFormat: FormatText})
	lg.Info("still recorded")
	if got := len(lg.Snapshot().Lanes[0].Records); got != 1 {
		t.Fatalf("event not recorded past a dead live sink: %d", got)
	}
}

func FuzzObsJSONL(f *testing.F) {
	var seed bytes.Buffer
	_ = sampleLog().WriteJSONL(&seed)
	f.Add(seed.Bytes())
	f.Add([]byte(`{"kind":"header","v":1}`))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		lg, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parses must re-serialize and re-parse to the same bytes.
		var a bytes.Buffer
		if err := lg.WriteJSONL(&a); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("re-read: %v\n%s", err, a.String())
		}
		var b bytes.Buffer
		if err := back.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("not a fixed point:\n%s\nvs\n%s", a.String(), b.String())
		}
	})
}

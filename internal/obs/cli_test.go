package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"toposhot/internal/metrics"
	"toposhot/internal/trace"
)

func openWith(t *testing.T, stderr *bytes.Buffer, args ...string) (*CLI, int) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	flags := RegisterCLIFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return flags.Open(stderr)
}

// TestCLIRestoresPreviousDefaults: Open installs a logger, tracer and registry
// process-wide; Close puts back exactly what was there before, so two runs in
// one process (or a run inside a test that has its own tracer) do not leak
// into each other.
func TestCLIRestoresPreviousDefaults(t *testing.T) {
	prevLogger := New(Options{Level: LevelInfo})
	prevTracer := trace.New(trace.Options{Level: trace.LevelMeasure})
	prevMetrics := metrics.NewRegistry()
	Enable(prevLogger)
	trace.Enable(prevTracer)
	metrics.Enable(prevMetrics)
	defer func() { Enable(nil); trace.Enable(nil); metrics.Enable(nil) }()

	dir := t.TempDir()
	var stderr bytes.Buffer
	cli, code := openWith(t, &stderr, "-metrics", "-trace", filepath.Join(dir, "t.json"), "-log", filepath.Join(dir, "ev"))
	if cli == nil {
		t.Fatalf("Open failed with %d: %s", code, stderr.String())
	}
	if Enabled() != cli.Logger || trace.Enabled() != cli.Tracer || metrics.Enabled() != cli.Metrics {
		t.Error("Open did not install its logger, tracer and registry as the process defaults")
	}
	if got := cli.Fatal(3, "boom", String("why", "test")); got != 3 {
		t.Errorf("Fatal returned %d, want the code it was given", got)
	}
	if !strings.Contains(stderr.String(), "msg=boom why=test") {
		t.Errorf("Fatal wrote %q to the CLI's stderr", stderr.String())
	}
	cli.Close()
	if Enabled() != prevLogger || trace.Enabled() != prevTracer || metrics.Enabled() != prevMetrics {
		t.Error("Close did not restore the previous process defaults")
	}
	if snap, err := os.ReadFile(filepath.Join(dir, "ev")); err != nil || !bytes.Contains(snap, []byte(`"msg":"boom"`)) {
		t.Errorf("event-log snapshot after a fatal path: %q, %v", snap, err)
	}
}

// TestCLIOpenFailures: a bad flag value is exit 2 and a profile that cannot
// start exit 1, reported on the given writer, with nothing left installed.
func TestCLIOpenFailures(t *testing.T) {
	for _, c := range []struct {
		name       string
		args       []string
		wantCode   int
		wantStderr string
	}{
		{"log level", []string{"-log-level", "nosuch"}, 2, "nosuch"},
		{"log format", []string{"-log-format", "nosuch"}, 2, "nosuch"},
		{"trace level", []string{"-trace", "t.json", "-trace-level", "nosuch"}, 2, "msg=trace-setup-failed"},
		{"trace level, logging off", []string{"-log-level", "off", "-trace", "t.json", "-trace-level", "nosuch"}, 2, "trace-setup-failed"},
		{"cpu profile", []string{"-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "c.pprof")}, 1, "msg=profile-setup-failed"},
	} {
		var stderr bytes.Buffer
		cli, code := openWith(t, &stderr, c.args...)
		if cli != nil || code != c.wantCode {
			t.Errorf("%s: Open = %v, %d; want nil, %d", c.name, cli, code, c.wantCode)
		}
		if !strings.Contains(stderr.String(), c.wantStderr) {
			t.Errorf("%s: stderr %q lacks %q", c.name, stderr.String(), c.wantStderr)
		}
		if Enabled() != nil || trace.Enabled() != nil || metrics.Enabled() != nil {
			t.Errorf("%s: a failed Open left a process default installed", c.name)
			Enable(nil)
			trace.Enable(nil)
			metrics.Enable(nil)
		}
	}
}

package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"toposhot/internal/experiments"
	"toposhot/internal/obs"
	"toposhot/internal/runner"
	"toposhot/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func names(figs []experiments.Figure) []string {
	var out []string
	for _, f := range figs {
		out = append(out, f.Name)
	}
	return out
}

// TestList: -list (and a bare invocation) print exactly the registry, one
// line per figure in registry order.
func TestList(t *testing.T) {
	want := "available experiments:\n"
	for _, f := range experiments.Figures() {
		want += fmt.Sprintf("  %-9s %s\n", f.Name, f.Desc)
	}
	for _, args := range [][]string{{"-list"}, {}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
		}
		if stdout.String() != want {
			t.Errorf("%v printed\n%s\nwant\n%s", args, stdout.String(), want)
		}
	}
}

// TestSelectFigures: names match case-insensitively and come back in
// registry order; "all" leaves out the hours-long CensusScale unless it is
// also named.
func TestSelectFigures(t *testing.T) {
	figs := experiments.Figures()
	all := names(selectFigures(figs, "all"))
	if len(all) != len(figs)-1 || strings.Contains(strings.Join(all, " "), "CensusScale") {
		t.Errorf("all selected %v; want every figure but CensusScale", all)
	}
	if got := names(selectFigures(figs, "all, censusscale")); len(got) != len(figs) {
		t.Errorf("all,censusscale selected %d of %d figures", len(got), len(figs))
	}
	if got := strings.Join(names(selectFigures(figs, " table8 ,FIG4A,nosuch")), " "); got != "Fig4a Table8" {
		t.Errorf("selected %q, want %q", got, "Fig4a Table8")
	}
}

// TestRunUnknown: a -run value that matches nothing is exit 2 with the known
// names, sorted, on stderr.
func TestRunUnknown(t *testing.T) {
	known := names(experiments.Figures())
	sort.Strings(known)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if want := `msg=no-experiment-matched run=nosuch known="` + strings.Join(known, ", ") + `"`; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr lacks %s:\n%s", want, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout: %q", stdout.String())
	}
	if code := run([]string{"-nosuch"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}

// TestCompareAcrossWidths runs the head-to-head through the CLI at pool
// widths 1 and 4: stdout is the figure ledger's Compare golden under the
// CLI's banner, and stdout, the event-log snapshot and the deterministic
// sweep trace are byte-identical at both widths (CI's former compare-smoke
// job and the Compare step of obs-smoke). The run must also leave no process
// default behind.
func TestCompareAcrossWidths(t *testing.T) {
	dir := t.TempDir()
	width := runner.Parallelism()
	type files struct{ stdout, events, trace []byte }
	observe := func(parallel string) files {
		p := func(name string) string { return filepath.Join(dir, name+parallel) }
		var stdout, stderr bytes.Buffer
		args := []string{"-run", "Compare", "-seed", "7", "-parallel", parallel,
			"-log", p("ev"), "-trace", p("tr.jsonl"), "-trace-deterministic"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
		}
		return files{stdout.Bytes(), readFile(t, p("ev")), readFile(t, p("tr.jsonl"))}
	}
	serial, wide := observe("1"), observe("4")
	if obs.Enabled() != nil || trace.Enabled() != nil || runner.Parallelism() != width {
		t.Errorf("run left a process default installed: logger %v, tracer %v, pool width %d (was %d)",
			obs.Enabled() != nil, trace.Enabled() != nil, runner.Parallelism(), width)
	}
	for _, c := range []struct {
		what string
		a, b []byte
	}{{"stdout", serial.stdout, wide.stdout}, {"event log", serial.events, wide.events}, {"trace", serial.trace, wide.trace}} {
		if !bytes.Equal(c.a, c.b) {
			t.Errorf("%s differs between -parallel 1 and -parallel 4 (%d vs %d bytes)", c.what, len(c.a), len(c.b))
		}
	}

	ledger := readFile(t, filepath.Join("..", "..", "internal", "experiments", "testdata", "figures", "Compare.golden"))
	if want := "=== Compare ===\n" + string(ledger) + "\n"; string(serial.stdout) != want {
		t.Errorf("stdout is not the ledger's Compare golden under the banner:\n%s\nwant\n%s", serial.stdout, want)
	}
	golden := filepath.Join("testdata", "compare_seed7.events.jsonl")
	if *update {
		if err := os.WriteFile(golden, serial.events, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want := readFile(t, golden); !bytes.Equal(serial.events, want) {
		t.Errorf("%s drifted (re-run with -update if the change is intended)\n--- want\n%s--- got\n%s", golden, want, serial.events)
	}
}

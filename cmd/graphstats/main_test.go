package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestCensusStatistics pins the full report — properties, baselines,
// communities — over the edge list cmd/toposhot's own test pins, i.e. the
// `toposhot -out e.txt && graphstats -in e.txt -baselines 3 -communities`
// pipeline README points at.
func TestCensusStatistics(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-in", filepath.Join("..", "toposhot", "testdata", "census_n40.edges"), "-baselines", "3", "-communities"}
	if code := run(args, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	golden := filepath.Join("testdata", "census_n40.stats.txt")
	if *update {
		if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("%s drifted (re-run with -update if the change is intended)\n--- want\n%s--- got\n%s", golden, want, stdout.Bytes())
	}
}

func TestRefusals(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, []byte("not an edge\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		args       []string
		wantExit   int
		wantStderr string
	}{
		{"missing file", []string{"-in", empty + ".absent"}, 1, "open "},
		{"no edges", []string{"-in", empty}, 1, "empty graph"},
		{"unknown flag", []string{"-nosuch"}, 2, "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.wantExit {
			t.Errorf("%s: exit %d, want %d", c.name, code, c.wantExit)
		}
		if !strings.Contains(stderr.String(), c.wantStderr) || stdout.Len() != 0 {
			t.Errorf("%s: stderr %q lacks %q, or stdout %q is not empty", c.name, stderr.String(), c.wantStderr, stdout.String())
		}
	}
}

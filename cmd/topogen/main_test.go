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

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted (re-run with -update if the change is intended)\n--- want\n%s--- got\n%s", path, want, got)
	}
}

// TestModels pins one small edge list per random model; cm replicates the
// degree sequence of er's list, so the two must agree on n and m.
func TestModels(t *testing.T) {
	generate := func(args ...string) (edges, summary string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
		}
		return stdout.String(), stderr.String()
	}
	er, erSummary := generate("-model", "er", "-n", "24", "-m", "60", "-seed", "7")
	checkGolden(t, "er_n24_m60.edges", []byte(er))
	ba, _ := generate("-model", "ba", "-n", "24", "-avgdeg", "6", "-seed", "7")
	checkGolden(t, "ba_n24_d6.edges", []byte(ba))

	cm, cmSummary := generate("-model", "cm", "-degrees", filepath.Join("testdata", "er_n24_m60.edges"), "-seed", "7")
	checkGolden(t, "cm_of_er.edges", []byte(cm))
	if !strings.Contains(erSummary, "n=24 m=60") || !strings.Contains(cmSummary, "n=24") {
		t.Errorf("summaries: er %q, cm %q", erSummary, cmSummary)
	}
}

// TestEthereumPreset: the default model grows the Ropsten-sized overlay; the
// summary line carries the paper's node count.
func TestEthereumPreset(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-preset", "ropsten", "-seed", "7"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	if !strings.HasPrefix(stderr.String(), "generated ethereum: n=588 ") {
		t.Errorf("summary %q", stderr.String())
	}
	if lines := strings.Count(stdout.String(), "\n"); lines < 5000 {
		t.Errorf("%d edges for a Ropsten-sized overlay; the paper measures ≈ 7500", lines)
	}
}

func TestRefusals(t *testing.T) {
	for _, c := range []struct {
		name       string
		args       []string
		wantExit   int
		wantStderr string
	}{
		{"unknown preset", []string{"-preset", "nosuch"}, 2, `unknown preset "nosuch"`},
		{"unknown model", []string{"-model", "nosuch"}, 2, `unknown model "nosuch"`},
		{"cm without degrees", []string{"-model", "cm"}, 2, "cm requires -degrees"},
		{"cm with a missing file", []string{"-model", "cm", "-degrees", filepath.Join(t.TempDir(), "absent")}, 1, "read "},
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

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// inModule writes files as a temp module and makes it the working directory
// (run resolves patterns and the module root from there) for the test's
// duration.
func inModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Error(err)
		}
	})
}

const cleanFile = "package p\n\nfunc Sum(xs []int) (n int) {\n\tfor _, x := range xs {\n\t\tn += x\n\t}\n\treturn n\n}\n"

// hotFile seeds the violation the directive exists to catch: a map range in
// a function that declares itself hot, in a package no rule scopes by path.
const hotFile = "package p\n\n//toposhot:hotpath\nfunc Sum(m map[int]int) (n int) {\n\tfor _, x := range m {\n\t\tn += x\n\t}\n\treturn n\n}\n"

func TestRun(t *testing.T) {
	const finding = "p/p.go:5: [nodeterminism] map iteration in hot-path function Sum"
	cases := []struct {
		name       string
		file       string
		args       []string
		wantExit   int
		wantStdout []string // substrings; none given means stdout must be empty
		wantStderr string
	}{
		{name: "clean module", file: cleanFile, args: []string{"./..."}, wantExit: 0},
		{name: "seeded violation", file: hotFile, wantExit: 1,
			wantStdout: []string{finding}, wantStderr: "1 finding(s)"},
		{name: "github annotation", file: hotFile, args: []string{"-github"}, wantExit: 1,
			wantStdout: []string{finding, "::error file=p/p.go,line=5,title=nodeterminism::map iteration"}},
		{name: "rule subset skips the finding", file: hotFile, args: []string{"-rules", "locksafe"}, wantExit: 0},
		{name: "unknown rule", file: cleanFile, args: []string{"-rules", "lockorder"}, wantExit: 2,
			wantStderr: `unknown rule "lockorder"`},
		{name: "removed -parallel flag", file: cleanFile, args: []string{"-parallel", "2"}, wantExit: 2,
			wantStderr: "flag provided but not defined: -parallel"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inModule(t, map[string]string{"go.mod": "module example\n\ngo 1.22\n", "p/p.go": tc.file})
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.wantExit {
				t.Errorf("exit %d, want %d\nstdout:\n%sstderr:\n%s", got, tc.wantExit, &stdout, &stderr)
			}
			if len(tc.wantStdout) == 0 && stdout.Len() != 0 {
				t.Errorf("stdout not empty:\n%s", &stdout)
			}
			for _, want := range tc.wantStdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout missing %q:\n%s", want, &stdout)
				}
			}
			if !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr missing %q:\n%s", tc.wantStderr, &stderr)
			}
		})
	}
}

// TestList pins the catalogue: one line per rule, in name order.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-list"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d, stderr:\n%s", got, &stderr)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := []string{"errcheck-wire", "hotalloc", "locksafe", "metrics-nilsafe", "nodeterminism", "trace-nilsafe", "trace-spanname"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("-list printed %v, want the seven rules %v", names, want)
	}
}

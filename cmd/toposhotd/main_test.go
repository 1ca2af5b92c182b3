package main

import (
	"bytes"
	"strings"
	"testing"

	"toposhot/internal/metrics"
	"toposhot/internal/obs"
	"toposhot/internal/trace"
)

// TestFlagValidation: every flag the daemon cannot honour is refused before
// the node starts listening, with the exit code the other binaries use, and
// nothing is left installed process-wide.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		wantExit   int
		wantStderr string
	}{
		{"help", []string{"-h"}, 0, "-log-format"},
		{"unknown flag", []string{"-nosuch"}, 2, "flag provided but not defined"},
		{"unknown log level", []string{"-log-level", "nosuch"}, 2, "nosuch"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.wantExit {
				t.Errorf("exit %d, want %d\n%s", code, c.wantExit, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.wantStderr) {
				t.Errorf("stderr lacks %q:\n%s", c.wantStderr, stderr.String())
			}
			if strings.Contains(stderr.String(), "listening") {
				t.Errorf("a refused run started the node:\n%s", stderr.String())
			}
			if obs.Enabled() != nil || trace.Enabled() != nil || metrics.Enabled() != nil {
				t.Error("a refused run left a process default installed")
			}
		})
	}
}

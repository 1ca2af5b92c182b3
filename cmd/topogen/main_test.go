package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestEthereumPreset: the default model grows the Ropsten-sized overlay; the
// summary line carries the paper's node count.
func TestEthereumPreset(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-preset", "ropsten"}, &stdout, &stderr); code != 0 {
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

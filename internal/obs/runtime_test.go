package obs

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartRuntimeWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	r, err := StartRuntime(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to record.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

func TestStartRuntimeInert(t *testing.T) {
	r, err := StartRuntime("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	var nilR *Runtime
	if err := nilR.Stop(); err != nil {
		t.Fatal("nil session Stop errored")
	}
	// Stop is idempotent.
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartRuntimeBadPath(t *testing.T) {
	if _, err := StartRuntime(filepath.Join(t.TempDir(), "no", "such", "dir", "c.pprof"), ""); err == nil {
		t.Fatal("unwritable cpu path accepted")
	}
}

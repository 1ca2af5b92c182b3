package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Runtime is an active runtime-profiling session started by StartRuntime.
type Runtime struct {
	cpuFile *os.File
	memPath string
}

// StartRuntime begins collecting the runtime profiles the hot-path work is
// tuned against: a CPU profile streamed to cpuPath and, at Stop time, a heap
// profile written to memPath. Either path may be empty to skip that profile;
// with both empty the returned session is an inert no-op, so callers can wire
// it unconditionally behind -cpuprofile/-memprofile flags.
func StartRuntime(cpuPath, memPath string) (*Runtime, error) {
	r := &Runtime{memPath: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profile: create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("profile: start cpu profile: %w", err)
		}
		r.cpuFile = f
	}
	return r, nil
}

// Stop ends CPU profiling and writes the heap profile, if either was
// requested. It is safe to call on a nil or inert session and returns the
// first error encountered.
func (r *Runtime) Stop() error {
	if r == nil {
		return nil
	}
	var firstErr error
	if r.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := r.cpuFile.Close(); err != nil {
			firstErr = err
		}
		r.cpuFile = nil
	}
	if r.memPath != "" {
		f, err := os.Create(r.memPath)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("profile: create mem profile: %w", err)
			}
		} else {
			// An up-to-date live-object picture, matching `go test -memprofile`.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("profile: write mem profile: %w", err)
			}
			if err := f.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		r.memPath = ""
	}
	return firstErr
}

package metrics

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// progressInterval is the wall time between progress lines.
const progressInterval = 10 * time.Second

// ProgressLogger periodically prints one-line activity summaries of a
// registry to a writer — the "-metrics" progress stream of the CLIs. Each
// line shows the delta since the previous line, so a stalled campaign shows
// up as "(no activity)" rather than ever-growing totals.
type ProgressLogger struct {
	reg *Registry
	w   io.Writer

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	prev     Snapshot
}

// StartProgress launches a logger printing every progressInterval. It
// returns nil if the registry or writer is nil, and a nil *ProgressLogger is
// safe to Stop.
func StartProgress(reg *Registry, w io.Writer) *ProgressLogger {
	if reg == nil || w == nil {
		return nil
	}
	p := &ProgressLogger{
		reg:  reg,
		w:    w,
		stop: make(chan struct{}),
		done: make(chan struct{}),
		prev: reg.Snapshot(), // baseline captured before the caller proceeds
	}
	go p.run()
	return p
}

func (p *ProgressLogger) run() {
	defer close(p.done)
	ticker := time.NewTicker(progressInterval)
	defer ticker.Stop()
	start := time.Now()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			p.report(time.Since(start))
		}
	}
}

// report prints one line: the registry's change since the previous line,
// stamped with the elapsed wall time.
func (p *ProgressLogger) report(elapsed time.Duration) {
	cur := p.reg.Snapshot()
	fmt.Fprintf(p.w, "[metrics +%s] %s\n", elapsed.Round(time.Second), cur.Diff(p.prev).Summary())
	p.prev = cur
}

// Stop halts the logger and waits for its goroutine to exit.
func (p *ProgressLogger) Stop() {
	if p == nil {
		return
	}
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

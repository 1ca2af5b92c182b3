package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The yardstick is a fixed piece of memory-bound work that shares no code
// with the repository: random look-ups in a map and a pointer chase, both
// over tables several times a core's private cache. On the shared sandbox
// the speed of such work drifts by 30 % from one minute to the next while
// compute-bound work holds still, and the campaigns are memory-bound, so raw
// seconds of two runs a few minutes apart cannot be compared. The harness
// therefore takes a yardstick sample before and after every repetition and
// reports host times scaled to a machine on which a pass takes yardRefMS:
//
//	reported = raw × yardRefMS ÷ (mean of the two samples around the repetition)
//
// A change to the repository cannot move the yardstick, so real gains and
// losses come through unscaled; only the machine's own speed is divided out.
// Raw seconds are kept beside every scaled figure. The yardstick runs in a
// helper process (this binary with -yardstick), so its 40 MB of tables stay
// out of the measured process's peak_rss_mb and heap.
const (
	yardRefMS     = 10.0 // one pass on this sandbox when it is quiet
	yardMapSize   = 1 << 19
	yardChaseSize = 4 << 20
	yardPassOps   = 50_000
	yardPasses    = 9
)

// serveYardstick is the helper process: for every line on stdin it answers
// with one sample, the median host milliseconds of yardPasses passes.
func serveYardstick(in io.Reader, out io.Writer) error {
	table := make(map[uint64]uint64, yardMapSize)
	for i := uint64(0); i < yardMapSize; i++ {
		table[i*2654435761] = i
	}
	next := make([]uint32, yardChaseSize)
	for i := range next {
		next[i] = uint32((uint64(i)*2654435761 + 12345) % yardChaseSize)
	}
	var sink uint64
	pos := uint32(0)
	ms := make([]float64, yardPasses)
	for sc := bufio.NewScanner(in); sc.Scan(); {
		for k := range ms {
			t0 := time.Now()
			for i := uint64(0); i < yardPassOps; i++ {
				sink += table[((i*7919+uint64(k)*13)%yardMapSize)*2654435761]
			}
			for i := 0; i < yardPassOps; i++ {
				pos = next[pos]
			}
			ms[k] = float64(time.Since(t0).Nanoseconds()) / 1e6
		}
		sort.Float64s(ms)
		// The parity digit keeps the loops' results alive.
		if _, err := fmt.Fprintf(out, "%.6f %d\n", ms[yardPasses/2], (sink+uint64(pos))%2); err != nil {
			return err
		}
	}
	return nil
}

// yardstick is the measuring process's handle on the helper. A nil
// *yardstick scales nothing: the smoke tests time nothing worth scaling.
type yardstick struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	last float64
}

func startYardstick() (*yardstick, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-yardstick")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	y := &yardstick{cmd: cmd, in: in, out: bufio.NewReader(out)}
	if _, err := y.sample(); err != nil { // builds the tables and warms them
		y.close()
		return nil, err
	}
	return y, nil
}

// sample asks the helper for one sample, in milliseconds per pass.
func (y *yardstick) sample() (float64, error) {
	if _, err := io.WriteString(y.in, "\n"); err != nil {
		return 0, fmt.Errorf("yardstick: %w", err)
	}
	line, err := y.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("yardstick: %w", err)
	}
	ms, err := strconv.ParseFloat(strings.Fields(line)[0], 64)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("yardstick: bad sample %q", line)
	}
	return ms, nil
}

// mark takes the sample that opens an interval of measured work.
func (y *yardstick) mark() error {
	if y == nil {
		return nil
	}
	var err error
	y.last, err = y.sample()
	return err
}

// scale closes the interval opened by mark (or by the previous scale) and
// returns the factor that turns its raw host time into reported time:
// yardRefMS over the mean of the samples at its two ends.
func (y *yardstick) scale() (factor, passMS float64, err error) {
	if y == nil {
		return 1, yardRefMS, nil
	}
	now, err := y.sample()
	if err != nil {
		return 0, 0, err
	}
	passMS = (y.last + now) / 2
	y.last = now
	return yardRefMS / passMS, passMS, nil
}

// close stops the helper and waits for it to end.
func (y *yardstick) close() {
	if y == nil {
		return
	}
	_ = y.in.Close() // end of input is what stops the helper
	_ = y.cmd.Wait() // its exit status changes nothing here
}

// Command bench is the repository's performance benchmark: four closed-loop
// campaign workloads measured end to end with telemetry off, one traced
// repetition per workload, and a pass of per-layer micro-drivers. It times
// every layer from outside, through public functions. See README.md.
//
//	go run ./bench                                   all workloads, untraced then traced; writes one result file
//	go run ./bench --workload W --trace 0|1 ...      one run, as the benchmark driver invokes it
//	go run ./bench -compare a.json b.json            judge two result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: the measuring budget of one
// run. The sizes in workloads.go make a repetition take one to two seconds
// on a two-core sandbox, so a run holds ten or more of them.
const runSeconds = 20

// layerSamples is how often a traced run's layers pass times each driver.
const layerSamples = 5

// result is the file a full run writes: every workload's untraced and
// traced run, plus the facts needed to read the numbers later.
type result struct {
	Machine   machine                 `json:"machine"`
	Seed      int64                   `json:"seed"`
	Seconds   int                     `json:"run_seconds"`
	Sizes     sizes                   `json:"sizes"`
	Workloads map[string]*workloadRun `json:"workloads"`
	// Layers is the group-D per-layer metrics, the median over the traced
	// runs' layers passes.
	Layers map[string]metricValue `json:"layers"`
}

type workloadRun struct {
	Untraced *runResult `json:"untraced"`
	Traced   *runResult `json:"traced"`
}

type machine struct {
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
}

func machineFacts() machine {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			commit += "+uncommitted"
		}
	}
	return machine{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), GOMAXPROCS: maxProcs,
		OSArch: runtime.GOOS + "/" + runtime.GOARCH, Commit: commit}
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all, each untraced then traced)")
		seed         = flag.Int64("seed", 42, "seed the workload's inputs are generated from")
		seconds      = flag.Int("seconds", runSeconds, "measuring budget of one run, in seconds")
		traced       = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
		outDir       = flag.String("outdir", filepath.Join("bench", "out"), "directory for run details, spans and the result file")
		outFile      = flag.String("out", "", "result file of a full run (default <outdir>/result-seed<seed>.json)")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		checkAgainst = flag.String("check-against", "", "result file whose simulated fingerprints this run must reproduce")
		yardServer   = flag.Bool("yardstick", false, "serve yardstick samples on stdin/stdout (the harness starts this itself)")
	)
	flag.Parse()

	if *yardServer {
		if err := serveYardstick(os.Stdin, os.Stdout); err != nil {
			fatal("%v", err)
		}
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments: %v", flag.Args())
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal("%v", err)
	}
	budget := time.Duration(*seconds) * time.Second

	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fatal("unknown workload %q", *workloadName)
		}
		yard, err := startYardstick()
		if err != nil {
			fatal("%v", err)
		}
		var r *runResult
		if *traced != 0 {
			r = runTraced(w, *seed, fullSizes, tracedPairs, *outDir, yard)
			r.addLayers(layerSamples, 1)
		} else {
			r = runUntraced(w, *seed, fullSizes, minReps, budget, yard)
		}
		yard.close()
		r.print(os.Stdout)
		if err := writeJSON(detailPath(*outDir, w.name, r.Traced), r); err != nil {
			fatal("%v", err)
		}
		if *checkAgainst != "" && !reproduces(map[string]*runResult{w.name: r}, *checkAgainst) {
			os.Exit(1)
		}
		if err := r.driverLine(os.Stdout); err != nil {
			fatal("%v", err)
		}
		return
	}

	res, ok := runAll(*seed, *seconds, *outDir)
	path := *outFile
	if path == "" {
		path = filepath.Join(*outDir, fmt.Sprintf("result-seed%d.json", *seed))
	}
	if err := writeJSON(path, res); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("result written to %s\n", path)
	if *checkAgainst != "" {
		runs := make(map[string]*runResult)
		for name, wr := range res.Workloads {
			runs[name] = wr.Untraced
		}
		ok = reproduces(runs, *checkAgainst) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func detailPath(outDir, workload string, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("run-%s-trace%d.json", workload, t))
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v interface{}) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// driverLine prints the one-line JSON object the benchmark driver reads:
// the end-to-end metrics defined on every workload for an untraced run,
// every per-layer metric for a traced one.
func (r *runResult) driverLine(w *os.File) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	names := driverMetrics
	if r.Traced {
		names = nil
		for _, d := range perLayer() {
			names = append(names, d.Name)
		}
	}
	metrics := make(map[string]value, len(names))
	for _, n := range names {
		v, ok := r.Metrics[n]
		if !ok {
			return fmt.Errorf("%s: run produced no %s", r.Workload, n)
		}
		metrics[n] = value{v.Value, v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAll runs every workload untraced and then traced. Each run is a fresh
// child process, one after another, so peak_rss_mb is a fresh high-water
// mark and no heap survives from one workload into the next.
func runAll(seed int64, seconds int, outDir string) (*result, bool) {
	res := &result{Machine: machineFacts(), Seed: seed, Seconds: seconds, Sizes: fullSizes,
		Workloads: make(map[string]*workloadRun), Layers: make(map[string]metricValue)}
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	ok := true
	child := func(w workload, traced int) *runResult {
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced), "-outdir", outDir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fatal("%s (trace %d): %v", w.name, traced, err)
		}
		r := new(runResult)
		if err := readJSON(detailPath(outDir, w.name, traced != 0), r); err != nil {
			fatal("%v", err)
		}
		ok = ok && r.Failed == 0
		return r
	}
	layers := make(map[string][]float64)
	for _, w := range workloads {
		wr := &workloadRun{Untraced: child(w, 0), Traced: child(w, 1)}
		res.Workloads[w.name] = wr
		if wr.Untraced.Fingerprint != wr.Traced.Fingerprint {
			fmt.Printf("FAILURE: %s: traced fingerprint %s differs from untraced %s\n",
				w.name, wr.Traced.Fingerprint, wr.Untraced.Fingerprint)
			ok = false
		}
		for _, name := range driverLayerMetrics {
			layers[name] = append(layers[name], wr.Traced.Metrics[name].Value)
		}
	}
	for name, vs := range layers {
		res.Layers[name] = metricValue{Value: median(vs), Unit: layerUnit(name), Values: vs}
	}
	return res, ok
}

// reproduces checks that each run's simulated fingerprint equals the one
// recorded for the same workload in another result file, so that a reviewer
// of a simulator-only speed-up can demand identical simulated statistics.
func reproduces(runs map[string]*runResult, otherPath string) bool {
	var other result
	if err := readJSON(otherPath, &other); err != nil {
		fatal("%v", err)
	}
	ok := true
	for _, w := range workloads {
		name, r := w.name, runs[w.name]
		if r == nil {
			continue
		}
		o := other.Workloads[name]
		if o == nil || o.Untraced == nil {
			fmt.Printf("check-against: %s has no %s run\n", otherPath, name)
			ok = false
			continue
		}
		if o.Untraced.Seed != r.Seed {
			fmt.Printf("check-against: %s ran %s with seed %d, this run used %d\n", otherPath, name, o.Untraced.Seed, r.Seed)
			ok = false
			continue
		}
		if o.Untraced.Fingerprint == r.Fingerprint {
			fmt.Printf("check-against: %s fingerprint %s reproduced\n", name, r.Fingerprint)
			continue
		}
		ok = false
		fmt.Printf("check-against: %s fingerprint %s differs from %s's %s\n", name, r.Fingerprint, otherPath, o.Untraced.Fingerprint)
		for i, line := range r.FingerprintText {
			if i >= len(o.Untraced.FingerprintText) || o.Untraced.FingerprintText[i] != line {
				was := "(absent)"
				if i < len(o.Untraced.FingerprintText) {
					was = o.Untraced.FingerprintText[i]
				}
				fmt.Printf("  first difference: %s  (was %s)\n", line, was)
				break
			}
		}
	}
	return ok
}

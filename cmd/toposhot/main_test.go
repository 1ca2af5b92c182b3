package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"toposhot/internal/core"
	"toposhot/internal/experiments"
	"toposhot/internal/metrics"
	"toposhot/internal/obs"
	"toposhot/internal/runner"
	"toposhot/internal/trace"
	"toposhot/internal/tracker"
)

var update = flag.Bool("update", false, "rewrite the golden files and the SHA-256 manifest under testdata/")

// checkGolden pins a small text artifact to testdata/<name> byte for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden (re-run with -update if the change is intended)\n--- want\n%s--- got\n%s", name, want, got)
	}
}

// The manifest pins artifacts too large or too binary for a golden file —
// traces, checkpoints — as "<sha256>  <name>" lines in one file. Every test
// checks against the copy loaded here; TestMain rewrites it under -update.
const manifestPath = "testdata/manifest.sha256"

var manifest = map[string]string{}

func TestMain(m *testing.M) {
	flag.Parse()
	data, err := os.ReadFile(manifestPath)
	if err != nil && !*update {
		fmt.Fprintln(os.Stderr, "missing manifest (run with -update):", err)
		os.Exit(1)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if sum, name, ok := strings.Cut(line, "  "); ok {
			manifest[name] = sum
		}
	}
	code := m.Run()
	if *update && code == 0 {
		names := make([]string, 0, len(manifest))
		for name := range manifest {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s  %s\n", manifest[name], name)
		}
		if err := os.WriteFile(manifestPath, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

func checkManifest(t *testing.T, name string, got []byte) {
	t.Helper()
	sum := fmt.Sprintf("%x", sha256.Sum256(got))
	if *update {
		manifest[name] = sum
		return
	}
	switch want, ok := manifest[name]; {
	case !ok:
		t.Errorf("%s is not in %s (run with -update to record it)", name, manifestPath)
	case want != sum:
		t.Errorf("%s drifted (%d bytes): sha256 %s, %s records %s (re-run with -update if the change is intended)",
			name, len(got), sum, manifestPath, want)
	}
}

// toposhot runs the binary in-process and fails the test on a non-zero exit.
func toposhot(t *testing.T, args ...string) (stdout, stderr []byte) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("toposhot %s: exit %d\n%s", strings.Join(args, " "), code, errb.Bytes())
	}
	return out.Bytes(), errb.Bytes()
}

// atWidth is toposhot with the runner's default pool width set to n for the
// run, as on a machine with n cores.
func atWidth(t *testing.T, n int, args ...string) (stdout, stderr []byte) {
	t.Helper()
	defer runner.SetParallelism(runner.Parallelism())
	runner.SetParallelism(n)
	return toposhot(t, args...)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// scrub replaces the test's temporary directory in an artifact that names a
// file (a resumed run logs its checkpoint path) with a fixed token.
func scrub(dir string, data []byte) []byte {
	return bytes.ReplaceAll(data, []byte(dir), []byte("$DIR"))
}

func mustEqual(t *testing.T, what string, a, b []byte) {
	t.Helper()
	if !bytes.Equal(a, b) {
		t.Errorf("%s differ (%d vs %d bytes)", what, len(a), len(b))
	}
}

// TestCensusArtifacts pins every file one small census writes: the edge
// list, the event-log snapshot, the live stderr stream in both formats and
// the deterministic trace in both encodings (CI's former trace-census job ran
// the same census twice and compared; the pinned hash is the earlier run).
func TestCensusArtifacts(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	census := []string{"-n", "40", "-k", "8", "-seed", "7", "-log-level", "debug", "-trace-deterministic"}

	_, stderr := atWidth(t, 1, append(census, "-log", p("ev"), "-trace", p("tr.jsonl"), "-out", p("edges"))...)
	edges, events := readFile(t, p("edges")), readFile(t, p("ev"))
	checkGolden(t, "census_n40.edges", edges)
	checkGolden(t, "census_n40.events.jsonl", events)
	checkGolden(t, "census_n40.stderr.txt", stderr)
	checkManifest(t, "census_n40.trace.jsonl", readFile(t, p("tr.jsonl")))

	stdout, stderr := atWidth(t, 1, append(census, "-log-format", "jsonl", "-log", p("ev2"), "-trace", p("tr.json"))...)
	mustEqual(t, "-out file and stdout edge lists", edges, stdout)
	mustEqual(t, "event-log snapshots under the two live formats", events, readFile(t, p("ev2")))
	checkManifest(t, "census_n40.stderr.jsonl", stderr)
	checkManifest(t, "census_n40.trace.json", readFile(t, p("tr.json")))
}

// TestWidthAndResumeInvariance runs one 60-node census three ways — serial,
// at pool width 8, and checkpointed then resumed — and requires
// byte-identical edges throughout, identical event logs and traces across
// widths, and a checkpoint file that repeats (CI's former obs-smoke and
// census-scale-smoke cmp steps).
func TestWidthAndResumeInvariance(t *testing.T) {
	dir := t.TempDir()
	census := []string{"-n", "60", "-k", "10", "-seed", "7"}
	type files struct{ edges, events, trace []byte }
	observe := func(tag string, width int) files {
		p := func(name string) string { return filepath.Join(dir, tag+"."+name) }
		args := append(append([]string{}, census...), "-log-level", "debug", "-log", p("ev"),
			"-trace", p("tr.json"), "-trace-deterministic", "-out", p("edges"))
		atWidth(t, width, args...)
		return files{readFile(t, p("edges")), readFile(t, p("ev")), readFile(t, p("tr.json"))}
	}
	base := observe("serial", 1)
	checkManifest(t, "census_n60.edges", base.edges)
	checkManifest(t, "census_n60.events.jsonl", base.events)
	checkManifest(t, "census_n60.trace.json", base.trace)
	wide := observe("wide", 8)
	mustEqual(t, "edges, serial vs wide", base.edges, wide.edges)
	mustEqual(t, "event logs, serial vs wide", base.events, wide.events)
	mustEqual(t, "traces, serial vs wide", base.trace, wide.trace)

	ckpt := filepath.Join(dir, "camp.ckpt")
	toposhot(t, append(append([]string{}, census...), "-checkpoint", ckpt, "-checkpoint-every", "3", "-out", filepath.Join(dir, "full"))...)
	mustEqual(t, "edges, plain vs checkpointing run", base.edges, readFile(t, filepath.Join(dir, "full")))
	checkManifest(t, "census_n60.ckpt", readFile(t, ckpt))
	resumed, _ := toposhot(t, "-resume", ckpt, "-log-level", "debug", "-log", filepath.Join(dir, "resumed.ev"),
		"-trace", filepath.Join(dir, "resumed.tr.json"), "-trace-deterministic")
	mustEqual(t, "edges, uninterrupted vs resumed", base.edges, resumed)
	checkManifest(t, "census_n60_resumed.events.jsonl", scrub(dir, readFile(t, filepath.Join(dir, "resumed.ev"))))
	checkManifest(t, "census_n60_resumed.trace.json", readFile(t, filepath.Join(dir, "resumed.tr.json")))
}

// TestTrackingArtifacts pins a 6-tick tracking run — belief edges and the
// stderr report with its cost-attribution table, which is cut from the probe
// ledger — and requires a 3-tick checkpoint resumed out to 6 ticks to end on
// the same edges (CI's former tracking-smoke job). The checkpoint fixes the
// world: resuming it without world flags reports and records the same
// campaign as resuming it with them.
func TestTrackingArtifacts(t *testing.T) {
	dir := t.TempDir()
	track := []string{"-track", "-n", "40", "-k", "8", "-seed", "7"}
	edges, stderr := toposhot(t, append(track, "-track-ticks", "6")...)
	checkGolden(t, "track_n40.edges", edges)
	checkGolden(t, "track_n40.stderr.txt", stderr)

	ckpt := filepath.Join(dir, "track.ckpt")
	toposhot(t, append(track, "-track-ticks", "3", "-checkpoint", ckpt, "-out", filepath.Join(dir, "half"))...)
	checkManifest(t, "track_n40_tick3.ckpt", readFile(t, ckpt))
	resumed, stderr := toposhot(t, append(track, "-track-ticks", "6", "-resume", ckpt, "-log", filepath.Join(dir, "resumed.ev"))...)
	mustEqual(t, "belief edges, uninterrupted vs resumed", edges, resumed)
	checkManifest(t, "track_n40_resumed.stderr.txt", scrub(dir, stderr))
	checkManifest(t, "track_n40_resumed.events.jsonl", scrub(dir, readFile(t, filepath.Join(dir, "resumed.ev"))))

	again := filepath.Join(dir, "again.ckpt")
	bare, bareStderr := toposhot(t, "-track", "-track-ticks", "6", "-resume", ckpt, "-checkpoint", again)
	mustEqual(t, "belief edges, resumed with and without world flags", resumed, bare)
	mustEqual(t, "reports, resumed with and without world flags", stderr, bareStderr)
	if !bytes.Contains(bareStderr, []byte("custom n=40 seed=7 ")) {
		t.Errorf("report header does not name the checkpoint's world:\n%s", bareStderr)
	}
	if ck, err := experiments.ReadCheckpoint(again); err != nil || ck.Seed != 7 || ck.K != 8 {
		t.Errorf("checkpoint written by a resumed run records seed/K %v, %v", ck, err)
	}
}

// TestShardedCensus pins the region-sharded mode's edges and coverage
// summary, identical at pool widths 1 and 4.
func TestShardedCensus(t *testing.T) {
	sharded := []string{"-preset", "mainnet", "-n", "240", "-regions", "4", "-seed", "42", "-log-level", "off"}
	edges, summary := atWidth(t, 1, sharded...)
	checkGolden(t, "sharded_n240.edges", edges)
	checkGolden(t, "sharded_n240.stderr.txt", summary)
	wideEdges, wideSummary := atWidth(t, 4, sharded...)
	mustEqual(t, "sharded edges at widths 1 and 4", edges, wideEdges)
	mustEqual(t, "sharded summaries at widths 1 and 4", summary, wideSummary)
}

// TestRivalStrategy pins one non-TopoShot campaign end to end.
func TestRivalStrategy(t *testing.T) {
	edges, stderr := toposhot(t, "-n", "24", "-seed", "5", "-strategy", "dethna")
	checkGolden(t, "dethna_n24.edges", edges)
	checkGolden(t, "dethna_n24.stderr.txt", stderr)
}

// TestRivalStrategyFillsTheLedger: a rival strategy's campaign lands in the
// ledger the dashboard's /ledger serves, one pair record per pair probed.
func TestRivalStrategyFillsTheLedger(t *testing.T) {
	var stderr bytes.Buffer
	o, _ := parse([]string{"-n", "12", "-k", "4", "-seed", "5", "-strategy", "dethna"}, &stderr)
	cli, _ := o.telemetry.Open(&stderr)
	defer cli.Close()
	c, code := validate(o, cli, io.Discard, &stderr)
	if c == nil {
		t.Fatalf("validate: exit %d\n%s", code, stderr.Bytes())
	}
	if code := c.measure(); code != 0 {
		t.Fatalf("measure: exit %d\n%s", code, stderr.Bytes())
	}
	m := regexp.MustCompile(`msg=pairs-planned pairs=(\d+)`).FindSubmatch(stderr.Bytes())
	if m == nil {
		t.Fatalf("no pairs-planned line in\n%s", stderr.Bytes())
	}
	planned, _ := strconv.Atoi(string(m[1]))
	if got := c.ledger.Totals().Pairs; planned == 0 || got != planned {
		t.Fatalf("ledger holds %d pair records, want the %d pairs probed", got, planned)
	}
}

// TestFlagValidation: a flag combination the binary cannot honour is exit 2,
// and a file it cannot read or create exit 1, with the one reason line on
// stderr and nothing else — no world is built or restored first. The
// checkpoints here carry a dummy blob, so restoring one would fail loudly.
// Two cases get past validation and fail restoring: a blob cut short after
// its header, and one of another layout version. A run that exits non-zero
// leaves no -out file behind.
func TestFlagValidation(t *testing.T) {
	dir := t.TempDir()
	trackCkpt, campCkpt := filepath.Join(dir, "track.ckpt"), filepath.Join(dir, "camp.ckpt")
	for path, ck := range map[string]*experiments.Checkpoint{
		trackCkpt: {Blob: []byte("blob"), Tracking: &experiments.TrackingResume{Tracker: &tracker.State{}}},
		campCkpt:  {Blob: []byte("blob"), Campaign: &core.CampaignState{}},
	} {
		if err := ck.Write(path); err != nil {
			t.Fatal(err)
		}
	}
	truncCkpt := filepath.Join(dir, "trunc.ckpt")
	toposhot(t, "-n", "12", "-k", "4", "-log-level", "off", "-checkpoint", truncCkpt, "-checkpoint-every", "1")
	ck, err := experiments.ReadCheckpoint(truncCkpt)
	if err != nil {
		t.Fatal(err)
	}
	// The blob is an RLP list whose first item, the layout version, is one
	// byte after the list's prefix and length bytes: with it set to 2 the
	// file is what the previous layout's build wrote.
	v2Ckpt, blob := filepath.Join(dir, "v2.ckpt"), ck.Blob
	ck.Blob = bytes.Clone(blob)
	if v := 1 + int(ck.Blob[0]-0xf7); ck.Blob[v] == 3 {
		ck.Blob[v] = 2
	} else {
		t.Fatalf("blob version byte %d, want 3", ck.Blob[v])
	}
	if err := ck.Write(v2Ckpt); err != nil {
		t.Fatal(err)
	}
	ck.Blob = blob[:len(blob)/2]
	if err := ck.Write(truncCkpt); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		args       []string
		wantExit   int
		wantStderr string
	}{
		{"regions with checkpoint", []string{"-regions", "4", "-checkpoint", filepath.Join(dir, "f")}, 2, "-regions supports only"},
		{"regions with rival strategy", []string{"-regions", "4", "-strategy", "dethna"}, 2, "-regions supports only"},
		{"unknown preset", []string{"-preset", "nosuch"}, 2, "msg=unknown-preset preset=nosuch"},
		{"track with rival strategy", []string{"-track", "-strategy", "dethna"}, 2, "-track supports only the toposhot strategy"},
		{"tracking checkpoint without -track", []string{"-resume", trackCkpt}, 2, "a tracking checkpoint; resume it with -track"},
		{"census checkpoint with -track", []string{"-track", "-resume", campCkpt}, 2, "a census-campaign checkpoint; resume it without -track"},
		{"rival strategy with checkpoint", []string{"-n", "12", "-strategy", "dethna", "-checkpoint", filepath.Join(dir, "f")}, 2, "-checkpoint/-resume support only the toposhot strategy"},
		{"rival strategy resuming a census", []string{"-resume", campCkpt, "-strategy", "dethna"}, 2, "-checkpoint/-resume support only the toposhot strategy"},
		{"unknown strategy", []string{"-n", "12", "-strategy", "nosuch"}, 2, "msg=bad-flags"},
		{"unknown log level", []string{"-log-level", "nosuch"}, 2, "nosuch"},
		{"unknown trace level", []string{"-trace", filepath.Join(dir, "t"), "-trace-level", "nosuch"}, 2, "msg=trace-setup-failed"},
		{"unknown flag", []string{"-nosuch"}, 2, "flag provided but not defined"},
		{"help", []string{"-h"}, 0, "-trace-deterministic"},
		{"missing checkpoint", []string{"-resume", filepath.Join(dir, "absent")}, 1, "msg=checkpoint-read-failed"},
		{"unwritable output", []string{"-n", "12", "-k", "4", "-out", filepath.Join(dir, "no", "such", "dir", "e")}, 1, "msg=output-create-failed"},
		{"truncated checkpoint blob", []string{"-resume", truncCkpt, "-out", filepath.Join(dir, "resumed.edges")}, 1, "msg=restore-failed"},
		{"checkpoint of another version", []string{"-resume", v2Ckpt, "-out", filepath.Join(dir, "resumed.edges")}, 1, "checkpoint version 2, want 3"},
		{"lanes flag", []string{"-lanes", "4"}, 2, "flag provided but not defined: -lanes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.wantExit {
				t.Errorf("exit %d, want %d\n%s", code, c.wantExit, stderr.String())
			}
			if i := slices.Index(c.args, "-out"); i >= 0 {
				if _, err := os.Stat(c.args[i+1]); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("a failed run left its -out file behind (stat: %v)", err)
				}
			}
			if !strings.Contains(stderr.String(), c.wantStderr) {
				t.Errorf("stderr lacks %q:\n%s", c.wantStderr, stderr.String())
			}
			if c.wantExit != 0 && strings.Count(stderr.String(), "\n") != 1 {
				t.Errorf("a refusal is one stderr line, got:\n%s", stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("a refused run wrote to stdout: %q", stdout.String())
			}
		})
	}
}

// TestRunRestoresProcessDefaults: run installs a logger, a tracer and a
// registry process-wide; the next run in the same process — the next test —
// must not inherit them, whether the run succeeded or was refused.
func TestRunRestoresProcessDefaults(t *testing.T) {
	dir := t.TempDir()
	telemetry := []string{"-metrics", "-trace", filepath.Join(dir, "t.json"), "-log", filepath.Join(dir, "ev")}
	for name, args := range map[string][]string{
		"completed": append([]string{"-n", "12", "-k", "4", "-out", filepath.Join(dir, "e")}, telemetry...),
		"refused":   append([]string{"-preset", "nosuch"}, telemetry...),
	} {
		var stdout, stderr bytes.Buffer
		run(args, &stdout, &stderr)
		if obs.Enabled() != nil || trace.Enabled() != nil || metrics.Enabled() != nil {
			t.Errorf("%s run left a process default installed: logger %v, tracer %v, registry %v",
				name, obs.Enabled() != nil, trace.Enabled() != nil, metrics.Enabled() != nil)
		}
		if _, err := os.Stat(filepath.Join(dir, "ev")); err != nil {
			t.Errorf("%s run wrote no event-log snapshot: %v", name, err)
		}
	}
}

package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"toposhot/internal/mainnet"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares got with testdata/<name>, or rewrites the file under
// -update. A mismatch fails the test with the lines that moved.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", name, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	var diff strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		switch {
		case i >= len(g):
			fmt.Fprintf(&diff, "%4d - %s\n", i+1, w[i])
		case i >= len(w):
			fmt.Fprintf(&diff, "%4d + %s\n", i+1, g[i])
		case w[i] != g[i]:
			fmt.Fprintf(&diff, "%4d - %s\n%4d + %s\n", i+1, w[i], i+1, g[i])
		}
	}
	t.Errorf("%s drifted from its golden (re-run with -update if the change is intended)\n%s", name, diff.String())
}

// ledgerSeed is the one seed every figure golden is recorded at.
const ledgerSeed = 7

// eighthCensus is the ledger's CensusSource: each testnet at an eighth of the
// paper's node count (73 + 55 + 128 nodes, ≈ 12k pairs between them), every
// other CensusConfig field as the CLI runs it.
func eighthCensus(cfg CensusConfig) (*Census, error) {
	return CachedCensus(eighth(cfg))
}

func eighth(cfg CensusConfig) CensusConfig {
	cfg.Grow = cfg.Grow.WithN(cfg.Grow.N / 8)
	return cfg
}

// reduced replaces Run for the figures whose drivers fix the paper's size in
// constants: the same body through its sized form, at a size the ledger can
// afford. (Fig5's rendered header still names the paper's 100-node group.)
var reduced = map[string]func(seed int64, census CensusSource) (string, error){
	"Fig4a": func(seed int64, _ CensusSource) (string, error) {
		return FormatFig4a(fig4a(seed, []int{512, 640, 768, 896})), nil
	},
	"Fig4b": func(seed int64, _ CensusSource) (string, error) {
		return FormatFig4b(fig4b(seed, []int{1, 29, 60, 99})), nil
	},
	"Fig5": func(seed int64, _ CensusSource) (string, error) {
		return FormatFig5(fig5(seed, 30, []int{1, 5, 10, 20})), nil
	},
	// A tenth of the regular population and one pair of each verdict; the
	// critical services keep the paper's exact counts (their full mesh is
	// what the run costs).
	"Table6": func(seed int64, _ CensusSource) (string, error) {
		r, err := table6(seed, mainnet.Config{RegularNodes: 40, Seed: seed},
			[][2]string{{mainnet.SrvR2, mainnet.SrvM6}, {mainnet.SrvM6, mainnet.SrvM5}, {mainnet.SrvM1, mainnet.SrvM1}})
		if err != nil {
			return "", err
		}
		return FormatTable6(r), nil
	},
	// The three testnet rows; the mainnet row's cost and duration are the last
	// line of Table 6's golden.
	"Table7": func(seed int64, census CensusSource) (string, error) {
		return table7(seed, census, nil)
	},
	"CensusScale": func(seed int64, _ CensusSource) (string, error) {
		cfg := MainnetScaleCensus(seed)
		cfg.Grow = cfg.Grow.WithN(240)
		cfg.Regions = 4
		sc, err := RunScaleCensus(cfg)
		if err != nil {
			return "", err
		}
		return FormatScaleCensus(sc), nil
	},
}

// checkRecallRisesWithZ is Fig. 4a's tie to the paper, asserted on the very
// bytes the golden pins so that an -update cannot quietly record a curve the
// paper does not have. (Table 3's cells, Fig. 7's theorem and Table 8's 100 %
// are asserted on the rows in experiments_test.go, Compare's exactness in
// compare_test.go.)
func checkRecallRisesWithZ(t *testing.T, out string) {
	prev, rows := -1.0, 0
	for _, line := range strings.Split(out, "\n") {
		var z, tested int
		var recall float64
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "Z=%d recall=%f%% (%d links tested)", &z, &recall, &tested); err != nil {
			continue
		}
		if recall < prev {
			t.Errorf("Fig. 4a recall falls from %.1f%% to %.1f%% at Z=%d; the paper's curve rises with Z", prev, recall, z)
		}
		prev = recall
		rows++
	}
	if rows < 2 {
		t.Errorf("parsed %d Fig. 4a rows; the check compared nothing", rows)
	}
}

// TestFigureLedger pins every registry entry's rendered bytes at a fixed seed
// and a reduced size to testdata/figures/<Name>.golden, and requires the
// directory and the registry to name the same set: a figure without a golden
// is unpinned, and a golden without a figure pins nothing. Regenerate with
//
//	go test ./internal/experiments -run TestFigureLedger -update
//
// The figures are independent simulations, so they run as parallel subtests
// (beside the package's other long census, TestTraceFalsePositive).
func TestFigureLedger(t *testing.T) {
	t.Parallel()
	var prewarm []CensusConfig
	for _, cfg := range testnetCensuses {
		prewarm = append(prewarm, eighth(cfg(ledgerSeed)))
	}
	PrewarmCensuses(prewarm...)

	names := map[string]bool{}
	for _, f := range Figures() {
		f := f
		if names[f.Name] {
			t.Errorf("registry lists %s twice", f.Name)
		}
		names[f.Name] = true
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			run := f.Run
			if r, ok := reduced[f.Name]; ok {
				run = r
			}
			out, err := run(ledgerSeed, eighthCensus)
			if err != nil {
				t.Fatal(err)
			}
			if f.Name == "Fig4a" {
				checkRecallRisesWithZ(t, out)
			}
			checkGolden(t, filepath.Join("figures", f.Name+".golden"), []byte(out))
		})
	}
	for name := range reduced {
		if !names[name] {
			t.Errorf("the ledger sizes %s, which the registry does not list", name)
		}
	}
	// After the last subtest, so that an -update run checks the directory it
	// has just written.
	t.Cleanup(func() {
		files, err := filepath.Glob(filepath.Join("testdata", "figures", "*.golden"))
		if err != nil {
			t.Fatal(err)
		}
		var have, want []string
		for _, f := range files {
			have = append(have, strings.TrimSuffix(filepath.Base(f), ".golden"))
		}
		for name := range names {
			want = append(want, name)
		}
		sort.Strings(have)
		sort.Strings(want)
		if strings.Join(have, " ") != strings.Join(want, " ") {
			t.Errorf("testdata/figures and the registry differ:\n  goldens:  %v\n  registry: %v", have, want)
		}
	})
}

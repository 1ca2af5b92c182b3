package experiments

import (
	"strings"
	"testing"

	"toposhot/internal/netgen"
)

// TestSmallCensusQuality guards the headline claim at a CI-friendly size:
// TopoShot recovers a small heterogeneous testnet with ≈100% precision.
func TestSmallCensusQuality(t *testing.T) {
	cfg := RopstenCensus(42)
	cfg.Grow = cfg.Grow.WithN(60)
	cfg.GroupK = 8
	c, err := RunCensus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p := c.Score.Precision(); p < 0.99 {
		t.Errorf("precision = %.3f, want ≥ 0.99", p)
	}
	if r := c.Score.Recall(); r < 0.90 {
		t.Errorf("recall = %.3f, want ≥ 0.90", r)
	}
	if c.Measured.NumNodes() == 0 || c.Measured.NumEdges() == 0 {
		t.Fatal("measured graph empty")
	}
	if c.CostEther <= 0 || c.DurationHours <= 0 {
		t.Error("campaign accounting empty")
	}
}

func TestCachedCensusReuses(t *testing.T) {
	cfg := RopstenCensus(777)
	cfg.Grow = cfg.Grow.WithN(30)
	cfg.GroupK = 5
	a, err := CachedCensus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CachedCensus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache miss for identical config")
	}
}

// TestTable3MatchesPaper: the black-box profiler recovers the paper's Table 3
// cell for cell (U = -1 renders as ∞).
func TestTable3MatchesPaper(t *testing.T) {
	paper := []struct {
		client     string
		r          float64
		u, p, l    int
		measurable bool
	}{
		{"geth", 0.10, 4096, 0, 5120, true},
		{"parity", 0.125, 81, 2000, 8192, true},
		{"nethermind", 0, 17, 0, 2048, false},
		{"besu", 0.10, -1, 0, 4096, true},
		{"aleth", 0, 1, 0, 2048, false},
	}
	rows := Table3()
	if len(rows) != len(paper) {
		t.Fatalf("rows = %d, want %d", len(rows), len(paper))
	}
	for i, want := range paper {
		got := rows[i]
		if got.Client != want.client || got.R != want.r || got.U != want.u || got.P != want.p ||
			got.L != want.l || got.Measurable != want.measurable {
			t.Errorf("row %d = %+v, the paper has %+v", i, got, want)
		}
	}
	out := FormatTable3(rows)
	for _, want := range []string{"geth", "parity", "nethermind", "besu", "aleth", "10.0%", "12.5%", "∞"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestFig7MatchesTheorem(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale pools")
	}
	rows := Fig7(5)
	for _, r := range rows {
		want := r.MempoolSize-r.Pending <= 5120
		got := r.Recall == 1
		if want != got {
			t.Errorf("L=%d pending=%d: recall=%.2f, condition=%v",
				r.MempoolSize, r.Pending, r.Recall, want)
		}
	}
}

func TestTable8AllPerfect(t *testing.T) {
	rows := Table8(5, 3)
	if len(rows) != 6 {
		t.Fatalf("configurations = %d", len(rows))
	}
	for _, r := range rows {
		if r.Recall != 1 || r.Precision != 1 {
			t.Errorf("%s: recall=%.2f precision=%.2f", r.Links, r.Recall, r.Precision)
		}
	}
}

func TestPropertyTableComparesBaselines(t *testing.T) {
	cfg := RopstenCensus(777)
	cfg.Grow = cfg.Grow.WithN(30)
	cfg.GroupK = 5
	c, err := CachedCensus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab := PropertyTable("tiny", c, 2, 777)
	if tab.Measured.Nodes == 0 || tab.Baselines.ER.Nodes == 0 {
		t.Fatal("table empty")
	}
	if FormatGraphTable(tab) == "" {
		t.Fatal("format empty")
	}
}

func TestFormatDegreeDistribution(t *testing.T) {
	g := netgen.ErdosRenyiNM(30, 60, 1)
	out := FormatDegreeDistribution(g, 10)
	if !strings.Contains(out, "degree distribution") {
		t.Fatal("header missing")
	}
}

func TestW2CrawlSeparatesLayers(t *testing.T) {
	r := W2Crawl(5)
	if r.Report.InactiveEdges <= r.Report.ActiveEdges {
		t.Errorf("inactive (%d) should exceed active (%d)",
			r.Report.InactiveEdges, r.Report.ActiveEdges)
	}
	if r.Report.PrecisionAsActive > 0.6 {
		t.Errorf("routing tables too close to the active topology: %.2f",
			r.Report.PrecisionAsActive)
	}
}

package discv

import (
	"testing"

	"toposhot/internal/types"
)

func ids(n int) []types.NodeID {
	out := make([]types.NodeID, n)
	for i := range out {
		out[i] = types.NodeID(i + 1)
	}
	return out
}

func TestLogDist(t *testing.T) {
	if LogDist(1, 1) != 0 {
		t.Fatal("self distance != 0")
	}
	if d := LogDist(1, 2); d <= 0 || d > 256 {
		t.Fatalf("distance out of range: %d", d)
	}
	if LogDist(1, 2) != LogDist(2, 1) {
		t.Fatal("distance not symmetric")
	}
}

func TestTableAddAndCaps(t *testing.T) {
	tbl := NewTable(1)
	if tbl.Add(1) {
		t.Fatal("self admitted")
	}
	added := 0
	for i := 2; i < 2000; i++ {
		if tbl.Add(types.NodeID(i)) {
			added++
		}
	}
	if n := len(tbl.Entries()); n != added {
		t.Fatalf("len %d != added %d", n, added)
	}
	if added > NumBuckets*BucketSize {
		t.Fatalf("table overflow: %d > %d", added, NumBuckets*BucketSize)
	}
	// Duplicate insert rejected.
	entries := tbl.Entries()
	if len(entries) > 0 && tbl.Add(entries[0]) {
		t.Fatal("duplicate admitted")
	}
}

func TestClosestOrdering(t *testing.T) {
	tbl := NewTable(1)
	for i := 2; i < 300; i++ {
		tbl.Add(types.NodeID(i))
	}
	target := types.NodeID(7)
	got := tbl.Closest(target, 8)
	if len(got) != 8 {
		t.Fatalf("closest returned %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if LogDist(got[i-1], target) > LogDist(got[i], target) {
			t.Fatal("closest not sorted by distance")
		}
	}
}

func TestSystemBootstrapPopulatesTables(t *testing.T) {
	all := ids(300)
	sys := NewSystem(all, 8, 3, 1)
	var sum int
	for _, id := range all {
		sum += len(sys.tables[id].present)
	}
	avg := float64(sum) / float64(len(all))
	if avg < 30 {
		t.Fatalf("average table population = %v, want ≥ 30", avg)
	}
}

func TestFindNodeRespondsFromTable(t *testing.T) {
	all := ids(100)
	sys := NewSystem(all, 8, 2, 2)
	resp := sys.FindNode(all[0], all[50])
	if len(resp) == 0 || len(resp) > BucketSize {
		t.Fatalf("FIND_NODE response size %d", len(resp))
	}
	tbl := sys.tables[all[0]]
	for _, id := range resp {
		if !tbl.present[id] {
			t.Fatalf("response %v not in responder's table", id)
		}
	}
	if sys.FindNode(types.NodeID(9999), all[0]) != nil {
		t.Fatal("unknown responder should return nil")
	}
}

func TestCrawlInactiveEdges(t *testing.T) {
	all := ids(200)
	sys := NewSystem(all, 8, 2, 3)
	edges := sys.CrawlInactiveEdges(3, 3)
	if len(edges) == 0 {
		t.Fatal("crawl found nothing")
	}
	seen := make(map[[2]types.NodeID]bool)
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Fatalf("edge not normalized: %v", e)
		}
		if seen[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[e] = true
	}
}
